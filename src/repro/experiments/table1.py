"""Experiment: Table I -- Rent's-rule block-size thresholds.

Reproduces the paper's Table I: "block sizes below which the expected
number of fixed vertices due to propagated terminals will exceed a
specified percentage (5%, 10%, or 20%) of the total number of vertices
in a top-down placement when the design has given Rent parameter p",
with k = 3.5 pins per cell.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.rent import (
    DEFAULT_PINS_PER_CELL,
    DEFAULT_RENT_PARAMETERS,
    DEFAULT_THRESHOLDS,
    TableOneRow,
    fixed_fraction,
    table_one,
)


def run_table1(
    rent_exponents: Sequence[float] = DEFAULT_RENT_PARAMETERS,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    pins_per_cell: float = DEFAULT_PINS_PER_CELL,
) -> List[TableOneRow]:
    """Compute Table I."""
    return table_one(rent_exponents, thresholds, pins_per_cell)


def shape_checks(rows: List[TableOneRow]) -> List[Tuple[str, bool]]:
    """The qualitative claims Table I supports."""
    checks = []
    # Larger Rent exponent => larger threshold block sizes (more
    # terminals per block).
    for col in range(len(rows[0].block_sizes)):
        sizes = [r.block_sizes[col] for r in rows]
        checks.append(
            (
                f"thresholds increase with p (column {col})",
                sizes == sorted(sizes) and len(set(sizes)) == len(sizes),
            )
        )
    # Within a row, a lower fixed-fraction threshold admits larger blocks.
    for row in rows:
        checks.append(
            (
                f"5% threshold > 10% > 20% at p={row.rent_exponent}",
                row.block_sizes[0] > row.block_sizes[1] > row.block_sizes[2],
            )
        )
    # The paper's motivating claim: at p ~ 0.68 even multi-thousand-cell
    # blocks have >= 20% of their vertices fixed.
    p68 = next(r for r in rows if abs(r.rent_exponent - 0.68) < 1e-9)
    checks.append(
        ("at p=0.68, blocks below ~3.8k cells are >=20% fixed",
         3000 <= p68.block_sizes[2] <= 5000)
    )
    # Threshold sizes are exact: the fraction at the reported size is
    # >= the threshold and at twice the size it is below it.
    exact = all(
        fixed_fraction(row.block_sizes[i], row.rent_exponent) >= f
        and fixed_fraction(2 * row.block_sizes[i] + 2, row.rent_exponent) < f
        for row in rows
        for i, f in enumerate(DEFAULT_THRESHOLDS)
    )
    checks.append(("closed-form thresholds verified numerically", exact))
    return checks
