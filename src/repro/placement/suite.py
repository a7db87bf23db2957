"""Benchmark-suite construction (the paper's IBMxxA..D series).

From each circuit's placement the paper extracts four blocks (A..D) of
increasing depth in a slicing structure, each yielding two instances
(vertical and horizontal terminal assignments).  This module reproduces
that pipeline on our synthetic circuits: place, carve blocks, derive,
and collect the Table IV parameter rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.instance import PartitioningInstance
from repro.hypergraph.generators import SyntheticCircuit
from repro.placement.derive import (
    InstanceParameters,
    cells_in_block,
    derive_instance,
    instance_parameters,
)
from repro.placement.geometry import HORIZONTAL, VERTICAL, Rect
from repro.placement.naming import BlockPath, block_name, block_region
from repro.placement.placer import Placement, PlacerConfig, TopDownPlacer

# The four blocks of the paper's series: the die, the left half, the
# lower-left quadrant, and the left half of that quadrant.
SERIES_PATHS: Dict[str, Tuple[Tuple[str, int], ...]] = {
    "A": (),
    "B": ((VERTICAL, 0),),
    "C": ((VERTICAL, 0), (HORIZONTAL, 0)),
    "D": ((VERTICAL, 0), (HORIZONTAL, 0), (VERTICAL, 0)),
}


@dataclass
class SuiteEntry:
    """One derived instance plus its Table IV parameters."""

    instance: PartitioningInstance
    parameters: InstanceParameters
    block: Rect
    path: BlockPath
    cut_axis: str


@dataclass
class BenchmarkSuite:
    """All instances derived from one placed circuit."""

    circuit_name: str
    placement: Placement
    entries: List[SuiteEntry] = field(default_factory=list)

    def table_rows(self) -> List[InstanceParameters]:
        """Table IV rows in derivation order."""
        return [entry.parameters for entry in self.entries]

    def instance(self, name: str) -> PartitioningInstance:
        """Look up an instance by its full name."""
        for entry in self.entries:
            if entry.instance.name == name:
                return entry.instance
        raise KeyError(f"no instance named {name!r}")


def place_circuit(
    circuit: SyntheticCircuit,
    die_size: float = 1000.0,
    config: Optional[PlacerConfig] = None,
    seed: int = 0,
) -> Placement:
    """Place a synthetic circuit on a square die."""
    die = Rect(0.0, 0.0, die_size, die_size)
    placer = TopDownPlacer(
        circuit.graph,
        die,
        pad_vertices=circuit.pad_vertices,
        config=config,
        seed=seed,
    )
    return placer.place()


def build_suite(
    circuit: SyntheticCircuit,
    circuit_name: str,
    placement: Optional[Placement] = None,
    tolerance: float = 0.02,
    min_block_cells: int = 16,
    placer_config: Optional[PlacerConfig] = None,
    seed: int = 0,
) -> BenchmarkSuite:
    """Derive the A..D x {V, H} instances of one circuit.

    Blocks that end up with fewer than ``min_block_cells`` placed cells
    are skipped (tiny deep blocks carry no benchmark signal).  Instance
    names follow ``<circuit><letter>_<level-name>_<axis>``, e.g.
    ``ibm01sB_L1_V0_H``.
    """
    if placement is None:
        placement = place_circuit(
            circuit, config=placer_config, seed=seed
        )
    suite = BenchmarkSuite(circuit_name=circuit_name, placement=placement)
    for letter, path in SERIES_PATHS.items():
        block = block_region(placement.die, path)
        if len(cells_in_block(placement, block)) < min_block_cells:
            continue
        for axis in (VERTICAL, HORIZONTAL):
            name = f"{circuit_name}{letter}_{block_name(path)}_{axis}"
            instance = derive_instance(
                placement,
                block,
                axis=axis,
                tolerance=tolerance,
                name=name,
            )
            suite.entries.append(
                SuiteEntry(
                    instance=instance,
                    parameters=instance_parameters(instance),
                    block=block,
                    path=path,
                    cut_axis=axis,
                )
            )
    return suite


def format_table(suites: List[BenchmarkSuite]) -> str:
    """Render Table IV for a list of suites, the name column as wide as
    its longest instance name."""
    rows = [row for suite in suites for row in suite.table_rows()]
    width = max([16] + [len(row.name) for row in rows])
    header = (
        f"{'instance':<{width}s} {'cells':>8s} {'pads':>8s} "
        f"{'nets':>8s} {'extnets':>8s} {'Max%':>7s}"
    )
    return "\n".join([header] + [row.format_row(width) for row in rows])
