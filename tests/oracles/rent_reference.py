"""Least-squares Rent exponent of a hypergraph, the check on the
synthetic circuit generator.

``tests/hypergraph/test_generators.py`` uses it to confirm that more
local nets give the generated circuit a lower Rent exponent.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.hypergraph.hypergraph import Hypergraph


def rent_exponent_estimate(
    graph: Hypergraph,
    samples: Sequence[Sequence[int]],
) -> float:
    """Estimate the Rent exponent from (block, terminal-count) samples.

    ``samples`` is a list of vertex subsets ("blocks").  For each block we
    count external nets (nets with pins both inside and outside) as the
    terminal count ``T`` and fit ``log T = log k + p log C`` by least
    squares.  Degenerate inputs (fewer than two distinct block sizes)
    raise ``ValueError``.
    """
    points = []
    for block in samples:
        inside = set(block)
        if not inside:
            continue
        terminals = 0
        for e in range(graph.num_nets):
            pins = graph.net_pins(e)
            has_in = any(v in inside for v in pins)
            has_out = any(v not in inside for v in pins)
            if has_in and has_out:
                terminals += 1
        if terminals > 0:
            points.append((math.log(len(inside)), math.log(terminals)))
    sizes = {x for x, _ in points}
    if len(sizes) < 2:
        raise ValueError(
            "need samples of at least two distinct block sizes with "
            "nonzero terminal counts"
        )
    n = len(points)
    sx = sum(x for x, _ in points)
    sy = sum(y for _, y in points)
    sxx = sum(x * x for x, _ in points)
    sxy = sum(x * y for x, y in points)
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)
