"""Companion experiment: best-known solutions for derived benchmarks.

The paper publishes its fixed-terminals benchmarks "together with
information about best known solutions [and] partitioner run times".
This experiment produces that companion table for our derived suite:
for every A..D x {V,H} instance, the best multilevel cut over N starts,
the single-start average, and per-start runtime -- plus the free-
hypergraph cut of the same block as context (how much the terminals
constrain the block).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.experiments.circuits import load_circuit
from repro.partition.multistart import multilevel_multistart
from repro.partition.solution import FREE
from repro.placement.suite import BenchmarkSuite, build_suite


@dataclass(frozen=True)
class SolutionRow:
    """Best-known-solution record for one derived instance."""

    name: str
    num_cells: int
    num_terminals: int
    best_cut: int
    avg_cut: float
    avg_seconds: float
    free_cut: int

    def format_row(self) -> str:
        """Fixed-width table row."""
        return (
            f"{self.name:<26s} {self.num_cells:>6d} "
            f"{self.num_terminals:>6d} {self.best_cut:>8d} "
            f"{self.avg_cut:>8.1f} {self.avg_seconds:>8.3f} "
            f"{self.free_cut:>8d}"
        )


HEADER = (
    f"{'instance':<26s} {'cells':>6s} {'terms':>6s} {'best':>8s} "
    f"{'avg@1':>8s} {'sec@1':>8s} {'free':>8s}"
)


@dataclass
class SolutionTable:
    """All rows for one circuit's suite."""

    circuit_name: str
    starts: int
    rows: List[SolutionRow] = field(default_factory=list)

    def format_table(self) -> str:
        """Text rendering."""
        return "\n".join(
            [
                f"Best known solutions: {self.circuit_name} "
                f"(multilevel, best of {self.starts} starts)",
                HEADER,
            ]
            + [r.format_row() for r in self.rows]
        )


def solve_suite(
    suite: BenchmarkSuite, starts: int = 4, seed: int = 0, jobs: int = 1
) -> SolutionTable:
    """Partition every instance of ``suite`` and tabulate the results."""
    table = SolutionTable(circuit_name=suite.circuit_name, starts=starts)
    for entry in suite.entries:
        instance = entry.instance
        fixture = instance.hard_fixture()
        batch = multilevel_multistart(
            instance.graph,
            instance.balance,
            fixture=fixture,
            num_starts=starts,
            seed=seed,
            jobs=jobs,
        )
        free_batch = multilevel_multistart(
            instance.graph,
            instance.balance,
            fixture=[FREE] * instance.graph.num_vertices,
            num_starts=1,
            seed=seed,
        )
        table.rows.append(
            SolutionRow(
                name=instance.name,
                num_cells=entry.parameters.num_cells,
                num_terminals=entry.parameters.num_terminals,
                best_cut=batch.best().cut,
                avg_cut=statistics.mean(s.cut for s in batch.starts),
                avg_seconds=statistics.mean(
                    s.seconds for s in batch.starts
                ),
                free_cut=free_batch.best().cut,
            )
        )
    return table


PROFILE_SETTINGS = {
    "full": {"circuits": ("ibm01s", "ibm02s"), "starts": 4},
    "quick": {"circuits": ("quick01",), "starts": 2},
}


def run_suite_solutions(
    profile: str = "quick", seed: int = 0, jobs: int = 1
) -> List[SolutionTable]:
    """Build + solve the profile's suites."""
    if profile not in PROFILE_SETTINGS:
        raise KeyError(f"unknown profile {profile!r}")
    settings = PROFILE_SETTINGS[profile]
    tables = []
    for name in settings["circuits"]:
        circuit = load_circuit(name)
        suite = build_suite(circuit, name, seed=seed)
        tables.append(
            solve_suite(
                suite, starts=settings["starts"], seed=seed, jobs=jobs
            )
        )
    return tables


def shape_checks(tables: List[SolutionTable]) -> List[Tuple[str, bool]]:
    """Sanity properties of the solution table."""
    checks = []
    for table in tables:
        checks.append(
            (
                f"{table.circuit_name}: best <= avg on every instance",
                all(r.best_cut <= r.avg_cut + 1e-9 for r in table.rows),
            )
        )
        # Fixed terminals constrain the block: the fixed-terminals cut
        # is at least the free cut of the same block (never below; the
        # free instance's solution space strictly contains it).
        checks.append(
            (
                f"{table.circuit_name}: fixed-terminals cut >= free "
                "cut of the same block",
                all(
                    r.best_cut >= r.free_cut - max(2, 0.1 * r.free_cut)
                    for r in table.rows
                ),
            )
        )
    return checks
