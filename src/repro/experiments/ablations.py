"""Experiment: ablations of the design choices DESIGN.md §5 calls out.

Six studies on the quick01 circuit, each at fixed seeds:

* CLIP vs LIFO vs FIFO tie-breaking in flat FM (the paper: "using LIFO
  FM instead of CLIP FM results in very similar results");
* V-cycling on/off in the multilevel engine (the paper drops it as a
  net loss in cost-runtime profile);
* heavy-edge vs random matching;
* terminal-seeded vs random-only coarsest-level starts, probing the
  paper's closing call for heuristics that exploit fixed terminals;
* the Section V terminal-clustering transform (the clustered instance
  is "just as easy or hard as the original instance");
* the Section II pad regime: fixing identified pads vs as many random
  vertices (the paper "could find no difference in any experiment").

The report holds cuts and refinement-pass counts only, no timings, so
every run writes the same bytes.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core import (
    cluster_terminals,
    find_good_solution,
    good_fixture,
    make_schedule,
    pad_schedule,
)
from repro.experiments.circuits import load_instance
from repro.partition import (
    FREE,
    FMConfig,
    MultilevelBipartitioner,
    MultilevelConfig,
    cut_size,
    flat_fm_multistart,
    multilevel_multistart,
)
from repro.runtime.seeds import derive_start_seeds

CIRCUIT = "quick01"
STARTS = 4


@dataclass
class Ablations:
    """Measured cuts of every study (see the module docstring)."""

    circuit_name: str
    policy_cuts: Dict[str, int]  # policy -> best cut of 4 flat-FM starts
    vcycle_cuts: Dict[int, int]  # V-cycles -> best cut of 2 starts
    vcycle_passes: Dict[int, int]  # V-cycles -> FM passes of 2 starts
    matching_cuts: Dict[str, float]  # scheme -> average cut of 4 starts
    seeding_reference: int
    seeding_cuts: Dict[str, float]  # start kind -> average cut of 4 starts
    original_cut: int
    clustered_cut: int
    lifted_cut: int
    pad_percent: float
    pad_cuts: Dict[str, float]  # fixed set -> average cut of 3 starts

    def format_report(self) -> str:
        """Text rendering."""
        lines = [
            f"Ablations on {self.circuit_name}",
            "",
            f"FM tie-breaking (flat FM, best of {STARTS} starts):",
        ]
        lines += [
            f"  {p:>5s}: best cut {c}" for p, c in self.policy_cuts.items()
        ]
        lines += ["", "V-cycling (multilevel, 2 starts):"]
        lines += [
            f"  {v} v-cycle{'s' if v != 1 else ' '}: best cut "
            f"{self.vcycle_cuts[v]}, {self.vcycle_passes[v]} FM passes"
            for v in self.vcycle_cuts
        ]
        lines += ["", f"Matching (multilevel, {STARTS} starts):"]
        lines += [
            f"  {scheme:>6s} matching: avg cut {cut:.1f}"
            for scheme, cut in self.matching_cuts.items()
        ]
        lines += [
            "",
            f"Terminal seeding (good regime, 25% fixed, reference cut "
            f"{self.seeding_reference}, {STARTS} starts):",
        ]
        lines += [
            f"  {label:<12s}: avg cut {cut:.1f}"
            for label, cut in self.seeding_cuts.items()
        ]
        lines += [
            "",
            "Terminal clustering (30% random terminals, best of 2 starts):",
            f"  original instance : cut {self.original_cut}",
            f"  clustered instance: cut {self.clustered_cut} "
            f"(lifted cut {self.lifted_cut})",
            "",
            f"Pad regime (good regime, {self.pad_percent:.1f}% fixed, "
            "3 starts):",
            f"  identified pads : avg cut {self.pad_cuts['pads']:.1f}",
            f"  random vertices : avg cut {self.pad_cuts['random']:.1f}",
        ]
        return "\n".join(lines)


def _fixture_with_terminals(graph, fraction: float, seed: int) -> List[int]:
    """``fraction`` of the vertices fixed, each on a random side."""
    rng = random.Random(seed)
    fixture = [FREE] * graph.num_vertices
    for v in rng.sample(
        range(graph.num_vertices), int(fraction * graph.num_vertices)
    ):
        fixture[v] = rng.randrange(2)
    return fixture


def _mean_cut(result) -> float:
    return statistics.mean(s.cut for s in result.starts)


def run_ablations(jobs: int = 1) -> Ablations:
    """Run all six studies on the quick01 circuit."""
    circuit, balance = load_instance(CIRCUIT)
    graph = circuit.graph

    policy_cuts = {
        policy: flat_fm_multistart(
            graph, balance, config=FMConfig(policy=policy),
            num_starts=STARTS, seed=11, jobs=jobs,
        ).best().cut
        for policy in ("lifo", "fifo", "clip")
    }

    # The engine is run directly, as multilevel_multistart would run it,
    # because only MultilevelResult carries the refinement-pass count.
    vcycle_cuts, vcycle_passes = {}, {}
    for vcycles in (0, 1):
        engine = MultilevelBipartitioner(
            graph, balance, config=MultilevelConfig(vcycles=vcycles)
        )
        runs = [engine.run(seed=s) for s in derive_start_seeds(12, 2)]
        vcycle_cuts[vcycles] = min(r.solution.cut for r in runs)
        vcycle_passes[vcycles] = sum(r.refinement_passes for r in runs)

    matching_cuts = {
        scheme: _mean_cut(multilevel_multistart(
            graph, balance, config=MultilevelConfig(matching=scheme),
            num_starts=STARTS, seed=13, jobs=jobs,
        ))
        for scheme in ("heavy", "random")
    }

    good = multilevel_multistart(
        graph, balance, num_starts=4, seed=16, jobs=jobs
    ).best()
    fixture = [FREE] * graph.num_vertices
    rng = random.Random(17)
    for v in rng.sample(
        range(graph.num_vertices), int(0.25 * graph.num_vertices)
    ):
        fixture[v] = good.parts[v]
    seeding_cuts = {
        label: _mean_cut(multilevel_multistart(
            graph, balance, fixture=fixture,
            config=MultilevelConfig(terminal_seeded_starts=seeded),
            num_starts=STARTS, seed=18, jobs=jobs,
        ))
        for label, seeded in (("seeded", True), ("random-only", False))
    }

    terminals = _fixture_with_terminals(graph, 0.3, seed=14)
    clustered = cluster_terminals(graph, terminals)
    original = multilevel_multistart(
        graph, balance, fixture=terminals, num_starts=2, seed=15, jobs=jobs
    ).best()
    transformed = multilevel_multistart(
        clustered.graph, balance, fixture=clustered.fixture,
        num_starts=2, seed=15, jobs=jobs,
    ).best()
    lifted = clustered.lift_partition(transformed.parts)

    pad_good = find_good_solution(graph, balance, starts=2, seed=8)
    pad_percent = 100.0 * len(circuit.pad_vertices) / graph.num_vertices
    pad_cuts = {
        label: _mean_cut(multilevel_multistart(
            graph, balance,
            fixture=good_fixture(schedule, pad_percent, pad_good.parts),
            num_starts=3, seed=10, jobs=jobs,
        ))
        for label, schedule in (
            ("pads", pad_schedule(graph, circuit.pad_vertices, seed=9)),
            ("random", make_schedule(graph, seed=9)),
        )
    }

    return Ablations(
        circuit_name=CIRCUIT,
        policy_cuts=policy_cuts,
        vcycle_cuts=vcycle_cuts,
        vcycle_passes=vcycle_passes,
        matching_cuts=matching_cuts,
        seeding_reference=good.cut,
        seeding_cuts=seeding_cuts,
        original_cut=original.cut,
        clustered_cut=transformed.cut,
        lifted_cut=cut_size(graph, lifted),
        pad_percent=pad_percent,
        pad_cuts=pad_cuts,
    )


def _within(a: float, b: float, factor: float, slack: float) -> bool:
    """Each of ``a`` and ``b`` is at most ``factor`` times the other
    plus ``slack``."""
    return max(a, b) <= factor * min(a, b) + slack


def shape_checks(report: Ablations) -> List[Tuple[str, bool]]:
    """The claim each study supports."""
    lifo, fifo, clip = (report.policy_cuts[p] for p in ("lifo", "fifo", "clip"))
    base_cut, vcycled_cut = report.vcycle_cuts[0], report.vcycle_cuts[1]
    heavy, rand = report.matching_cuts["heavy"], report.matching_cuts["random"]
    seeded = report.seeding_cuts["seeded"]
    random_only = report.seeding_cuts["random-only"]
    pads, rand_pads = report.pad_cuts["pads"], report.pad_cuts["random"]
    return [
        # FIFO is known to be substantially worse (Hagen, Huang & Kahng
        # 1997), so it is held only below the better of the two.
        (
            f"LIFO and CLIP give similar cuts ({lifo} vs {clip})",
            _within(lifo, clip, 2.0, 8),
        ),
        (
            f"FIFO is no better than LIFO or CLIP ({fifo} vs {min(lifo, clip)})",
            fifo >= min(lifo, clip),
        ),
        (
            f"V-cycling costs extra FM passes ({report.vcycle_passes[0]} -> "
            f"{report.vcycle_passes[1]})",
            report.vcycle_passes[1] > report.vcycle_passes[0],
        ),
        (
            f"V-cycling is at most a marginal cut gain ({base_cut} -> "
            f"{vcycled_cut})",
            vcycled_cut >= base_cut - max(3, int(0.25 * base_cut)),
        ),
        (
            f"heavy-edge matching within 10% of random matching "
            f"({heavy:.1f} vs {rand:.1f})",
            heavy <= rand * 1.1 + 2,
        ),
        (
            f"terminal-seeded starts no worse than random-only "
            f"({seeded:.1f} vs {random_only:.1f})",
            seeded <= random_only * 1.02 + 1,
        ),
        (
            "lifting the clustered solution keeps its cut "
            f"({report.clustered_cut} -> {report.lifted_cut})",
            report.lifted_cut == report.clustered_cut,
        ),
        (
            "clustered instance just as easy as the original "
            f"({report.clustered_cut} vs {report.original_cut})",
            _within(report.clustered_cut, report.original_cut, 1.35, 5),
        ),
        (
            f"fixing pads is like fixing random vertices "
            f"({pads:.1f} vs {rand_pads:.1f})",
            _within(pads, rand_pads, 1.6, 8),
        ),
    ]
