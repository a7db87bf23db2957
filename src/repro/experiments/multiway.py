"""Extension experiment: is multiway partitioning as affected by fixed
terminals?

Section V, open question 1: "determining whether multiway partitioning
is as affected by fixed terminals".  This experiment repeats the
Section II protocol with the direct k-way FM engine (k = 4): fix
growing fractions of vertices either consistently with a good free
4-way solution or at random, run 1..N starts, and examine whether the
multistart gap collapses and runtime falls just as in the 2-way case.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.regimes import (
    FixedVertexSchedule,
    make_schedule,
    regime_fixture,
)
from repro.experiments.circuits import load_circuit
from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.balance import BalanceConstraint, relative_balance
from repro.partition.multistart import kway_multistart


@dataclass(frozen=True)
class MultiwayPoint:
    """One (regime, percent, starts) point of the k-way study."""

    regime: str
    percent: float
    starts: int
    raw_cut: float
    normalized_cut: float
    cpu_seconds: float


@dataclass
class MultiwayStudy:
    """The k-way analogue of a Figs. 1-2 study."""

    circuit_name: str
    num_parts: int
    percents: Sequence[float]
    starts_list: Sequence[int]
    trials: int
    good_cut: int
    points: List[MultiwayPoint] = field(default_factory=list)

    def point(
        self, regime: str, percent: float, starts: int
    ) -> MultiwayPoint:
        """Look up one point."""
        for p in self.points:
            if (
                p.regime == regime
                and p.percent == percent
                and p.starts == starts
            ):
                return p
        raise KeyError((regime, percent, starts))

    def format_table(self) -> str:
        """Text rendering."""
        lines = [
            f"Multiway ({self.num_parts}-way) difficulty study: "
            f"{self.circuit_name} (good cut = {self.good_cut}, "
            f"{self.trials} trials)"
        ]
        for regime in ("good", "rand"):
            lines.append(f"-- regime: {regime}")
            lines.append(
                f"{'fixed%':>7s} "
                + " ".join(
                    f"{f'raw@{s}':>9s} {f'norm@{s}':>8s} {f'cpu@{s}':>8s}"
                    for s in self.starts_list
                )
            )
            for percent in self.percents:
                row = [f"{percent:>7.1f}"]
                for starts in self.starts_list:
                    p = self.point(regime, percent, starts)
                    row.append(
                        f"{p.raw_cut:>9.1f} {p.normalized_cut:>8.3f} "
                        f"{p.cpu_seconds:>8.3f}"
                    )
                lines.append(" ".join(row))
        return "\n".join(lines)


def _find_good_kway(
    graph: Hypergraph,
    balance: BalanceConstraint,
    starts: int,
    seed: int,
    jobs: int = 1,
    policy=None,
    checkpoint=None,
) -> Tuple[List[int], int]:
    batch = kway_multistart(
        graph, balance, num_starts=starts, seed=seed, jobs=jobs,
        policy=policy, checkpoint=checkpoint,
    )
    best = batch.best()
    return best.parts, best.cut


def run_multiway_study(
    graph: Hypergraph,
    num_parts: int = 4,
    tolerance: float = 0.1,
    circuit_name: str = "circuit",
    percents: Sequence[float] = (0.0, 5.0, 20.0, 40.0),
    starts_list: Sequence[int] = (1, 2, 4),
    trials: int = 3,
    seed: int = 0,
    schedule: FixedVertexSchedule = None,
    jobs: int = 1,
    policy=None,
    journal=None,
) -> MultiwayStudy:
    """Run the multiway difficulty study on one circuit.

    ``jobs > 1`` fans the independent k-way starts of every trial over a
    process pool; cuts are identical to the serial run and the CPU
    column is per-start ``time.process_time``.  ``policy``/``journal``
    opt into the fault-tolerant runtime (``docs/robustness.md``).
    """
    if not starts_list or sorted(starts_list) != list(starts_list):
        raise ValueError("starts_list must be non-empty and ascending")
    balance = relative_balance(graph.total_area, num_parts, tolerance)
    rng = random.Random(seed)
    if schedule is None:
        schedule = make_schedule(graph, seed=rng.getrandbits(32))
    good_parts, good_cut = _find_good_kway(
        graph, balance, starts_list[-1], rng.getrandbits(32), jobs=jobs,
        policy=policy,
        checkpoint=journal.batch("reference") if journal is not None else None,
    )

    study = MultiwayStudy(
        circuit_name=circuit_name,
        num_parts=num_parts,
        percents=tuple(percents),
        starts_list=tuple(starts_list),
        trials=trials,
        good_cut=good_cut,
    )
    rand_fix_seed = rng.getrandbits(32)
    max_starts = starts_list[-1]

    cuts: Dict[Tuple[str, float, int], List[int]] = {}
    secs: Dict[Tuple[str, float, int], List[float]] = {}
    best_seen: Dict[Tuple[str, float], int] = {}
    for regime in ("good", "rand"):
        for percent in percents:
            fixture = regime_fixture(
                regime,
                schedule,
                percent,
                good_solution=good_parts,
                seed=rand_fix_seed,
            )
            # rand regime spreads vertices over all k blocks.
            if regime == "rand":
                fixture = [
                    f
                    if f == -1
                    else random.Random(
                        f"{rand_fix_seed}:{v}:k"
                    ).randrange(num_parts)
                    for v, f in enumerate(fixture)
                ]
            for trial in range(trials):
                start_seeds = [
                    rng.getrandbits(32) for _ in range(max_starts)
                ]
                batch = kway_multistart(
                    graph,
                    balance,
                    fixture=fixture,
                    num_starts=max_starts,
                    seeds=start_seeds,
                    jobs=jobs,
                    policy=policy,
                    checkpoint=(
                        journal.batch(
                            f"multiway:{regime}:{percent}:trial{trial}"
                        )
                        if journal is not None
                        else None
                    ),
                )
                for starts in starts_list:
                    key = (regime, percent, starts)
                    cuts.setdefault(key, []).append(
                        batch.best_of_first(starts).cut
                    )
                    secs.setdefault(key, []).append(
                        batch.cpu_seconds_of_first(starts)
                    )
                seen_key = (regime, percent)
                best = batch.best().cut
                if seen_key not in best_seen or best < best_seen[seen_key]:
                    best_seen[seen_key] = best

    for regime in ("good", "rand"):
        for percent in percents:
            reference = (
                max(1, good_cut)
                if regime == "good"
                else max(1, best_seen[(regime, percent)])
            )
            for starts in starts_list:
                key = (regime, percent, starts)
                raw = sum(cuts[key]) / len(cuts[key])
                study.points.append(
                    MultiwayPoint(
                        regime=regime,
                        percent=percent,
                        starts=starts,
                        raw_cut=raw,
                        normalized_cut=raw / reference,
                        cpu_seconds=sum(secs[key]) / len(secs[key]),
                    )
                )
    return study


def shape_checks(study: MultiwayStudy) -> List[Tuple[str, bool]]:
    """Does the 2-way story survive at k-way?"""
    one = study.starts_list[0]
    many = study.starts_list[-1]
    lo = min(study.percents)
    hi = max(study.percents)
    checks = []
    rand_raw = dict(
        (p.percent, p.raw_cut)
        for p in study.points
        if p.regime == "rand" and p.starts == one
    )
    checks.append(
        (
            f"k-way rand raw cut grows with fixed% "
            f"({rand_raw[lo]:.0f} -> {rand_raw[hi]:.0f})",
            rand_raw[hi] > 1.5 * max(1.0, rand_raw[lo]),
        )
    )
    for regime in ("good", "rand"):
        gap_lo = (
            study.point(regime, lo, one).normalized_cut
            - study.point(regime, lo, many).normalized_cut
        )
        gap_hi = (
            study.point(regime, hi, one).normalized_cut
            - study.point(regime, hi, many).normalized_cut
        )
        checks.append(
            (
                f"k-way {regime}: multistart gap shrinks "
                f"({gap_lo:.3f} -> {gap_hi:.3f})",
                gap_hi <= gap_lo + 0.15,
            )
        )
        cpu_lo = study.point(regime, lo, one).cpu_seconds
        cpu_hi = study.point(regime, hi, one).cpu_seconds
        checks.append(
            (
                f"k-way {regime}: CPU decreases with fixed% "
                f"({cpu_lo:.3f}s -> {cpu_hi:.3f}s)",
                cpu_hi < cpu_lo,
            )
        )
    return checks


PROFILE_SETTINGS = {
    "full": {"circuit": "ibm01s", "trials": 5, "starts": (1, 2, 4, 8)},
    "quick": {"circuit": "quick01", "trials": 2, "starts": (1, 2, 4)},
}


def run_multiway(
    profile: str = "quick",
    seed: int = 0,
    jobs: int = 1,
    policy=None,
    journal=None,
) -> MultiwayStudy:
    """Run the k-way study at one profile (``repro experiment multiway``)."""
    if profile not in PROFILE_SETTINGS:
        raise KeyError(f"unknown profile {profile!r}")
    settings = PROFILE_SETTINGS[profile]
    circuit = load_circuit(settings["circuit"])
    return run_multiway_study(
        circuit.graph,
        circuit_name=settings["circuit"],
        trials=settings["trials"],
        starts_list=settings["starts"],
        seed=seed,
        jobs=jobs,
        policy=policy,
        journal=journal,
    )
