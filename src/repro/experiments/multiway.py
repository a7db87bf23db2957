"""Extension experiment: is multiway partitioning as affected by fixed
terminals?

Section V, open question 1: "determining whether multiway partitioning
is as affected by fixed terminals".  This experiment runs the Section
II driver, :func:`repro.core.difficulty.run_difficulty_study`, under a
4-way balance, so the direct k-way FM engine partitions: fix growing
fractions of vertices either consistently with a good free 4-way
solution or at random, run 1..N starts, and examine whether the
multistart gap collapses and runtime falls just as in the 2-way case.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.difficulty import DifficultyStudy, run_difficulty_study
from repro.experiments.circuits import load_circuit
from repro.partition.balance import relative_balance


def shape_checks(study: DifficultyStudy) -> List[Tuple[str, bool]]:
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
) -> DifficultyStudy:
    """Run the k-way study at one profile (``repro experiment multiway``).

    ``jobs > 1`` fans the independent k-way starts of every trial over a
    process pool; cuts are identical to the serial run and the CPU
    column is per-start ``time.process_time``.  ``policy``/``journal``
    opt into the fault-tolerant runtime (``docs/robustness.md``).
    """
    if profile not in PROFILE_SETTINGS:
        raise KeyError(f"unknown profile {profile!r}")
    settings = PROFILE_SETTINGS[profile]
    graph = load_circuit(settings["circuit"]).graph
    starts = settings["starts"]
    return run_difficulty_study(
        graph,
        relative_balance(graph.total_area, 4, 0.1),
        circuit_name=settings["circuit"],
        percents=(0.0, 5.0, 20.0, 40.0),
        starts_list=starts,
        trials=settings["trials"],
        seed=seed,
        reference_starts=starts[-1],
        jobs=jobs,
        policy=policy,
        journal=journal,
    )
