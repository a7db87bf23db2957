"""Experiment: Table II -- LIFO-FM pass statistics vs fixed terminals.

Reproduces "average number of passes per run and average percentage of
nodes moved per pass (excluding the first pass), for 50 runs of
LIFO-FM" -- extended with the best-prefix position and wasted-move
percentage that carry the paper's actual conclusion ("increasingly
higher percentages of the moves in the FM passes are wasted as the
proportion of fixed terminals increases").
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.pass_stats import PassStatsStudy, run_pass_stats_study
from repro.experiments.circuits import load_instance

PERCENTS = (0.0, 10.0, 20.0, 30.0)

PROFILE_SETTINGS = {
    "full": {"circuits": ("ibm01s", "ibm03s"), "runs": 50},
    "quick": {"circuits": ("quick01",), "runs": 10},
}


def run_table2(
    profile: str = "quick",
    seed: int = 0,
    jobs: int = 1,
    policy=None,
    journal=None,
) -> Dict[str, PassStatsStudy]:
    """Run the pass-statistics study for the profile's circuits.

    ``policy``/``journal`` opt into the fault-tolerant runtime; each
    circuit gets its own journal namespace so the shared journal file
    cannot mix their cells.
    """
    if profile not in PROFILE_SETTINGS:
        raise KeyError(f"unknown profile {profile!r}")
    settings = PROFILE_SETTINGS[profile]
    studies = {}
    for name in settings["circuits"]:
        circuit, balance = load_instance(name)
        studies[name] = run_pass_stats_study(
            circuit.graph,
            balance,
            circuit_name=name,
            percents=PERCENTS,
            runs=settings["runs"],
            seed=seed,
            jobs=jobs,
            policy=policy,
            journal=journal.namespace(name) if journal is not None else None,
        )
    return studies


def shape_checks(study: PassStatsStudy) -> List[Tuple[str, bool]]:
    """The paper's qualitative claims about Table II."""
    rows = sorted(study.rows, key=lambda r: r.percent)
    lo, hi = rows[0], rows[-1]
    checks = [
        (
            f"{study.circuit_name}: wasted-move% grows with fixed% "
            f"({lo.avg_wasted_percent:.1f} -> {hi.avg_wasted_percent:.1f})",
            hi.avg_wasted_percent > lo.avg_wasted_percent,
        ),
        (
            f"{study.circuit_name}: best prefix moves toward pass start "
            f"({lo.avg_best_prefix_percent:.1f}% -> "
            f"{hi.avg_best_prefix_percent:.1f}%)",
            hi.avg_best_prefix_percent < lo.avg_best_prefix_percent,
        ),
        (
            f"{study.circuit_name}: most of every pass is moved "
            "(full passes, classic FM)",
            all(r.avg_moved_percent > 50.0 for r in rows),
        ),
        (
            f"{study.circuit_name}: passes per run stays moderate",
            all(1.0 <= r.avg_passes_per_run <= 30.0 for r in rows),
        ),
    ]
    return checks
