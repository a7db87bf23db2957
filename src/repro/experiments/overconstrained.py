"""Extension experiment: confirming relatively overconstrained instances.

Section II observes that solution quality in the *good* regime is
non-monotonic in the fixed percentage, and conjectures "relatively
overconstrained instances where the inflexibility of the instance hurts
the ability of the partitioner to find trajectories to good solutions
more than it helps by reducing the solution space"; Section V lists
confirming this among the open problems.

The probe: in the good regime every fixture percentage is *consistent*
with the same reference solution, so the optimal reachable cut can only
improve or stay equal as the percentage grows -- "any solution for the
cases of 20% or 0% fixed is also feasible for the case of 10% fixed"
(note the nesting is by solution sets, not by instances).  If the
partitioner's *achieved* single-start cut is worse at an intermediate
percentage than at both 0% and a high percentage, the instance was
relatively overconstrained: the search, not the solution space, was
hurt.  We measure the achieved-cut curve on a fine percentage grid and
report the bump.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.core.difficulty import run_difficulty_study
from repro.experiments.circuits import load_instance


@dataclass
class OverconstrainedReport:
    """Achieved single-start cut against the fixed percentage."""

    circuit_name: str
    percents: Sequence[float]
    good_cut: int
    single_start_cuts: List[float] = field(default_factory=list)

    @property
    def bump(self) -> float:
        """How much worse the worst interior point is than the curve's
        endpoints (positive = overconstrained region observed)."""
        ends = max(self.single_start_cuts[0], self.single_start_cuts[-1])
        interior = max(self.single_start_cuts[1:-1], default=ends)
        return interior - ends

    @property
    def bump_percent(self) -> float:
        """Location of the worst interior point."""
        interior = self.single_start_cuts[1:-1]
        if not interior:
            return self.percents[0]
        worst = max(range(len(interior)), key=lambda i: interior[i])
        return self.percents[1 + worst]

    def format_report(self) -> str:
        """Text rendering."""
        lines = [
            f"Overconstrained-instances probe: {self.circuit_name} "
            f"(good regime, 1 start, good cut = {self.good_cut})",
            f"{'fixed%':>7s} {'avg cut@1 start':>16s}",
        ]
        for percent, cut in zip(self.percents, self.single_start_cuts):
            lines.append(f"{percent:>7.1f} {cut:>16.1f}")
        lines.append(
            f"interior bump: {self.bump:+.1f} cut at "
            f"{self.bump_percent:.0f}% fixed"
        )
        return "\n".join(lines)


PROFILE_SETTINGS = {
    "full": {
        "circuit": "ibm01s",
        "percents": (0.0, 2.0, 5.0, 7.5, 10.0, 15.0, 20.0, 30.0),
        "trials": 10,
    },
    "quick": {
        "circuit": "quick01",
        "percents": (0.0, 5.0, 10.0, 30.0),
        "trials": 4,
    },
}


def run_overconstrained(
    profile: str = "quick", seed: int = 0, jobs: int = 1
) -> OverconstrainedReport:
    """Measure the good-regime single-start cut curve.

    ``jobs`` worker processes run the study's starts; the curve is the
    same at every ``jobs`` value.
    """
    if profile not in PROFILE_SETTINGS:
        raise KeyError(f"unknown profile {profile!r}")
    settings = PROFILE_SETTINGS[profile]
    circuit, balance = load_instance(settings["circuit"])
    study = run_difficulty_study(
        circuit.graph,
        balance,
        circuit_name=settings["circuit"],
        percents=settings["percents"],
        starts_list=(1,),
        trials=settings["trials"],
        seed=seed,
        regimes=("good",),
        jobs=jobs,
    )
    cuts = [
        study.point("good", percent, 1).raw_cut
        for percent in settings["percents"]
    ]
    return OverconstrainedReport(
        circuit_name=settings["circuit"],
        percents=settings["percents"],
        good_cut=study.good_cut,
        single_start_cuts=cuts,
    )


def shape_checks(
    report: OverconstrainedReport,
) -> List[Tuple[str, bool]]:
    """What the probe must (and may) show."""
    checks = [
        (
            "curve endpoints are sane (achieved cut within 4x of the "
            "good cut at 0% and the top percentage)",
            max(report.single_start_cuts[0], report.single_start_cuts[-1])
            <= 4.0 * max(1, report.good_cut),
        ),
        # The bump itself is the phenomenon under study; it appears on
        # most seeds/circuits but is not guaranteed, so it is reported,
        # not gated: the check only asserts a well-formed curve.
        (
            f"curve covers every percentage; interior bump reported, "
            f"not gated: {report.bump:+.1f} cut at "
            f"{report.bump_percent:.0f}% fixed "
            "(positive confirms an overconstrained region)",
            len(report.single_start_cuts) == len(report.percents),
        ),
    ]
    return checks
