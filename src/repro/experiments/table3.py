"""Experiment: Table III -- effects of pass cutoffs on LIFO-FM.

Reproduces "effects of cutting off all passes (after the first pass) at
the given move limit during LIFO-FM partitioning ... data is expressed
as average cut (average CPU time)": cutoffs at 50/25/10/5% of the moves
against the uncut baseline, across fixed percentages.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.cutoff import PAPER_CUTOFFS, CutoffStudy, run_cutoff_study
from repro.experiments.circuits import load_instance

PERCENTS = (0.0, 10.0, 20.0, 30.0)

PROFILE_SETTINGS = {
    "full": {
        "circuits": ("ibm01s", "ibm03s"),
        "runs": 20,
        "cutoffs": PAPER_CUTOFFS,
    },
    "quick": {
        "circuits": ("quick01",),
        "runs": 6,
        "cutoffs": (1.0, 0.25, 0.05),
    },
}


def run_table3(
    profile: str = "quick",
    seed: int = 0,
    jobs: int = 1,
    policy=None,
    journal=None,
) -> Dict[str, CutoffStudy]:
    """Run the cutoff study for the profile's circuits.

    ``policy``/``journal`` opt into the fault-tolerant runtime; each
    circuit gets its own journal namespace.
    """
    if profile not in PROFILE_SETTINGS:
        raise KeyError(f"unknown profile {profile!r}")
    settings = PROFILE_SETTINGS[profile]
    studies = {}
    for name in settings["circuits"]:
        circuit, balance = load_instance(name)
        studies[name] = run_cutoff_study(
            circuit.graph,
            balance,
            circuit_name=name,
            percents=PERCENTS,
            cutoffs=settings["cutoffs"],
            runs=settings["runs"],
            seed=seed,
            jobs=jobs,
            policy=policy,
            journal=journal.namespace(name) if journal is not None else None,
        )
    return studies


def shape_checks(study: CutoffStudy) -> List[Tuple[str, bool]]:
    """The paper's qualitative claims about Table III."""
    name = study.circuit_name
    baseline = max(study.cutoffs)
    tightest = min(study.cutoffs)
    lo_pct = min(study.percents)
    hi_pct = max(study.percents)

    base_lo = study.cell(lo_pct, baseline)
    tight_lo = study.cell(lo_pct, tightest)
    base_hi = study.cell(hi_pct, baseline)
    tight_hi = study.cell(hi_pct, tightest)

    degradation_lo = tight_lo.avg_cut / max(1.0, base_lo.avg_cut)
    degradation_hi = tight_hi.avg_cut / max(1.0, base_hi.avg_cut)

    checks = [
        (
            f"{name}: tight cutoff degrades cut without terminals "
            f"(x{degradation_lo:.2f} at {lo_pct:.0f}% fixed)",
            degradation_lo > 1.10,
        ),
        (
            f"{name}: cutoff is much safer with terminals "
            f"(x{degradation_hi:.2f} at {hi_pct:.0f}% vs "
            f"x{degradation_lo:.2f} at {lo_pct:.0f}%)",
            degradation_hi < degradation_lo,
        ),
        # CPU seconds, the column the table prints and the paper reports:
        # wall clock of runs this short flips under load.
        (
            f"{name}: cutoffs always reduce runtime "
            f"({base_hi.avg_cpu_seconds:.3f}s -> "
            f"{tight_hi.avg_cpu_seconds:.3f}s)",
            all(
                study.cell(p, tightest).avg_cpu_seconds
                < study.cell(p, baseline).avg_cpu_seconds
                for p in study.percents
            ),
        ),
        (
            f"{name}: cutoffs reduce total moves monotonically",
            all(
                study.cell(p, c1).avg_moves >= study.cell(p, c2).avg_moves
                for p in study.percents
                for c1, c2 in zip(
                    sorted(study.cutoffs, reverse=True),
                    sorted(study.cutoffs, reverse=True)[1:],
                )
            ),
        ),
    ]
    return checks
