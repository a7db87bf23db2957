"""Unit tests for the executable shape checks (on synthetic studies).

The shape checks encode the paper's claims; these tests pin down what
each check accepts and rejects using hand-built study objects, so a
regression in the checks themselves cannot silently pass bad data.
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core.cutoff import CutoffCell, CutoffStudy
from repro.core.difficulty import DifficultyPoint, DifficultyStudy
from repro.core.pass_stats import PassStatsRow, PassStatsStudy
from repro.experiments.ablations import Ablations
from repro.experiments.ablations import shape_checks as ablation_checks
from repro.experiments.figures import shape_checks as figure_checks
from repro.experiments.multiway import shape_checks as multiway_checks
from repro.experiments.overconstrained import OverconstrainedReport
from repro.experiments.overconstrained import (
    shape_checks as overconstrained_checks,
)
from repro.experiments.suite_solutions import SolutionRow, SolutionTable
from repro.experiments.suite_solutions import shape_checks as suite_checks
from repro.experiments.table2 import shape_checks as table2_checks
from repro.experiments.table3 import shape_checks as table3_checks
from repro.experiments.table4 import shape_checks as table4_checks
from repro.placement.suite import BenchmarkSuite


def build_difficulty_study(rand_growth=6.0, gaps=(0.2, 0.05), cpu=(0.5, 0.1)):
    """A two-percent, two-start study with controllable shapes."""
    study = DifficultyStudy(
        circuit_name="synthetic",
        num_parts=2,
        percents=(0.0, 40.0),
        starts_list=(1, 4),
        trials=3,
        good_cut=100,
    )
    base = 120.0
    # Normalization references mirror the real harness: the good
    # regime shares the good cut; each rand percentage has its own
    # per-instance best.
    references = {
        ("good", 0.0): 100.0,
        ("good", 40.0): 100.0,
        ("rand", 0.0): 100.0,
        ("rand", 40.0): base * rand_growth / 1.1,
    }

    def add(regime, percent, starts, raw, cpu_s):
        study.points.append(
            DifficultyPoint(
                regime=regime,
                percent=percent,
                starts=starts,
                raw_cut=raw,
                normalized_cut=raw / references[(regime, percent)],
                cpu_seconds=cpu_s,
            )
        )

    # good regime: norm gap at 0% = gaps[0], at 40% = gaps[1].
    add("good", 0.0, 1, base, cpu[0])
    add("good", 0.0, 4, base - 100.0 * gaps[0], cpu[0] * 4)
    add("good", 40.0, 1, 105.0, cpu[1])
    add("good", 40.0, 4, 105.0 - 100.0 * gaps[1], cpu[1] * 4)
    # rand regime: raw grows by rand_growth.
    ref40 = references[("rand", 40.0)]
    add("rand", 0.0, 1, base, cpu[0])
    add("rand", 0.0, 4, base - 100.0 * gaps[0], cpu[0] * 4)
    add("rand", 40.0, 1, ref40 * (1.0 + gaps[1]), cpu[1])
    add("rand", 40.0, 4, ref40, cpu[1] * 4)
    study.best_seen = {
        key: int(value) for key, value in references.items()
    }
    return study


class TestFigureChecks:
    def test_healthy_study_passes(self):
        study = build_difficulty_study()
        assert all(ok for _, ok in figure_checks(study))

    def test_flat_rand_growth_fails(self):
        study = build_difficulty_study(rand_growth=1.2)
        labels = {
            label: ok for label, ok in figure_checks(study)
        }
        growth = next(
            ok for label, ok in labels.items() if "raw cut grows" in label
        )
        assert not growth

    def test_widening_gap_fails(self):
        study = build_difficulty_study(gaps=(0.05, 0.5))
        failing = [
            label
            for label, ok in figure_checks(study)
            if "gap shrinks" in label and not ok
        ]
        assert failing

    def test_rising_cpu_fails(self):
        study = build_difficulty_study(cpu=(0.1, 0.5))
        failing = [
            label
            for label, ok in figure_checks(study)
            if "CPU decreases" in label and not ok
        ]
        assert len(failing) == 2


def build_pass_stats(wasted=(80.0, 98.0), prefix=(20.0, 2.0)):
    study = PassStatsStudy(circuit_name="synthetic", regime="good")
    for i, percent in enumerate((0.0, 30.0)):
        study.rows.append(
            PassStatsRow(
                percent=percent,
                runs=10,
                avg_passes_per_run=5.0 - i,
                avg_moved_percent=99.0,
                avg_best_prefix_percent=prefix[i],
                avg_wasted_percent=wasted[i],
                avg_final_cut=100.0,
            )
        )
    return study


class TestTable2Checks:
    def test_healthy_passes(self):
        study = build_pass_stats()
        assert all(ok for _, ok in table2_checks(study))

    def test_shrinking_waste_fails(self):
        study = build_pass_stats(wasted=(98.0, 80.0))
        failing = [
            label
            for label, ok in table2_checks(study)
            if "wasted" in label and not ok
        ]
        assert failing

    def test_prefix_moving_late_fails(self):
        study = build_pass_stats(prefix=(2.0, 20.0))
        failing = [
            label
            for label, ok in table2_checks(study)
            if "best prefix" in label and not ok
        ]
        assert failing

    def test_row_lookup_error(self):
        study = build_pass_stats()
        with pytest.raises(KeyError):
            study.row(77.0)


def _failing(checks, fragment):
    """Labels of the failing checks whose label contains ``fragment``."""
    return [label for label, ok in checks if fragment in label and not ok]


def build_ablations(**changes):
    """The quick01 ablation numbers, with ``changes`` applied."""
    report = Ablations(
        circuit_name="synthetic",
        policy_cuts={"lifo": 113, "fifo": 117, "clip": 112},
        vcycle_cuts={0: 122, 1: 121},
        vcycle_passes={0: 86, 1: 101},
        matching_cuts={"heavy": 121.2, "random": 118.2},
        seeding_reference=117,
        seeding_cuts={"seeded": 119.2, "random-only": 120.5},
        original_cut=436,
        clustered_cut=418,
        lifted_cut=418,
        pad_percent=6.8,
        pad_cuts={"pads": 119.0, "random": 120.0},
    )
    return replace(report, **changes)


class TestAblationChecks:
    def test_healthy_passes(self):
        assert all(ok for _, ok in ablation_checks(build_ablations()))

    @pytest.mark.parametrize(
        "changes, fragment",
        [
            ({"policy_cuts": {"lifo": 240, "fifo": 250, "clip": 112}},
             "LIFO and CLIP"),
            ({"policy_cuts": {"lifo": 113, "fifo": 100, "clip": 112}},
             "FIFO"),
            ({"vcycle_passes": {0: 86, 1: 86}}, "extra FM passes"),
            ({"vcycle_cuts": {0: 122, 1: 80}}, "marginal cut gain"),
            ({"matching_cuts": {"heavy": 140.0, "random": 118.2}},
             "heavy-edge"),
            ({"seeding_cuts": {"seeded": 125.0, "random-only": 120.5}},
             "terminal-seeded"),
            ({"lifted_cut": 419}, "lifting"),
            ({"clustered_cut": 600, "lifted_cut": 600}, "just as easy"),
            ({"original_cut": 600}, "just as easy"),
            ({"pad_cuts": {"pads": 119.0, "random": 200.0}}, "pads"),
        ],
    )
    def test_broken_claim_fails(self, changes, fragment):
        checks = ablation_checks(build_ablations(**changes))
        assert len(_failing(checks, fragment)) == 1
        assert sum(not ok for _, ok in checks) == 1


def build_cutoff_study(changes=None):
    """Table III with an uncut and a 10% column at 0% and 30% fixed.

    ``changes`` maps ``(percent, cutoff)`` to the cell fields to
    override."""
    changes = changes or {}
    healthy = {
        (0.0, 1.0): dict(avg_cut=100.0, seconds=1.0, avg_moves=1000.0),
        (0.0, 0.1): dict(avg_cut=130.0, seconds=0.5, avg_moves=300.0),
        (30.0, 1.0): dict(avg_cut=100.0, seconds=1.0, avg_moves=800.0),
        (30.0, 0.1): dict(avg_cut=102.0, seconds=0.5, avg_moves=250.0),
    }
    study = CutoffStudy(
        circuit_name="synthetic",
        regime="good",
        cutoffs=(1.0, 0.1),
        percents=(0.0, 30.0),
    )
    for (percent, cutoff), fields in healthy.items():
        seconds = fields.pop("seconds")
        fields = {
            "avg_seconds": seconds,
            "avg_cpu_seconds": seconds,
            **fields,
            **changes.get((percent, cutoff), {}),
        }
        study.cells.append(CutoffCell(percent=percent, cutoff=cutoff, **fields))
    return study


class TestTable3Checks:
    def test_healthy_passes(self):
        assert all(ok for _, ok in table3_checks(build_cutoff_study()))

    @pytest.mark.parametrize(
        "changes, fragment",
        [
            ({(0.0, 0.1): {"avg_cut": 105.0}}, "degrades cut"),
            ({(30.0, 0.1): {"avg_cut": 140.0}}, "much safer"),
            ({(30.0, 0.1): {"avg_cpu_seconds": 1.5}}, "reduce runtime"),
            ({(0.0, 0.1): {"avg_moves": 1200.0}}, "total moves"),
        ],
    )
    def test_broken_claim_fails(self, changes, fragment):
        checks = table3_checks(build_cutoff_study(changes))
        assert len(_failing(checks, fragment)) == 1
        assert sum(not ok for _, ok in checks) == 1

    def test_runtime_check_ignores_the_wall_clock(self):
        # The runtime claim reads the CPU column the table prints; the
        # wall clock of a run this short flips under load.
        changes = {(30.0, 0.1): {"avg_seconds": 1.5}}
        assert all(ok for _, ok in table3_checks(build_cutoff_study(changes)))


def build_suite_standin(changes=None):
    """One stand-in Table IV suite: a level-1 and a level-2 instance.

    ``changes`` maps an instance name to the fields to override
    (``cells``, ``terminals``, ``external``, ``fixed``)."""
    changes = changes or {}
    healthy = {
        "synthetic_L1": dict(cells=1000, terminals=200, external=200),
        "synthetic_L2": dict(cells=200, terminals=100, external=100),
    }
    entries = []
    for level, (name, fields) in enumerate(healthy.items(), start=1):
        fields = {**fields, **changes.get(name, {})}
        entries.append(
            SimpleNamespace(
                path=(0,) * level,
                instance=SimpleNamespace(
                    name=name,
                    num_fixed=fields.get("fixed", fields["terminals"]),
                ),
                parameters=SimpleNamespace(
                    num_cells=fields["cells"],
                    num_terminals=fields["terminals"],
                    num_external_nets=fields["external"],
                ),
            )
        )
    return [
        BenchmarkSuite(circuit_name="synthetic", placement=None, entries=entries)
    ]


class TestTable4Checks:
    def test_healthy_passes(self):
        assert all(ok for _, ok in table4_checks(build_suite_standin()))

    @pytest.mark.parametrize(
        "changes, fragment",
        [
            ({"synthetic_L2": {"terminals": 450}}, "pad vertices"),
            ({"synthetic_L2": {"cells": 1000}}, "block depth"),
            (
                {"synthetic_L2": {"terminals": 300, "external": 300}},
                "synthetic_L2: external nets",
            ),
            ({"synthetic_L1": {"fixed": 199}}, "exactly the terminals"),
        ],
    )
    def test_broken_claim_fails(self, changes, fragment):
        checks = table4_checks(build_suite_standin(changes))
        assert len(_failing(checks, fragment)) == 1
        assert sum(not ok for _, ok in checks) == 1


def build_multiway(rand_raw=(100.0, 300.0), gaps=(0.2, 0.05), cpu=(0.5, 0.1)):
    """A two-percent, two-start k-way study with controllable shapes."""
    study = DifficultyStudy(
        circuit_name="synthetic",
        num_parts=4,
        percents=(0.0, 40.0),
        starts_list=(1, 4),
        trials=2,
        good_cut=100,
    )
    for regime in ("good", "rand"):
        for i, percent in enumerate(study.percents):
            raw = rand_raw[i] if regime == "rand" else 100.0
            for starts, norm in ((1, 1.0 + gaps[i]), (4, 1.0)):
                study.points.append(
                    DifficultyPoint(
                        regime=regime,
                        percent=percent,
                        starts=starts,
                        raw_cut=raw,
                        normalized_cut=norm,
                        cpu_seconds=cpu[i] * starts,
                    )
                )
    return study


class TestMultiwayChecks:
    def test_healthy_passes(self):
        assert all(ok for _, ok in multiway_checks(build_multiway()))

    def test_flat_rand_growth_fails(self):
        checks = multiway_checks(build_multiway(rand_raw=(100.0, 140.0)))
        assert _failing(checks, "raw cut grows")

    def test_widening_gap_fails(self):
        checks = multiway_checks(build_multiway(gaps=(0.05, 0.5)))
        assert len(_failing(checks, "gap shrinks")) == 2

    def test_rising_cpu_fails(self):
        checks = multiway_checks(build_multiway(cpu=(0.1, 0.5)))
        assert len(_failing(checks, "CPU decreases")) == 2


def build_overconstrained(cuts=(120.0, 130.0, 118.0)):
    return OverconstrainedReport(
        circuit_name="synthetic",
        percents=(0.0, 10.0, 40.0),
        good_cut=115,
        single_start_cuts=list(cuts),
    )


class TestOverconstrainedChecks:
    def test_healthy_passes(self):
        checks = overconstrained_checks(build_overconstrained())
        assert all(ok for _, ok in checks)

    def test_insane_endpoint_fails(self):
        report = build_overconstrained(cuts=(120.0, 130.0, 500.0))
        assert _failing(overconstrained_checks(report), "endpoints")

    def test_short_curve_fails(self):
        report = build_overconstrained(cuts=(120.0, 118.0))
        assert _failing(overconstrained_checks(report), "bump reported")


def build_solutions(best=60, avg=63.5, free=38):
    table = SolutionTable(circuit_name="synthetic", starts=4)
    table.rows.append(
        SolutionRow(
            name="syntheticD_L3_V",
            num_cells=110,
            num_terminals=183,
            best_cut=best,
            avg_cut=avg,
            avg_seconds=0.1,
            free_cut=free,
        )
    )
    return [table]


class TestSuiteSolutionChecks:
    def test_healthy_passes(self):
        assert all(ok for _, ok in suite_checks(build_solutions()))

    def test_best_above_average_fails(self):
        checks = suite_checks(build_solutions(best=70, avg=63.5))
        assert _failing(checks, "best <= avg")

    def test_fixed_cut_below_free_cut_fails(self):
        checks = suite_checks(build_solutions(best=30, avg=31.0, free=38))
        assert _failing(checks, "free cut")
