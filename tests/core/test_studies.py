"""Tests for the study harnesses (difficulty, pass stats, cutoff).

These run the real pipelines on very small circuits: they verify the
plumbing (protocol, normalization, pairing, record consistency), not the
paper's shapes -- benchmark runs at realistic sizes do that.
"""

import pytest

from repro.core import (
    make_schedule,
    run_cutoff_study,
    run_difficulty_study,
    run_pass_stats_study,
)
from repro.core.difficulty import format_study
from repro.hypergraph import CircuitSpec, generate_circuit
from repro.partition import relative_bipartition_balance


@pytest.fixture(scope="module")
def instance():
    circ = generate_circuit(CircuitSpec(num_cells=150, name="s150"), seed=91)
    balance = relative_bipartition_balance(circ.graph.total_area, 0.03)
    return circ.graph, balance


class TestDifficultyStudy:
    @pytest.fixture(scope="class")
    def study(self, instance):
        graph, balance = instance
        return run_difficulty_study(
            graph,
            balance,
            circuit_name="s150",
            percents=(0.0, 20.0),
            starts_list=(1, 2),
            trials=2,
            seed=1,
        )

    def test_all_points_present(self, study):
        assert len(study.points) == 2 * 2 * 2  # regimes x percents x starts
        for regime in ("good", "rand"):
            for percent in (0.0, 20.0):
                for starts in (1, 2):
                    study.point(regime, percent, starts)

    def test_missing_point_raises(self, study):
        with pytest.raises(KeyError):
            study.point("good", 7.0, 1)

    def test_more_starts_never_worse(self, study):
        for regime in ("good", "rand"):
            for percent in (0.0, 20.0):
                one = study.point(regime, percent, 1)
                two = study.point(regime, percent, 2)
                assert two.raw_cut <= one.raw_cut + 1e-9
                assert two.cpu_seconds >= one.cpu_seconds

    def test_normalization_references(self, study):
        # good regime: normalized = raw / good_cut everywhere.
        p = study.point("good", 20.0, 1)
        assert p.normalized_cut == pytest.approx(
            p.raw_cut / max(1, study.good_cut)
        )
        # rand regime: normalized against per-instance best seen.
        q = study.point("rand", 20.0, 2)
        ref = study.best_seen[("rand", 20.0)]
        assert q.normalized_cut == pytest.approx(q.raw_cut / max(1, ref))
        assert q.normalized_cut >= 1.0 - 1e-9

    def test_trace_sorted(self, study):
        trace = study.trace("rand", 1, "raw_cut")
        assert [p for p, _ in trace] == [0.0, 20.0]
        with pytest.raises(ValueError):
            study.trace("rand", 1, "nonsense")

    def test_format(self, study):
        text = format_study(study)
        assert "regime: good" in text
        assert "regime: rand" in text

    def test_invalid_starts_list(self, instance):
        graph, balance = instance
        with pytest.raises(ValueError):
            run_difficulty_study(
                graph, balance, starts_list=(4, 2), trials=1
            )


class TestPassStatsStudy:
    def test_rows_and_trend(self, instance):
        graph, balance = instance
        study = run_pass_stats_study(
            graph,
            balance,
            circuit_name="s150",
            percents=(0.0, 30.0),
            runs=5,
            seed=2,
        )
        assert len(study.rows) == 2
        row = study.row(0.0)
        assert row.runs == 5
        assert row.avg_passes_per_run >= 1.0
        assert 0.0 <= row.avg_wasted_percent <= 100.0
        assert 0.0 <= row.avg_best_prefix_percent <= 100.0
        assert [r.percent for r in study.rows] == [0.0, 30.0]
        with pytest.raises(KeyError):
            study.row(50.0)

    def test_rand_regime_supported(self, instance):
        graph, balance = instance
        study = run_pass_stats_study(
            graph,
            balance,
            percents=(10.0,),
            regime="rand",
            runs=3,
            seed=3,
        )
        assert study.regime == "rand"
        assert study.rows[0].avg_final_cut > 0

    def test_format(self, instance):
        graph, balance = instance
        study = run_pass_stats_study(
            graph, balance, percents=(0.0,), runs=2, seed=4
        )
        assert "fixed%" in study.format_table()


class TestCutoffStudy:
    def test_cells_complete_and_paired(self, instance):
        graph, balance = instance
        study = run_cutoff_study(
            graph,
            balance,
            circuit_name="s150",
            percents=(0.0, 20.0),
            cutoffs=(1.0, 0.1),
            runs=4,
            seed=5,
        )
        assert len(study.cells) == 4
        for percent in (0.0, 20.0):
            baseline = study.cell(percent, 1.0)
            tight = study.cell(percent, 0.1)
            assert tight.avg_moves <= baseline.avg_moves
        with pytest.raises(KeyError):
            study.cell(0.0, 0.5)

    def test_format(self, instance):
        graph, balance = instance
        study = run_cutoff_study(
            graph,
            balance,
            percents=(0.0,),
            cutoffs=(1.0, 0.25),
            runs=2,
            seed=6,
        )
        text = study.format_table()
        assert "no cutoff" in text
        assert "25% moves" in text
