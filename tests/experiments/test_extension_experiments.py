"""Fast plumbing tests for the extension experiments.

These exercise the harness machinery on tiny inputs; the benchmark
suite runs the real profiles and asserts the shapes.
"""

import pytest

from repro.core.difficulty import (
    DifficultyStudy,
    format_study,
    run_difficulty_study,
)
from repro.experiments.overconstrained import (
    OverconstrainedReport,
)
from repro.experiments.suite_solutions import (
    SolutionTable,
    solve_suite,
)
from repro.hypergraph import CircuitSpec, generate_circuit
from repro.partition.balance import relative_balance
from repro.placement import build_suite


class TestMultiwayHarness:
    """The Section II driver under a 3-way balance (k-way FM engine)."""

    @pytest.fixture(scope="class")
    def study(self):
        circ = generate_circuit(CircuitSpec(num_cells=150), seed=121)
        return run_difficulty_study(
            circ.graph,
            relative_balance(circ.graph.total_area, 3, 0.1),
            circuit_name="m150",
            percents=(0.0, 20.0),
            starts_list=(1, 2),
            trials=2,
            seed=1,
        )

    def test_points_complete(self, study):
        assert isinstance(study, DifficultyStudy)
        assert study.num_parts == 3
        assert len(study.points) == 2 * 2 * 2
        study.point("good", 20.0, 2)
        with pytest.raises(KeyError):
            study.point("good", 50.0, 1)

    def test_more_starts_never_worse(self, study):
        for regime in ("good", "rand"):
            for percent in (0.0, 20.0):
                one = study.point(regime, percent, 1)
                two = study.point(regime, percent, 2)
                assert two.raw_cut <= one.raw_cut + 1e-9

    def test_format(self, study):
        text = format_study(study)
        assert "3-way" in text
        assert "regime: rand" in text

    def test_bad_starts_list(self):
        circ = generate_circuit(CircuitSpec(num_cells=60), seed=122)
        balance = relative_balance(circ.graph.total_area, 3, 0.1)
        with pytest.raises(ValueError):
            run_difficulty_study(circ.graph, balance, starts_list=(2, 1))


class TestOverconstrainedReport:
    def test_bump_math(self):
        report = OverconstrainedReport(
            circuit_name="x",
            percents=(0.0, 5.0, 10.0, 30.0),
            good_cut=100,
            single_start_cuts=[100.0, 130.0, 120.0, 105.0],
        )
        assert report.bump == pytest.approx(25.0)
        assert report.bump_percent == 5.0
        assert "+25.0" in report.format_report()

    def test_negative_bump_formatting(self):
        report = OverconstrainedReport(
            circuit_name="x",
            percents=(0.0, 5.0, 30.0),
            good_cut=100,
            single_start_cuts=[100.0, 90.0, 105.0],
        )
        assert report.bump == pytest.approx(-15.0)
        assert "-15.0" in report.format_report()

    def test_no_interior(self):
        report = OverconstrainedReport(
            circuit_name="x",
            percents=(0.0, 30.0),
            good_cut=10,
            single_start_cuts=[10.0, 12.0],
        )
        assert report.bump == 0.0


class TestSuiteSolutions:
    def test_solve_suite_rows(self):
        circ = generate_circuit(CircuitSpec(num_cells=150), seed=123)
        suite = build_suite(circ, "s150", min_block_cells=8, seed=1)
        table = solve_suite(suite, starts=1, seed=2)
        assert isinstance(table, SolutionTable)
        assert len(table.rows) == len(suite.entries)
        for row in table.rows:
            assert row.best_cut <= row.avg_cut + 1e-9
            assert row.avg_seconds > 0
        text = table.format_table()
        assert "best" in text.splitlines()[1]
