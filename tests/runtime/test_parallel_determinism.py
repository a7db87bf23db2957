"""The determinism contract: ``jobs=N`` reproduces ``jobs=1`` exactly.

This is the acceptance test of the parallel runtime -- cuts AND parts
of every start must be bit-identical between pool sizes, for both
engine multistart drivers and through the difficulty harness.
"""

import pytest

from repro.partition import (
    FMConfig,
    flat_fm_multistart,
    kway_multistart,
    multilevel_multistart,
    relative_balance,
)


def _assert_identical(serial, parallel):
    assert serial.num_starts == parallel.num_starts
    for s, p in zip(serial.starts, parallel.starts):
        assert s.cut == p.cut
        assert s.parts == p.parts


class TestMultistartDeterminism:
    def test_multilevel_jobs2_matches_serial(self, tiny_circuit, tiny_balance):
        kwargs = dict(num_starts=4, seed=123)
        serial = multilevel_multistart(
            tiny_circuit.graph, tiny_balance, jobs=1, **kwargs
        )
        parallel = multilevel_multistart(
            tiny_circuit.graph, tiny_balance, jobs=2, **kwargs
        )
        _assert_identical(serial, parallel)

    def test_multilevel_with_fixture(self, tiny_circuit, tiny_balance):
        fixture = [-1] * tiny_circuit.graph.num_vertices
        for pad in tiny_circuit.pad_vertices[:20]:
            fixture[pad] = pad % 2
        kwargs = dict(fixture=fixture, num_starts=3, seed=5)
        serial = multilevel_multistart(
            tiny_circuit.graph, tiny_balance, jobs=1, **kwargs
        )
        parallel = multilevel_multistart(
            tiny_circuit.graph, tiny_balance, jobs=3, **kwargs
        )
        _assert_identical(serial, parallel)

    def test_flat_fm_jobs2_matches_serial(self, tiny_circuit, tiny_balance):
        kwargs = dict(
            config=FMConfig(policy="clip"), num_starts=4, seed=99
        )
        serial = flat_fm_multistart(
            tiny_circuit.graph, tiny_balance, jobs=1, **kwargs
        )
        parallel = flat_fm_multistart(
            tiny_circuit.graph, tiny_balance, jobs=2, **kwargs
        )
        _assert_identical(serial, parallel)

    def test_kway_jobs2_matches_serial(self, tiny_circuit):
        balance = relative_balance(tiny_circuit.graph.total_area, 4, 0.1)
        kwargs = dict(num_starts=4, seed=11)
        serial = kway_multistart(
            tiny_circuit.graph, balance, jobs=1, **kwargs
        )
        parallel = kway_multistart(
            tiny_circuit.graph, balance, jobs=2, **kwargs
        )
        _assert_identical(serial, parallel)

    def test_explicit_seeds_override(self, tiny_circuit, tiny_balance):
        seeds = [100, 200, 300]
        serial = multilevel_multistart(
            tiny_circuit.graph, tiny_balance,
            num_starts=3, seeds=seeds, jobs=1,
        )
        parallel = multilevel_multistart(
            tiny_circuit.graph, tiny_balance,
            num_starts=3, seeds=seeds, jobs=2,
        )
        _assert_identical(serial, parallel)
        with pytest.raises(ValueError):
            multilevel_multistart(
                tiny_circuit.graph, tiny_balance, num_starts=2, seeds=seeds
            )

    def test_cpu_seconds_recorded(self, tiny_circuit, tiny_balance):
        batch = multilevel_multistart(
            tiny_circuit.graph, tiny_balance, num_starts=2, seed=0
        )
        assert all(s.cpu_seconds >= 0.0 for s in batch.starts)
        assert batch.total_cpu_seconds() == pytest.approx(
            batch.cpu_seconds_of_first(2)
        )


class TestHarnessDeterminism:
    @pytest.mark.parametrize("num_parts", [2, 4], ids=["2-way", "4-way"])
    def test_difficulty_study_jobs_invariant(
        self, tiny_circuit, tiny_balance, num_parts
    ):
        from repro.core.difficulty import run_difficulty_study

        balance = tiny_balance
        if num_parts > 2:
            balance = relative_balance(
                tiny_circuit.graph.total_area, num_parts, 0.1
            )
        kwargs = dict(
            percents=(0.0, 20.0),
            starts_list=(1, 2),
            trials=1,
            seed=3,
        )
        serial = run_difficulty_study(
            tiny_circuit.graph, balance, jobs=1, **kwargs
        )
        parallel = run_difficulty_study(
            tiny_circuit.graph, balance, jobs=2, **kwargs
        )
        assert serial.num_parts == num_parts
        assert serial.good_cut == parallel.good_cut
        for s, p in zip(serial.points, parallel.points):
            assert (s.regime, s.percent, s.starts) == (
                p.regime, p.percent, p.starts
            )
            assert s.raw_cut == p.raw_cut
            assert s.normalized_cut == p.normalized_cut

    def test_pass_stats_jobs_invariant(self, grid8x8):
        from repro.core.pass_stats import run_pass_stats_study
        from repro.partition import relative_bipartition_balance

        balance = relative_bipartition_balance(grid8x8.total_area, 0.1)
        kwargs = dict(
            percents=(0.0, 20.0), regime="rand", runs=4, seed=17
        )
        serial = run_pass_stats_study(grid8x8, balance, jobs=1, **kwargs)
        parallel = run_pass_stats_study(grid8x8, balance, jobs=2, **kwargs)
        for s, p in zip(serial.rows, parallel.rows):
            assert s.percent == p.percent
            assert s.avg_passes_per_run == p.avg_passes_per_run
            assert s.avg_final_cut == p.avg_final_cut
            assert s.avg_wasted_percent == p.avg_wasted_percent

    def test_cutoff_study_jobs_invariant(self, grid8x8):
        from repro.core.cutoff import run_cutoff_study
        from repro.partition import relative_bipartition_balance

        balance = relative_bipartition_balance(grid8x8.total_area, 0.1)
        kwargs = dict(
            percents=(0.0, 20.0),
            cutoffs=(1.0, 0.25),
            regime="rand",
            runs=3,
            seed=23,
        )
        serial = run_cutoff_study(grid8x8, balance, jobs=1, **kwargs)
        parallel = run_cutoff_study(grid8x8, balance, jobs=2, **kwargs)
        for s, p in zip(serial.cells, parallel.cells):
            assert (s.percent, s.cutoff) == (p.percent, p.cutoff)
            assert s.avg_cut == p.avg_cut
            assert s.avg_moves == p.avg_moves
