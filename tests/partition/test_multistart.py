"""Unit tests for the multistart driver."""

import pytest

from repro.hypergraph import chain_hypergraph
from repro.partition import (
    Bipartition,
    FMConfig,
    cut_size,
    flat_fm_multistart,
    multilevel_multistart,
    relative_bipartition_balance,
    run_multistart,
)


class TestRunMultistart:
    def _runner(self, graph):
        def run_one(seed):
            parts = [(seed >> v) & 1 for v in range(graph.num_vertices)]
            return Bipartition(parts=parts, cut=cut_size(graph, parts))

        return run_one

    def test_counts_and_order(self, chain20):
        result = run_multistart(self._runner(chain20), 5, seed=1)
        assert result.num_starts == 5

    def test_deterministic(self, chain20):
        a = run_multistart(self._runner(chain20), 4, seed=9)
        b = run_multistart(self._runner(chain20), 4, seed=9)
        assert [s.cut for s in a.starts] == [s.cut for s in b.starts]

    def test_best_of_prefix_monotone(self, chain20):
        result = run_multistart(self._runner(chain20), 8, seed=2)
        cuts = [result.best_of_first(n).cut for n in range(1, 9)]
        assert cuts == sorted(cuts, reverse=True) or all(
            cuts[i] >= cuts[i + 1] for i in range(len(cuts) - 1)
        )

    def test_best_is_minimum(self, chain20):
        result = run_multistart(self._runner(chain20), 6, seed=3)
        assert result.best().cut == min(s.cut for s in result.starts)

    def test_prefix_bounds(self, chain20):
        result = run_multistart(self._runner(chain20), 3, seed=4)
        with pytest.raises(ValueError):
            result.best_of_first(0)
        with pytest.raises(ValueError):
            result.best_of_first(4)
        with pytest.raises(ValueError):
            result.cpu_seconds_of_first(9)

    def test_times_accumulate(self, chain20):
        result = run_multistart(self._runner(chain20), 4, seed=5)
        assert result.total_cpu_seconds() == pytest.approx(
            result.cpu_seconds_of_first(4)
        )
        assert result.cpu_seconds_of_first(2) <= result.total_cpu_seconds()

    def test_zero_starts_rejected(self, chain20):
        with pytest.raises(ValueError):
            run_multistart(self._runner(chain20), 0)


class TestEngineMultistarts:
    def test_multilevel_multistart(self, tiny_circuit, tiny_balance):
        result = multilevel_multistart(
            tiny_circuit.graph, tiny_balance, num_starts=3, seed=1
        )
        assert result.num_starts == 3
        best = result.best()
        assert cut_size(tiny_circuit.graph, best.parts) == best.cut

    def test_flat_fm_multistart(self, tiny_circuit, tiny_balance):
        result = flat_fm_multistart(
            tiny_circuit.graph,
            tiny_balance,
            config=FMConfig(policy="clip"),
            num_starts=3,
            seed=1,
        )
        assert result.num_starts == 3
        assert result.best().cut <= max(s.cut for s in result.starts)

    def test_multistart_improves_over_single(self):
        g = chain_hypergraph(60)
        balance = relative_bipartition_balance(g.total_area, 0.05)
        result = flat_fm_multistart(g, balance, num_starts=8, seed=3)
        assert result.best().cut <= result.starts[0].cut
