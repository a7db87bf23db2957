"""Golden-trace tests: two small seeded studies, frozen shapes.

The timing-free shape of a trace (span tree + attrs + events + counter
and histogram totals) is deterministic for a seeded study.  These tests
freeze that shape for two studies on the ``tiny01`` circuit:

* the Table II pass-statistics study (``study.pass_stats`` spans), and
* a multilevel multistart batch (``multistart``/``multilevel`` spans);

and further pin the two load-bearing contracts of the whole layer:
tracing changes **no result bit** (traced and untraced runs compare
equal), and ``repro trace summarize`` reconstructs Table II
**byte-for-byte** from the trace alone.

Regenerate the golden files after an intentional instrumentation
change::

    PYTHONPATH=src python tests/runtime/test_golden_traces.py --regen
"""

import json
from pathlib import Path

import pytest

from repro.core.pass_stats import run_pass_stats_study
from repro.experiments.circuits import load_instance
from repro.partition.multistart import multilevel_multistart
from repro.runtime.observe import TraceRecorder
from repro.runtime.observe.recorder import use
from repro.runtime.observe.trace import trace_shape

GOLDEN_DIR = Path(__file__).parent / "golden"

PASS_STATS_KW = dict(
    circuit_name="tiny01",
    percents=(0.0, 30.0),
    regime="rand",
    runs=4,
    seed=7,
)
MULTISTART_KW = dict(num_starts=2, seed=5, jobs=1)


def _tiny01():
    circuit, balance = load_instance("tiny01")
    return circuit.graph, balance


def _record_pass_stats():
    graph, balance = _tiny01()
    recorder = TraceRecorder()
    with use(recorder):
        study = run_pass_stats_study(graph, balance, **PASS_STATS_KW)
    return study, recorder


def _record_multistart():
    graph, balance = _tiny01()
    recorder = TraceRecorder()
    with use(recorder):
        batch = multilevel_multistart(graph, balance, **MULTISTART_KW)
    return batch, recorder


def _load_golden(name):
    return json.loads((GOLDEN_DIR / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def pass_stats_run():
    return _record_pass_stats()


@pytest.fixture(scope="module")
def multistart_run():
    return _record_multistart()


class TestPassStatsGolden:
    def test_shape_matches_golden(self, pass_stats_run):
        _, recorder = pass_stats_run
        golden = _load_golden("pass_stats_trace.json")
        assert trace_shape(recorder.trace()) == golden

    def test_tracing_is_bit_identical(self, pass_stats_run):
        study, _ = pass_stats_run
        graph, balance = _tiny01()
        untraced = run_pass_stats_study(graph, balance, **PASS_STATS_KW)
        assert study == untraced

    def test_span_tree_has_the_documented_topology(self, pass_stats_run):
        _, recorder = pass_stats_run
        trace = recorder.trace()
        (study_span,) = trace.find_spans("study.pass_stats")
        assert study_span.attrs["percents"] == [0.0, 30.0]
        # The rand regime has no reference search: every child is a run,
        # submitted heaviest (fewest fixed vertices) first.
        runs = study_span.children
        assert {c.name for c in runs} == {"study.run"}
        assert [r.attrs["percent"] for r in runs] == [0.0] * 4 + [30.0] * 4
        assert {r.attrs["cutoff"] for r in runs} == {1.0}
        for run_span in runs:
            (fm_run,) = run_span.children
            assert fm_run.name == "fm.run"
            passes = [e for e in fm_run.events if e["name"] == "fm.pass"]
            assert len(passes) == fm_run.attrs["passes"]

    def test_counter_totals_are_consistent(self, pass_stats_run):
        _, recorder = pass_stats_run
        counters = recorder.counters
        # 2 percents x 4 runs, all executed through the pool layer.
        assert counters["fm.runs"] == 8
        assert counters["pool.items_executed"] == 8
        # Every move popped a bucket entry, and the wasted/best split
        # partitions the moves of each pass.
        assert counters["fm.moves"] == counters["fm.bucket.pops"]
        assert (
            counters["fm.best_prefix_moves"] + counters["fm.wasted_moves"]
            == counters["fm.moves"]
        )
        hist = recorder.histograms["fm.pass.moves"]
        assert sum(hist.values()) == counters["fm.passes"]

    def test_summarize_reconstructs_table_ii_byte_for_byte(
        self, pass_stats_run
    ):
        from repro.runtime.observe.summarize import (
            reconstruct_pass_stats,
            summarize_trace,
        )

        study, recorder = pass_stats_run
        (rebuilt,) = reconstruct_pass_stats(recorder.trace())
        assert rebuilt.format_table() == study.format_table()
        assert study.format_table() in summarize_trace(recorder.trace())

    def test_summarize_round_trips_through_disk(
        self, pass_stats_run, tmp_path
    ):
        from repro.runtime.observe.summarize import summarize_path

        study, recorder = pass_stats_run
        path = tmp_path / "trace.json"
        recorder.save(path)
        assert study.format_table() in summarize_path(path)


@pytest.mark.parametrize("regime", ["good", "rand"])
def test_summarize_rebuilds_a_pooled_unsorted_study(regime):
    from repro.runtime.observe.summarize import reconstruct_pass_stats

    graph, balance = _tiny01()
    kwargs = dict(
        PASS_STATS_KW, percents=(30.0, 0.0, 10.0), regime=regime, runs=3,
        jobs=2,
    )
    recorder = TraceRecorder()
    with use(recorder):
        study = run_pass_stats_study(graph, balance, **kwargs)
    trace = recorder.trace()
    (study_span,) = trace.find_spans("study.pass_stats")
    names = [c.name for c in study_span.children]
    assert names == ["study.reference"] * (regime == "good") + (
        ["study.run"] * 9
    )
    (rebuilt,) = reconstruct_pass_stats(trace)
    assert [r.percent for r in rebuilt.rows] == [30.0, 0.0, 10.0]
    assert rebuilt.format_table() == study.format_table()


class TestMultistartGolden:
    def test_shape_matches_golden(self, multistart_run):
        _, recorder = multistart_run
        golden = _load_golden("multistart_trace.json")
        assert trace_shape(recorder.trace()) == golden

    def test_tracing_is_bit_identical(self, multistart_run):
        batch, _ = multistart_run
        graph, balance = _tiny01()
        untraced = multilevel_multistart(graph, balance, **MULTISTART_KW)
        assert [(s.cut, s.parts) for s in batch.starts] == [
            (s.cut, s.parts) for s in untraced.starts
        ]

    def test_pool_trace_matches_golden_up_to_the_jobs_attr(self):
        graph, balance = _tiny01()
        recorder = TraceRecorder()
        with use(recorder):
            multilevel_multistart(
                graph, balance,
                **{**MULTISTART_KW, "jobs": 2},
            )
        shape = trace_shape(recorder.trace())
        # The batch span records the jobs it actually used; everything
        # else -- worker-recorded spans included -- is identical.
        (root,) = shape["spans"]
        assert root["attrs"].pop("jobs") == 2
        golden = _load_golden("multistart_trace.json")
        golden["spans"][0]["attrs"].pop("jobs")
        assert shape == golden

    def test_every_multilevel_span_is_fully_attributed(self, multistart_run):
        _, recorder = multistart_run
        for span in recorder.trace().find_spans("multilevel"):
            assert span.attrs["levels"] >= 1
            assert span.attrs["final_cut"] >= 0
            names = {c.name for c in span.children}
            assert {"coarsen", "initial_partition", "refine"} <= names


def _regen():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, recorder in (
        ("pass_stats_trace.json", _record_pass_stats()[1]),
        ("multistart_trace.json", _record_multistart()[1]),
    ):
        path = GOLDEN_DIR / name
        path.write_text(
            json.dumps(trace_shape(recorder.trace()), indent=1,
                       sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
