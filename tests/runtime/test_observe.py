"""Unit tests for the tracing/metrics layer (``repro.runtime.observe``).

Covers the recorder pair (null + live), span stack semantics, the flat
stores, fragment export/merge, JSON round-trips, and the checkpoint
counters.  Pool integration lives in ``test_observe_pool.py``; golden
end-to-end traces in ``test_golden_traces.py``.
"""

import pickle

import pytest

from repro.runtime.observe import (
    NullRecorder,
    TraceRecorder,
    TracedValue,
)
from repro.runtime.observe.recorder import _NULL_SPAN, active, set_recorder, use
from repro.runtime.observe.trace import (
    OPEN_DURATION,
    SCHEMA,
    Span,
    Trace,
    load_trace,
    merge_counters,
    merge_histograms,
    span_shape,
    trace_shape,
)


class TestNullRecorder:
    def test_is_the_default(self):
        assert isinstance(active(), NullRecorder)
        assert active().enabled is False

    def test_span_is_shared_noop(self):
        rec = NullRecorder()
        sp = rec.span("anything", k=1)
        assert sp is _NULL_SPAN
        with sp as inner:
            inner.set(more=2)  # must not raise

    def test_all_operations_are_noops(self):
        rec = NullRecorder()
        rec.count("c", 3)
        rec.hist("h", 7)
        rec.event("e", field=1)
        rec.merge_fragment({"counters": {"c": 1}})
        assert rec.fragment() == {
            "spans": [], "events": [], "counters": {}, "histograms": {}
        }


class TestActiveRecorderSwitch:
    def test_set_recorder_returns_previous_and_none_restores(self):
        rec = TraceRecorder()
        previous = set_recorder(rec)
        assert isinstance(previous, NullRecorder)
        assert active() is rec
        set_recorder(None)
        assert isinstance(active(), NullRecorder)

    def test_use_restores_on_exception(self):
        rec = TraceRecorder()
        with pytest.raises(RuntimeError):
            with use(rec):
                assert active() is rec
                raise RuntimeError("boom")
        assert isinstance(active(), NullRecorder)


class TestSpans:
    def test_nesting_and_timing(self):
        rec = TraceRecorder()
        with rec.span("outer", a=1) as outer:
            with rec.span("inner"):
                pass
            assert rec.current_span() is outer.span
        assert rec.current_span() is None
        root = rec.roots[0]
        assert root.name == "outer"
        assert root.attrs == {"a": 1}
        assert root.closed and root.duration >= 0.0
        (child,) = root.children
        assert child.name == "inner" and child.closed
        assert child.start >= root.start

    def test_set_attaches_attrs_on_live_span(self):
        rec = TraceRecorder()
        with rec.span("s", a=1) as sp:
            sp.set(b=2)
        assert rec.roots[0].attrs == {"a": 1, "b": 2}

    def test_exception_marks_error_attr(self):
        rec = TraceRecorder()
        with pytest.raises(ValueError):
            with rec.span("failing"):
                raise ValueError("nope")
        span = rec.roots[0]
        assert span.attrs["error"] == "ValueError"
        assert span.closed

    def test_closing_outer_closes_still_open_inner(self):
        rec = TraceRecorder()
        outer = rec.open_span("outer")
        inner = rec.open_span("inner")
        rec.close_span(outer)
        assert outer.closed and inner.closed
        assert rec.current_span() is None

    def test_double_close_is_ignored(self):
        rec = TraceRecorder()
        span = rec.open_span("s")
        rec.close_span(span)
        duration = span.duration
        rec.close_span(span)
        assert span.duration == duration

    def test_events_attach_to_innermost_open_span(self):
        rec = TraceRecorder()
        rec.event("top.level", x=0)
        with rec.span("s"):
            rec.event("inside", x=1)
        assert rec.events == [{"name": "top.level", "fields": {"x": 0}}]
        assert rec.roots[0].events == [
            {"name": "inside", "fields": {"x": 1}}
        ]

    def test_open_span_never_closed_keeps_sentinel(self):
        rec = TraceRecorder()
        span = rec.open_span("dangling")
        assert not span.closed
        assert span.duration == OPEN_DURATION


class TestFlatStores:
    def test_counters_accumulate(self):
        rec = TraceRecorder()
        rec.count("c")
        rec.count("c", 4)
        assert rec.counters == {"c": 5}

    def test_hist_buckets_by_int(self):
        rec = TraceRecorder()
        rec.hist("h", 3)
        rec.hist("h", 3.7)  # int() truncation
        rec.hist("h", 4)
        assert rec.histograms == {"h": {3: 2, 4: 1}}


class TestFragments:
    def _worker_fragment(self):
        worker = TraceRecorder()
        with worker.span("fm.run", seed=9):
            worker.count("fm.runs")
            worker.hist("fm.pass.moves", 12)
            worker.event("fm.pass", moves_made=12)
        return worker.fragment()

    def test_fragment_is_picklable(self):
        fragment = self._worker_fragment()
        assert pickle.loads(pickle.dumps(fragment)) == fragment

    def test_merge_into_open_span(self):
        parent = TraceRecorder()
        with parent.span("study.percent", percent=0.0):
            parent.merge_fragment(self._worker_fragment())
        percent = parent.roots[0]
        (run,) = percent.children
        assert run.name == "fm.run"
        assert run.events[0]["fields"] == {"moves_made": 12}
        assert parent.counters == {"fm.runs": 1}
        assert parent.histograms == {"fm.pass.moves": {12: 1}}

    def test_merge_without_open_span_appends_roots(self):
        parent = TraceRecorder()
        parent.merge_fragment(self._worker_fragment())
        assert [s.name for s in parent.roots] == ["fm.run"]

    def test_traced_value_round_trips_through_pickle(self):
        tv = TracedValue(("cut", 42), self._worker_fragment())
        clone = pickle.loads(pickle.dumps(tv))
        assert clone.value == tv.value
        assert clone.fragment == tv.fragment


class TestSerialization:
    def _recorded(self):
        rec = TraceRecorder(meta={"command": "test"})
        with rec.span("outer", a=1) as sp:
            rec.count("c", 2)
            rec.hist("h", -3)
            rec.event("e", k="v")
            with rec.span("inner"):
                pass
            sp.set(done=True)
        return rec

    def test_trace_round_trip_preserves_everything(self, tmp_path):
        rec = self._recorded()
        path = tmp_path / "trace.json"
        rec.save(path)
        loaded = load_trace(path)
        assert loaded.meta == {"command": "test"}
        assert loaded.counters == {"c": 2}
        assert loaded.histograms == {"h": {-3: 1}}
        assert trace_shape(loaded) == trace_shape(rec.trace())
        # Timing survives too (shape comparison strips it).
        assert loaded.spans[0].duration == rec.roots[0].duration

    def test_from_dict_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            Trace.from_dict({"schema": "not-a-trace/9"})

    def test_to_dict_carries_schema(self):
        assert self._recorded().to_dict()["schema"] == SCHEMA

    def test_metrics_dict_holds_only_flat_stores(self, tmp_path):
        import json

        rec = self._recorded()
        path = tmp_path / "metrics.json"
        rec.save_metrics(path)
        payload = json.loads(path.read_text())
        assert payload["counters"] == {"c": 2}
        assert payload["histograms"] == {"h": {"-3": 1}}
        assert "spans" not in payload

    def test_span_shape_strips_timing_only(self):
        span = Span("s", {"a": 1}, start=0.5, duration=0.25)
        shape = span_shape(span)
        assert shape == {
            "name": "s", "attrs": {"a": 1}, "events": [], "children": []
        }


class TestMergeHelpers:
    def test_merge_counters_adds(self):
        target = {"a": 1}
        merge_counters(target, {"a": 2, "b": 3})
        assert target == {"a": 3, "b": 3}

    def test_merge_histograms_normalizes_string_keys(self):
        target = {"h": {1: 1}}
        merge_histograms(target, {"h": {"1": 2, "5": 1}})
        assert target == {"h": {1: 3, 5: 1}}


class TestCheckpointCounters:
    def test_writes_resumes_and_loaded_cells_are_counted(self, tmp_path):
        from repro.runtime import CheckpointJournal

        path = tmp_path / "j.jsonl"
        rec = TraceRecorder()
        with use(rec):
            journal = CheckpointJournal(path, {"study": 1})
            batch = journal.batch("b")
            batch.record(0, 10, "value-0")
            batch.record_quarantine(1, 11, "reason")
        assert rec.counters["checkpoint.writes"] == 1
        assert rec.counters["checkpoint.quarantine_writes"] == 1
        assert "checkpoint.resumes" not in rec.counters

        rec2 = TraceRecorder()
        with use(rec2):
            CheckpointJournal(path, {"study": 1})
        assert rec2.counters["checkpoint.resumes"] == 1
        assert rec2.counters["checkpoint.loaded_cells"] == 2
