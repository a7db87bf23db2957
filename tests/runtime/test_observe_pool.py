"""Tracing across the process-pool boundary.

Workers record into fresh per-item recorders and ship fragments home;
these tests pin the contract: pool traces equal serial traces, retried
items are counted **exactly once** (failed attempts leave no fragment),
and journal-resumed cells re-execute nothing (they leave no spans and
no task-side counts -- only the ``pool.journal_hits`` audit counter).
"""

import pytest

from repro.runtime import (
    CheckpointJournal,
    ExecutionPolicy,
    FaultPlan,
    Quarantined,
    QuarantineWarning,
    parallel_map,
)
from repro.runtime import observe
from repro.runtime.faults import FAULTS_ENV, STATE_ENV
from repro.runtime.observe import TraceRecorder
from repro.runtime.observe.recorder import use
from repro.runtime.observe.trace import trace_shape

def _traced_square(x):
    """Module-level task (picklable) that records its own execution."""
    rec = observe.active()
    with rec.span("task.work", item=x):
        rec.count("test.task_calls")
        rec.hist("test.item", x)
    return x * x


class TestPoolEqualsSerial:
    def _run(self, jobs):
        rec = TraceRecorder()
        with use(rec):
            out = parallel_map(_traced_square, [3, 1, 4, 1, 5], jobs=jobs)
        return out, rec.trace()

    def test_counters_histograms_and_shape_match(self):
        out1, t1 = self._run(1)
        out2, t2 = self._run(2)
        assert out1 == out2 == [9, 1, 16, 1, 25]
        assert t1.counters == t2.counters
        assert t1.counters["test.task_calls"] == 5
        assert t1.counters["pool.items_executed"] == 5
        assert t1.histograms == t2.histograms
        # Fragments merge in item-index order, so even the span forest
        # is deterministic and identical to the serial trace.
        assert trace_shape(t1) == trace_shape(t2)
        assert [s.attrs["item"] for s in t2.spans] == [3, 1, 4, 1, 5]

    def test_worker_spans_nest_under_the_open_parent_span(self):
        rec = TraceRecorder()
        with use(rec):
            with rec.span("batch"):
                parallel_map(_traced_square, [1, 2], jobs=2)
        (batch,) = rec.roots
        assert [c.name for c in batch.children] == ["task.work"] * 2

    def test_untraced_pool_results_are_bare_values(self):
        # With the null recorder the worker protocol must stay exactly
        # what it was: no TracedValue wrappers anywhere.
        out = parallel_map(_traced_square, [2, 3], jobs=2)
        assert out == [4, 9]


class TestExactlyOnceUnderFaults:
    def test_crashed_attempt_leaves_no_counts(self, tmp_path):
        # Item 1's worker dies once; the retry succeeds.  The dead
        # attempt shipped no fragment, so every per-item stat appears
        # exactly once despite two executions being attempted.
        plan = FaultPlan(crash_on=(1,), state_dir=str(tmp_path))
        rec = TraceRecorder()
        with use(rec):
            out = parallel_map(
                _traced_square,
                [0, 1, 2, 3],
                jobs=2,
                policy=ExecutionPolicy(max_attempts=3),
                faults=plan,
            )
        assert out == [0, 1, 4, 9]
        assert rec.counters["test.task_calls"] == 4
        assert rec.counters["pool.items_executed"] == 4
        # A dying worker can take a second in-flight item down with it
        # (both get retried), so these are lower bounds -- the
        # exactly-once assertions above are the exact ones.
        assert rec.counters["pool.worker_crashes"] >= 1
        assert rec.counters["pool.retries"] >= 1
        assert rec.histograms["test.item"] == {0: 1, 1: 1, 2: 1, 3: 1}
        assert len(rec.trace().find_spans("task.work")) == 4

    def test_env_driven_faults_count_the_same(self, tmp_path, monkeypatch):
        # Same scenario via REPRO_FAULTS, the way the fault-injection
        # harness is driven from CI.
        monkeypatch.setenv(FAULTS_ENV, "crash@2")
        monkeypatch.setenv(STATE_ENV, str(tmp_path))
        rec = TraceRecorder()
        with use(rec):
            out = parallel_map(
                _traced_square,
                [0, 1, 2],
                jobs=2,
                policy=ExecutionPolicy(max_attempts=3),
            )
        assert out == [0, 1, 4]
        assert rec.counters["test.task_calls"] == 3
        assert rec.counters["pool.worker_crashes"] >= 1

    def test_quarantined_item_is_not_counted(self):
        # The injected raise fires before the task body on every
        # attempt, so the quarantined item contributes no task counts.
        plan = FaultPlan(raise_on=(2,))
        policy = ExecutionPolicy(max_attempts=3, quarantine=True)
        rec = TraceRecorder()
        with use(rec), pytest.warns(QuarantineWarning):
            out = parallel_map(
                _traced_square, [0, 1, 2, 3], jobs=2,
                policy=policy, faults=plan,
            )
        assert isinstance(out[2], Quarantined)
        assert rec.counters["test.task_calls"] == 3
        assert rec.counters["pool.quarantined"] == 1
        assert 2 not in rec.histograms["test.item"]


class TestResume:
    def test_journal_hits_reexecute_nothing(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl", {"study": "s"})
        first = parallel_map(
            _traced_square, [1, 2, 3], jobs=1,
            checkpoint=journal.batch("b"),
        )

        rec = TraceRecorder()
        with use(rec):
            resumed_journal = CheckpointJournal(
                tmp_path / "j.jsonl", {"study": "s"}
            )
            second = parallel_map(
                _traced_square, [1, 2, 3], jobs=1,
                checkpoint=resumed_journal.batch("b"),
            )
        assert second == first == [1, 4, 9]
        assert rec.counters["pool.journal_hits"] == 3
        assert rec.counters["checkpoint.loaded_cells"] == 3
        # Nothing ran, so nothing was (double-)counted or traced.
        assert "test.task_calls" not in rec.counters
        assert rec.trace().find_spans("task.work") == []

    def test_partial_resume_counts_only_fresh_cells(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl", {"study": "s"})
        batch = journal.batch("b")
        parallel_map(_traced_square, [1, 2], jobs=1, checkpoint=batch)

        # Same journal, wider batch: two journaled cells hit, two run.
        resumed = CheckpointJournal(tmp_path / "j.jsonl", {"study": "s"})
        rec = TraceRecorder()
        with use(rec):
            out = parallel_map(
                _traced_square, [1, 2, 5, 6], jobs=2,
                checkpoint=resumed.batch("b"),
            )
        assert out == [1, 4, 25, 36]
        assert rec.counters["pool.journal_hits"] == 2
        assert rec.counters["test.task_calls"] == 2
        assert rec.counters["pool.items_executed"] == 2
        assert rec.histograms["test.item"] == {5: 1, 6: 1}

    def test_resumed_checkpoint_still_stores_bare_values(self, tmp_path):
        # TracedValue must be unwrapped before journaling: a journal
        # written under tracing must resume cleanly without tracing.
        journal = CheckpointJournal(tmp_path / "j.jsonl", {"study": "s"})
        rec = TraceRecorder()
        with use(rec):
            parallel_map(
                _traced_square, [7, 8], jobs=2,
                checkpoint=journal.batch("b"),
            )
        resumed = CheckpointJournal(tmp_path / "j.jsonl", {"study": "s"})
        out = parallel_map(
            _traced_square, [7, 8], jobs=1,
            checkpoint=resumed.batch("b"),
        )
        assert out == [49, 64]
