"""Tests for the fault-tolerant pool engine: crash-isolated retries,
per-item timeouts, quarantine, the deduplicated serial fallback, and
the unified ``jobs`` parsing."""

import warnings

import pytest

from repro.runtime import (
    ExecutionPolicy,
    FaultPlan,
    ItemFailed,
    Quarantined,
    QuarantineWarning,
    SerialFallbackWarning,
    jobs_from_env,
    parallel_map,
    parse_jobs,
    resolve_jobs,
)
from repro.runtime.pool import JOBS_ENV, retry_delay


def _square(x):
    return x * x


def _reciprocal(x):
    return 1 / x


class TestRetryPolicy:
    """The fixed backoff between attempts of an ExecutionPolicy."""

    def test_delay_grows_and_caps(self):
        # 0.05 s doubling per failed attempt, capped at 2 s.
        assert [retry_delay(a) for a in range(1, 8)] == [
            0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0
        ]


class TestCrashRecovery:
    def test_worker_crash_is_retried_and_recovers(self, tmp_path):
        # The worker executing item 1 dies hard once; the respawned pool
        # must finish the map with correct, ordered results.
        plan = FaultPlan(crash_on=(1,), state_dir=str(tmp_path))
        out = parallel_map(
            _square,
            [0, 1, 2, 3],
            jobs=2,
            policy=ExecutionPolicy(max_attempts=3),
            faults=plan,
        )
        assert out == [0, 1, 4, 9]

    def test_persistent_crash_exhausts_as_quarantine(self, tmp_path):
        # No state dir: item 0 kills its worker on every attempt and
        # must end as a Quarantined null row naming the crash.
        plan = FaultPlan(crash_on=(0,))
        policy = ExecutionPolicy(max_attempts=2, quarantine=True)
        with pytest.warns(QuarantineWarning, match="item 0"):
            out = parallel_map(
                _square, [0, 1, 2, 3], jobs=2, policy=policy, faults=plan
            )
        row = out[0]
        assert isinstance(row, Quarantined)
        assert not row  # null rows are falsy
        assert row.index == 0
        assert row.seed == 0
        assert row.attempts == 2
        assert "WorkerCrash" in row.reason
        assert out[1:] == [1, 4, 9]

    def test_collapse_charges_only_the_lone_crasher(self):
        # Item 0 kills its worker on every attempt while item 1 sleeps
        # beside it.  The collapse cannot name the killer, so neither is
        # charged; run alone, item 1 completes and item 0 crashes by
        # itself -- only item 0 may exhaust its budget.
        plan = FaultPlan(crash_on=(0,), sleep_on={1: 0.3})
        policy = ExecutionPolicy(max_attempts=2, quarantine=True)
        with pytest.warns(QuarantineWarning, match="item 0"):
            out = parallel_map(
                _square, [0, 1, 2, 3], jobs=2, policy=policy, faults=plan
            )
        assert isinstance(out[0], Quarantined)
        assert out[0].attempts == 2
        assert out[1:] == [1, 4, 9]


class TestTimeouts:
    def test_hung_item_is_reclaimed_and_retried(self, tmp_path):
        # Item 1 sleeps past its budget once; the retry (marker armed)
        # runs clean and the map completes.
        plan = FaultPlan(sleep_on={1: 5.0}, state_dir=str(tmp_path))
        policy = ExecutionPolicy(timeout=0.75, max_attempts=3)
        out = parallel_map(
            _square, [0, 1, 2], jobs=2, policy=policy, faults=plan
        )
        assert out == [0, 1, 4]

    def test_timeout_exhaustion_raises_item_failed(self):
        # max_attempts=1: the first expiry is terminal and must surface
        # the structured taxonomy (index, seed, attempt).
        plan = FaultPlan(sleep_on={1: 5.0})
        policy = ExecutionPolicy(timeout=0.5, max_attempts=1)
        with pytest.raises(ItemFailed) as info:
            parallel_map(
                _square, [0, 1], jobs=2, policy=policy, faults=plan
            )
        failure = info.value
        assert failure.index == 1
        assert failure.seed == 1
        assert failure.attempt == 1
        assert "WorkerTimeout" in str(failure)


class TestQuarantine:
    def test_task_error_quarantines_with_reason(self):
        plan = FaultPlan(raise_on=(2,))
        policy = ExecutionPolicy(max_attempts=3, quarantine=True)
        with pytest.warns(QuarantineWarning):
            out = parallel_map(
                _square, [0, 1, 2, 3], jobs=2, policy=policy, faults=plan
            )
        assert isinstance(out[2], Quarantined)
        assert "InjectedFault" in out[2].reason
        assert out[0] == 0 and out[3] == 9

    def test_serial_path_quarantines_too(self):
        plan = FaultPlan(raise_on=(1,))
        policy = ExecutionPolicy(max_attempts=3, quarantine=True)
        with pytest.warns(QuarantineWarning):
            out = parallel_map(
                _square, [0, 1], jobs=1, policy=policy, faults=plan
            )
        assert out[0] == 0
        assert isinstance(out[1], Quarantined)


class TestTaskErrors:
    def test_exception_propagates_unchanged_without_retry(self):
        # A task error is the caller's exception, not a wrapped
        # ItemFailed, when no quarantine was asked for.
        with pytest.raises(ZeroDivisionError):
            parallel_map(_reciprocal, [1, 0], jobs=2)
        with pytest.raises(ZeroDivisionError):
            parallel_map(_reciprocal, [1, 0], jobs=1)


class TestSerialFallback:
    def test_unpicklable_task_warns_once_with_cause(self):
        state = []

        def closure(x):  # closures cannot cross a process boundary
            state.append(x)
            return x + 1

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = parallel_map(closure, [1, 2, 3, 4], jobs=2)
        fallbacks = [
            w for w in caught
            if issubclass(w.category, SerialFallbackWarning)
        ]
        assert out == [2, 3, 4, 5]
        assert state == [1, 2, 3, 4]
        # Deduplicated: one warning for the whole call, not one per item,
        # and the triggering exception is chained for diagnosis.
        assert len(fallbacks) == 1
        warning = fallbacks[0].message
        assert warning.cause is not None
        assert warning.__cause__ is warning.cause

    def test_fallback_still_honors_checkpoint(self, tmp_path):
        from repro.runtime import CheckpointJournal

        journal = CheckpointJournal(tmp_path / "j.jsonl", {"s": 1})
        batch = journal.batch("b")

        def closure(x):
            return x * 10

        with pytest.warns(SerialFallbackWarning):
            out = parallel_map(closure, [1, 2], jobs=2, checkpoint=batch)
        assert out == [10, 20]
        assert journal.completed_cells() == 2


class TestJobsParsing:
    def test_parse_jobs_accepts_ints_and_strings(self):
        assert parse_jobs(4) == 4
        assert parse_jobs("4") == 4
        assert parse_jobs(" 0 ") == 0

    @pytest.mark.parametrize("bad", [-1, "-1", "zero", 1.5, True])
    def test_parse_jobs_rejects_with_unified_message(self, bad):
        with pytest.raises(ValueError, match=r"jobs must be >= 0"):
            parse_jobs(bad)

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert jobs_from_env() is None
        assert jobs_from_env(default=1) == 1
        monkeypatch.setenv(JOBS_ENV, "3")
        assert jobs_from_env() == 3

    def test_env_validation(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "-2")
        with pytest.raises(ValueError, match=r"jobs must be >= 0"):
            jobs_from_env()

    def test_resolve_jobs_consults_env_when_unset(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "2")
        assert resolve_jobs(None) == 2
        monkeypatch.delenv(JOBS_ENV)
        assert resolve_jobs(None) >= 1

    def test_resolve_jobs_accepts_strings(self):
        assert resolve_jobs("3") == 3
