"""Process-parallel, fault-tolerant execution runtime.

The paper's empirical protocol -- trials x starts x fixed-percent sweep
points -- is embarrassingly parallel, and its sweeps are long enough
that partial failure (a crashed worker, a hung item, a preempted host)
must not mean starting over.  This package provides the one execution
layer every harness in the repo shares:

* :func:`derive_start_seeds` -- the deterministic per-task seed stream
  (identical to what the serial drivers always drew, so ``jobs=N``
  reproduces the serial results bit for bit);
* :func:`parallel_map` -- ordered map over picklable tasks backed by a
  ``ProcessPoolExecutor``, with per-item timeouts, crash-isolated
  retries on a fixed backoff (both set by an :class:`ExecutionPolicy`),
  optional quarantine of persistently-failing items, and a serial
  fallback as the last resort;
* :class:`CheckpointJournal` -- the durable JSONL journal that lets a
  killed sweep resume mid-table with bit-identical results;
* :class:`FaultPlan` / ``REPRO_FAULTS`` -- deterministic fault
  injection used by the tests and the CI chaos job;
* :func:`resolve_jobs` / :func:`parse_jobs` / :func:`jobs_from_env` --
  normalisation of the ``jobs`` knob (``0``/``None`` means "all
  available cores"; ``REPRO_JOBS`` supplies a validated default);
* :class:`TimedCall` / :func:`timed_call` -- wall-clock *and* CPU-time
  measurement of one task, taken inside the worker so CPU columns stay
  pool-size-invariant;
* :mod:`repro.runtime.observe` -- the tracing/metrics layer
  (:class:`TraceRecorder`, disabled by default via
  :class:`NullRecorder`); ``parallel_map`` ships each traced worker's
  span/counter fragment home and merges it into the parent recorder.

See ``docs/performance.md`` for the determinism contract,
``docs/robustness.md`` for the failure model, checkpoint format and
resume semantics, and ``docs/observability.md`` for the event model.
"""

from repro.runtime.checkpoint import (
    CheckpointBatch,
    CheckpointJournal,
    JournalNamespace,
    spec_key,
)
from repro.runtime.errors import (
    CheckpointError,
    ItemFailed,
    PoolFault,
    Quarantined,
    QuarantineWarning,
    WorkerCrash,
    WorkerTimeout,
)
from repro.runtime import observe
from repro.runtime.faults import (
    FaultPlan,
    InjectedFault,
    corrupt_checkpoint_record,
    parse_fault_spec,
    plan_from_env,
)
from repro.runtime.pool import (
    ExecutionPolicy,
    SerialFallbackWarning,
    jobs_from_env,
    parallel_map,
    parse_jobs,
    resolve_jobs,
)
from repro.runtime.observe import NullRecorder, TracedValue, TraceRecorder
from repro.runtime.seeds import derive_start_seeds
from repro.runtime.timing import TimedCall, timed_call

__all__ = [
    "CheckpointBatch",
    "CheckpointError",
    "CheckpointJournal",
    "ExecutionPolicy",
    "FaultPlan",
    "InjectedFault",
    "ItemFailed",
    "JournalNamespace",
    "NullRecorder",
    "PoolFault",
    "Quarantined",
    "QuarantineWarning",
    "SerialFallbackWarning",
    "TimedCall",
    "TracedValue",
    "TraceRecorder",
    "WorkerCrash",
    "WorkerTimeout",
    "corrupt_checkpoint_record",
    "derive_start_seeds",
    "jobs_from_env",
    "observe",
    "parallel_map",
    "parse_fault_spec",
    "parse_jobs",
    "plan_from_env",
    "resolve_jobs",
    "spec_key",
    "timed_call",
]
