"""Ordered, fault-tolerant process-pool map with a serial fallback.

:func:`parallel_map` is the single fan-out primitive of the repo.  Its
contract:

* results come back in *input order*, regardless of completion order;
* the task object is shipped to each worker exactly once (via the pool
  initializer), so a task carrying a large hypergraph pays one
  flat-buffer serialization per worker, not one per item;
* ``jobs=1`` runs inline with zero pool machinery, and any environment
  where a process pool cannot be created or fed (sandboxes without
  ``fork``/semaphores, unpicklable closures) degrades to the same
  serial path with a single :class:`SerialFallbackWarning` -- results
  are identical either way, only the wall clock changes;
* a worker that **crashes** or **hangs** no longer takes the study
  down: the affected items are resubmitted to a respawned pool with a
  fixed backoff (:func:`retry_delay`), per-item wall-clock timeouts
  reclaim hung workers, and an :class:`~repro.runtime.errors.ItemFailed`
  (or, with ``quarantine=True``, a null-result
  :class:`~repro.runtime.errors.Quarantined` row) marks the rare item
  that keeps failing;
* with a :class:`~repro.runtime.checkpoint.CheckpointBatch`, every
  completed item is journaled durably and already-journaled items are
  skipped -- a killed sweep resumes mid-table with bit-identical
  results.

Because per-item work is deterministic in the item alone (the repo-wide
task contract), re-executing a lost item is always safe and always
reproduces the result the uninterrupted run would have produced.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Union,
)

from repro.runtime import observe
from repro.runtime.checkpoint import CheckpointBatch, is_miss
from repro.runtime.observe import TracedValue, TraceRecorder
from repro.runtime.errors import (
    ItemFailed,
    PoolFault,
    Quarantined,
    QuarantineWarning,
    WorkerCrash,
    WorkerTimeout,
    seed_of,
)
from repro.runtime.faults import FaultPlan, resolve_plan
from repro.runtime.timing import timed_call


class SerialFallbackWarning(RuntimeWarning):
    """Emitted (once per ``parallel_map`` call) when a requested
    process pool degrades to serial.  The triggering exception is
    chained as ``__cause__`` and also exposed as ``.cause``."""


JOBS_ENV = "REPRO_JOBS"
_JOBS_MESSAGE = "jobs must be >= 0 (0 = all cores), got {got}"


def parse_jobs(value: Union[int, str]) -> int:
    """Validate a ``jobs`` value from any source (CLI, env, API).

    Accepts non-negative integers or their string forms; every caller
    gets the same error message shape on rejection.
    """
    if isinstance(value, str):
        try:
            value = int(value.strip())
        except ValueError:
            raise ValueError(_JOBS_MESSAGE.format(got=repr(value))) from None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(_JOBS_MESSAGE.format(got=repr(value)))
    if value < 0:
        raise ValueError(_JOBS_MESSAGE.format(got=value))
    return value


def jobs_from_env(default: Optional[int] = None) -> Optional[int]:
    """The ``REPRO_JOBS`` override, validated, or ``default`` if unset."""
    raw = os.environ.get(JOBS_ENV)
    if raw is None or not raw.strip():
        return default
    return parse_jobs(raw)


def resolve_jobs(jobs: Optional[Union[int, str]]) -> int:
    """Normalise the ``jobs`` knob.

    ``None`` means "``REPRO_JOBS`` if set, else one worker per core";
    ``0`` means "one worker per available core" (respecting CPU
    affinity masks where the platform exposes them); any positive value
    is taken literally.  Strings are parsed with the same validation as
    the CLI, so ``REPRO_JOBS`` values can be passed through verbatim.
    """
    if jobs is None:
        jobs = jobs_from_env(default=0)
    jobs = parse_jobs(jobs)
    if jobs == 0:
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # pragma: no cover - non-Linux
            return max(1, os.cpu_count() or 1)
    return jobs


def retry_delay(attempt: int) -> float:
    """Seconds to back off after failed ``attempt`` (1-based).

    0.05 s doubling per attempt, capped at 2 s.  The schedule is the
    same for every item and run: one driver backs off against its own
    pool, so there is nothing to de-synchronise.
    """
    return min(2.0, 0.05 * 2 ** (attempt - 1))


@dataclass(frozen=True)
class ExecutionPolicy:
    """The fault-tolerance settings of one ``parallel_map`` invocation.

    ``timeout`` is the per-item wall-clock budget in seconds (measured
    from the item's submission to a worker; the submission window never
    exceeds the worker count, so queue wait does not eat the budget).
    ``max_attempts`` is the execution budget per item against worker
    crashes and timeouts (3 means: first try plus two retries).  A
    task's own exception is never retried -- a deterministic task
    raises deterministically.  ``quarantine=True`` turns failed items
    into :class:`~repro.runtime.errors.Quarantined` null-result rows
    instead of aborting the whole map.
    """

    timeout: Optional[float] = None
    max_attempts: int = 3
    quarantine: bool = False


DEFAULT_POLICY = ExecutionPolicy()


# Per-worker state, installed once by the pool initializer.  Globals are
# the standard ProcessPoolExecutor idiom for worker-lifetime caches: the
# task (and the hypergraph buffers inside it) is deserialized once per
# worker process instead of once per submitted item.
_WORKER_TASK: Optional[Callable[[Any], Any]] = None
_WORKER_TIMED = False
_WORKER_PLAN: Optional[FaultPlan] = None
_WORKER_OBSERVED = False


def _init_worker(
    task: Callable[[Any], Any],
    timed: bool,
    plan: Optional[FaultPlan],
    observed: bool = False,
) -> None:
    global _WORKER_TASK, _WORKER_TIMED, _WORKER_PLAN, _WORKER_OBSERVED
    _WORKER_TASK = task
    _WORKER_TIMED = timed
    _WORKER_PLAN = plan
    _WORKER_OBSERVED = observed


def _run_item(index: int, item: Any) -> Any:
    assert _WORKER_TASK is not None, "worker initializer did not run"
    if _WORKER_PLAN is not None:
        _WORKER_PLAN.fire(index)
    if not _WORKER_OBSERVED:
        if _WORKER_TIMED:
            return timed_call(_WORKER_TASK, item)
        return _WORKER_TASK(item)
    # Tracing enabled in the parent: record this item into a fresh
    # recorder and ship the fragment home with the result.  Faults fire
    # *before* the recorder exists, and a crashed/hung/raising attempt
    # never returns a fragment -- so a retried item contributes spans
    # and counters exactly once, from its successful attempt.
    recorder = TraceRecorder()
    with observe.use(recorder):
        if _WORKER_TIMED:
            value = timed_call(_WORKER_TASK, item)
        else:
            value = _WORKER_TASK(item)
    return TracedValue(value, recorder.fragment())


def _warn_serial_fallback(message: str, cause: Optional[BaseException]) -> None:
    recorder = observe.active()
    if recorder.enabled:
        recorder.count("pool.serial_fallbacks")
    warning = SerialFallbackWarning(
        f"{message}; running serially"
        + (f" (caused by {cause!r})" if cause is not None else "")
    )
    warning.__cause__ = cause
    warning.cause = cause
    warnings.warn(warning, stacklevel=3)


def parallel_map(
    task: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: Optional[Union[int, str]] = 1,
    timed: bool = False,
    policy: Optional[ExecutionPolicy] = None,
    checkpoint: Optional[CheckpointBatch] = None,
    faults: Optional[FaultPlan] = None,
) -> List[Any]:
    """``[task(item) for item in items]``, fanned over ``jobs`` processes.

    ``task`` must be picklable (a module-level function or a dataclass
    instance with module-level class) when ``jobs > 1``; per-item work
    must be deterministic in the item alone, which is what makes the
    output independent of ``jobs`` -- and makes re-executing items lost
    to crashes, timeouts or a killed driver safe.  With ``timed=True``
    each result is wrapped in a :class:`repro.runtime.timing.TimedCall`
    measured inside the executing process.

    ``policy`` configures timeouts, retries and quarantine (see
    :class:`ExecutionPolicy`); ``checkpoint`` makes completed items
    durable and skips items already journaled; ``faults`` injects
    deterministic failures for testing (defaults to the ``REPRO_FAULTS``
    environment plan).

    Exceptions raised *by the task* propagate to the caller unchanged
    (unless quarantined by ``policy``); failures of the pool
    machinery itself are retried against respawned pools and degrade to
    a serial re-run only as a last resort.
    """
    jobs = resolve_jobs(jobs)
    items = list(items)
    policy = policy or DEFAULT_POLICY
    plan = resolve_plan(faults)

    results: List[Any] = [None] * len(items)
    pending: List[int] = list(range(len(items)))
    recorder = observe.active()
    if checkpoint is not None:
        missing = []
        for i in pending:
            hit = checkpoint.lookup(i, items[i])
            if is_miss(hit):
                missing.append(i)
            else:
                results[i] = hit
        if recorder.enabled and len(missing) < len(pending):
            # Journaled cells are served without re-execution, so they
            # leave no spans in the trace -- this counter is the audit
            # trail for why a resumed study's trace looks thinner.
            recorder.count(
                "pool.journal_hits", len(pending) - len(missing)
            )
        pending = missing
    if not pending:
        return results

    jobs = min(jobs, len(pending))
    if jobs <= 1:
        _serial_run(task, items, pending, results, timed,
                    policy, checkpoint, plan)
        return results

    try:
        payload = pickle.dumps(task)
    except Exception as exc:  # noqa: BLE001 - any pickling failure
        _warn_serial_fallback(f"task {task!r} is not picklable", exc)
        _serial_run(task, items, pending, results, timed,
                    policy, checkpoint, plan)
        return results
    del payload

    _pool_run(task, items, pending, results, jobs, timed,
              policy, checkpoint, plan)
    return results


def _serial_run(
    task: Callable[[Any], Any],
    items: Sequence[Any],
    pending: Sequence[int],
    results: List[Any],
    timed: bool,
    policy: ExecutionPolicy,
    checkpoint: Optional[CheckpointBatch],
    plan: Optional[FaultPlan],
) -> None:
    """Inline execution honoring checkpoint/quarantine.

    Per-item timeouts do not apply inline (there is no worker to
    reclaim); a serial ``crash`` fault takes down the driver itself,
    which is the scenario the checkpoint journal exists for.
    """
    recorder = observe.active()
    for i in pending:
        try:
            if plan is not None:
                plan.fire(i)
            value = timed_call(task, items[i]) if timed else task(items[i])
        except Exception as exc:  # noqa: BLE001 - routed by policy
            _fail_item(i, items[i], 1, exc, policy, checkpoint, results)
            continue
        results[i] = value
        if recorder.enabled:
            recorder.count("pool.items_executed")
        if checkpoint is not None:
            checkpoint.record(i, items[i], value)


def _fail_item(
    index: int,
    item: Any,
    attempts: int,
    fault: BaseException,
    policy: ExecutionPolicy,
    checkpoint: Optional[CheckpointBatch],
    results: List[Any],
) -> None:
    """Terminal handling of a failed item.

    Quarantine leaves a :class:`Quarantined` null row (journaled with
    its reason) and warns; otherwise the failure propagates -- a task's
    own exception unchanged, a pool fault that exhausted the attempt
    budget as a structured :class:`ItemFailed` chained to it.
    """
    reason = f"{type(fault).__name__}: {fault}"
    if policy.quarantine:
        recorder = observe.active()
        if recorder.enabled:
            recorder.count("pool.quarantined")
        row = Quarantined(
            index=index, seed=seed_of(item), attempts=attempts, reason=reason
        )
        results[index] = row
        if checkpoint is not None:
            checkpoint.record_quarantine(index, item, reason)
        warnings.warn(
            QuarantineWarning(
                f"item {index} quarantined after {attempts} attempt(s): "
                f"{reason}"
            ),
            stacklevel=4,
        )
        return
    if not isinstance(fault, PoolFault):
        raise fault
    failure = ItemFailed(
        f"item {index} failed after {attempts} attempt(s): {reason}",
        index=index,
        seed=seed_of(item),
        attempt=attempts,
        traceback_text=fault.traceback_text,
    )
    raise failure from fault


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool whose workers may be hung or dead."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # noqa: BLE001 - best-effort teardown
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # noqa: BLE001 - best-effort teardown
        pass


def _pool_run(
    task: Callable[[Any], Any],
    items: Sequence[Any],
    pending: Sequence[int],
    results: List[Any],
    jobs: int,
    timed: bool,
    policy: ExecutionPolicy,
    checkpoint: Optional[CheckpointBatch],
    plan: Optional[FaultPlan],
) -> None:
    """The hardened parallel engine (windowed submission).

    At most ``jobs`` items are in flight, so a submitted item starts
    (almost) immediately and its per-item deadline measures run time,
    not queue time.  Worker crashes and timeouts tear the pool down,
    requeue the lost items (counting an attempt only against the items
    actually implicated), and respawn; repeated barren respawns degrade
    to the serial path.

    A crash with one item in flight implicates that item.  A pool that
    breaks with several in flight cannot name the killer, so none of
    them is charged: each becomes a *suspect* and runs alone until it
    completes or crashes by itself.
    """
    recorder = observe.active()
    observed = recorder.enabled
    queue = deque(pending)
    attempts: Dict[int, int] = {i: 0 for i in pending}
    pool: Optional[ProcessPoolExecutor] = None
    in_flight: Dict[Any, int] = {}
    deadlines: Dict[Any, float] = {}
    # index -> worker trace fragment, merged *after* the map completes
    # in index order -- the merged span sequence then matches what a
    # serial run records, whatever order the pool finished items in.
    fragments: Dict[int, dict] = {}
    suspects: Set[int] = set()
    completed_since_spawn = 0
    barren_spawns = 0

    def merge_fragments() -> None:
        for index in sorted(fragments):
            recorder.merge_fragment(fragments[index])
        fragments.clear()

    def fallback_serial(message: str, cause: Optional[BaseException]) -> None:
        remaining = sorted(set(queue) | set(in_flight.values()))
        in_flight.clear()
        deadlines.clear()
        if pool is not None:
            _terminate_pool(pool)
        merge_fragments()
        _warn_serial_fallback(message, cause)
        _serial_run(task, items, remaining, results, timed,
                    policy, checkpoint, plan)

    def retire(index: int, fault: PoolFault) -> bool:
        """Count a failed attempt; requeue or terminally fail.

        Returns True when the engine should keep going (the item was
        requeued or quarantined)."""
        if observed:
            if isinstance(fault, WorkerTimeout):
                recorder.count("pool.worker_timeouts")
            elif isinstance(fault, WorkerCrash):
                recorder.count("pool.worker_crashes")
        attempts[index] += 1
        if attempts[index] < policy.max_attempts:
            if observed:
                recorder.count("pool.retries")
            queue.append(index)
            return True
        if policy.quarantine:
            _fail_item(index, items[index], attempts[index], fault,
                       policy, checkpoint, results)
            return True
        if pool is not None:
            _terminate_pool(pool)
        _fail_item(index, items[index], attempts[index], fault,
                   policy, checkpoint, results)
        return False  # pragma: no cover - _fail_item raised

    while queue or in_flight:
        if pool is None:
            try:
                pool = ProcessPoolExecutor(
                    max_workers=jobs,
                    initializer=_init_worker,
                    initargs=(task, timed, plan, observed),
                )
            except (OSError, PermissionError, ValueError) as exc:
                fallback_serial("process pool unavailable", exc)
                return
            completed_since_spawn = 0

        try:
            while queue and len(in_flight) < jobs:
                if suspects and in_flight and (
                    queue[0] in suspects
                    or not suspects.isdisjoint(in_flight.values())
                ):
                    break  # a suspect runs alone
                i = queue.popleft()
                future = pool.submit(_run_item, i, items[i])
                in_flight[future] = i
                if policy.timeout is not None:
                    deadlines[future] = time.monotonic() + policy.timeout
        except (OSError, PermissionError, RuntimeError) as exc:
            fallback_serial("process pool cannot accept work", exc)
            return

        wait_timeout = None
        if deadlines:
            wait_timeout = max(
                0.0, min(deadlines.values()) - time.monotonic()
            )
        wait(set(in_flight), timeout=wait_timeout,
             return_when=FIRST_COMPLETED)

        # Harvest everything that finished (the wait() set may lag).
        crash: Optional[BrokenProcessPool] = None
        lost: List[int] = []
        for future in [f for f in in_flight if f.done()]:
            i = in_flight.pop(future)
            deadlines.pop(future, None)
            try:
                value = future.result()
            except BrokenProcessPool as exc:
                crash = exc
                lost.append(i)
                continue
            except Exception as exc:  # noqa: BLE001 - task-level error
                if policy.quarantine:
                    attempts[i] += 1
                    _fail_item(i, items[i], attempts[i], exc,
                               policy, checkpoint, results)
                    continue
                _terminate_pool(pool)
                raise exc
            if observed and isinstance(value, TracedValue):
                fragments[i] = value.fragment
                value = value.value
            results[i] = value
            suspects.discard(i)
            completed_since_spawn += 1
            if observed:
                recorder.count("pool.items_executed")
            if checkpoint is not None:
                checkpoint.record(i, items[i], value)

        if crash is not None:
            # Every other in-flight item died with the pool too.
            lost.extend(in_flight.values())
            if len(lost) == 1:
                i = lost[0]
                suspects.discard(i)
                fault = WorkerCrash(
                    f"worker died while running item {i} "
                    f"(attempt {attempts[i] + 1}): {crash}",
                    index=i,
                    seed=seed_of(items[i]),
                    attempt=attempts[i] + 1,
                )
                fault.__cause__ = crash
                retire(i, fault)
            else:
                # Any of them may be the killer: requeue them all
                # uncharged, to run alone until each is cleared or
                # crashes by itself.
                if observed:
                    recorder.count("pool.worker_crashes")
                    recorder.count("pool.retries", len(lost))
                suspects.update(lost)
                queue.extend(lost)
            in_flight.clear()
            deadlines.clear()
            _terminate_pool(pool)
            pool = None
            # A lone crash is its item's fault, not the pool's, so only
            # an unattributed collapse can make a spawn barren.
            if completed_since_spawn:
                barren_spawns = 0
            elif len(lost) > 1:
                barren_spawns += 1
                if barren_spawns >= policy.max_attempts:
                    fallback_serial(
                        f"process pool broke {barren_spawns} times "
                        "without completing any item", crash,
                    )
                    return
            time.sleep(retry_delay(barren_spawns + 1))
            continue

        if policy.timeout is not None and in_flight:
            now = time.monotonic()
            expired = [
                (future, i)
                for future, i in in_flight.items()
                if deadlines.get(future, now + 1) <= now
                and not future.done()
            ]
            if expired:
                # A hung worker cannot be reclaimed individually;
                # nuke the pool, charge the expired items an attempt,
                # and requeue the innocent bystanders for free.
                survivors = [
                    i for future, i in in_flight.items()
                    if (future, i) not in expired and not future.done()
                ]
                in_flight.clear()
                deadlines.clear()
                _terminate_pool(pool)
                pool = None
                for i in survivors:
                    queue.append(i)
                delay = 0.0
                for future, i in expired:
                    fault = WorkerTimeout(
                        f"item {i} exceeded its {policy.timeout:.3g}s "
                        f"wall-clock budget (attempt {attempts[i] + 1})",
                        index=i,
                        timeout=policy.timeout,
                        seed=seed_of(items[i]),
                        attempt=attempts[i] + 1,
                    )
                    if retire(i, fault):
                        delay = max(delay, retry_delay(attempts[i]))
                time.sleep(delay)

    merge_fragments()
    if pool is not None:
        pool.shutdown(wait=True)
