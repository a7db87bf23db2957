"""Structured error taxonomy of the fault-tolerant runtime.

Every failure mode of :func:`repro.runtime.parallel_map` maps to one
class here, so callers (and the checkpoint journal) can record *what*
went wrong with enough structure to act on it:

* :class:`WorkerCrash` -- a worker process died (``BrokenProcessPool``)
  while the item was in flight;
* :class:`WorkerTimeout` -- the item exceeded its per-item wall-clock
  budget and the pool was torn down to reclaim the worker;
* :class:`ItemFailed` -- terminal: the item exhausted its retry budget
  (the last underlying fault is chained as ``__cause__``);
* :class:`Quarantined` -- not an exception but the null-result sentinel
  a quarantined item leaves in the result list when the caller opted
  into graceful degradation instead of aborting the study.

All faults carry the item index, the item's seed (when the item is an
integer seed, which is what every multistart driver submits), the
attempt count, and the traceback text of the underlying failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


def seed_of(item: Any) -> Optional[int]:
    """The per-item seed, when the item *is* a seed (multistart items)."""
    return item if isinstance(item, int) else None


class PoolFault(RuntimeError):
    """Base class of all structured runtime faults.

    ``index`` is the item's position in the submitted sequence,
    ``seed`` the item itself when it is an integer seed, ``attempt``
    the 1-based attempt that failed, and ``traceback_text`` the
    formatted traceback of the underlying error (empty when the worker
    died without one, e.g. on a hard crash).
    """

    def __init__(
        self,
        message: str,
        *,
        index: int,
        seed: Optional[int] = None,
        attempt: int = 1,
        traceback_text: str = "",
    ) -> None:
        super().__init__(message)
        self.index = index
        self.seed = seed
        self.attempt = attempt
        self.traceback_text = traceback_text


class WorkerCrash(PoolFault):
    """A worker process died while this item was in flight."""


class WorkerTimeout(PoolFault):
    """An item exceeded its per-item wall-clock timeout.

    ``timeout`` is the budget in seconds that was exceeded.
    """

    def __init__(
        self,
        message: str,
        *,
        index: int,
        timeout: float,
        seed: Optional[int] = None,
        attempt: int = 1,
        traceback_text: str = "",
    ) -> None:
        super().__init__(
            message,
            index=index,
            seed=seed,
            attempt=attempt,
            traceback_text=traceback_text,
        )
        self.timeout = timeout


class ItemFailed(PoolFault):
    """Terminal failure: the item exhausted its retry budget.

    ``attempt`` holds the total number of attempts made.  The last
    underlying fault (a :class:`WorkerCrash` or :class:`WorkerTimeout`)
    is chained as ``__cause__``.
    """


@dataclass(frozen=True)
class Quarantined:
    """Null-result row left in place of a persistently-failing item.

    Produced only when the caller opted into quarantine (graceful
    degradation); carries everything the study needs to report the hole
    in its table.
    """

    index: int
    seed: Optional[int]
    attempts: int
    reason: str

    def __bool__(self) -> bool:  # quarantined rows are falsy null rows
        return False


class QuarantineWarning(RuntimeWarning):
    """Emitted once per item quarantined by graceful degradation."""


class CheckpointError(RuntimeError):
    """Raised when a checkpoint journal cannot be used.

    The main case is a spec mismatch: resuming a study against a
    journal written by a *different* study spec would silently splice
    unrelated results into the tables, so it is refused loudly.
    """
