"""Probes the benchmark installs into ``repro`` from the outside.

The engines already emit ``multistart``, ``multilevel``, ``coarsen``,
``initial_partition``, ``refine`` and ``fm.run`` spans.  The layers that
have no span of their own are timed here by wrapping their public
functions, so nothing under ``src/`` changes:

* ``pool.map`` around every ``parallel_map`` call, and ``pool.item``
  around each item in the process that runs it (its ``pid`` attribute
  tells a worker from the driver);
* ``contract`` around ``matching.coarsen`` -- what remains of a
  ``coarsen`` span is matching -- and ``project`` around
  ``CoarseLevel.project``;
* ``place`` around the top-down placer, ``place.bisect`` around each of
  its bisections, and ``derive`` around instance derivation.

With tracing off the same wrappers collect what the end-to-end metrics
need: the time of every operation (a pool item, timed in its worker; or
one placer bisection) and the results to re-verify once the timed
region is over.  Pool workers are forked from the driver, so they run
the wrapped functions too.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.partition import matching, multistart
from repro.partition.multilevel import MultilevelBipartitioner
from repro.partition.solution import cut_size, respect_fixture
from repro.placement import derive
from repro.placement.placer import TopDownPlacer
from repro.runtime import TimedCall, observe, pool, resolve_jobs

# (graph, fixture or None, parts, claimed cut) of one finished operation.
Outcome = Tuple[Any, Optional[Sequence[int]], Sequence[int], int]


def _spanned(name: str, fn: Callable) -> Callable:
    """``fn`` wrapped in a span called ``name`` while tracing is on."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder = observe.active()
        if not recorder.enabled:
            return fn(*args, **kwargs)
        with recorder.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _replace(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module's reference to ``original`` at
    ``replacement`` (drivers import these functions by name)."""
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class ItemTask:
    """A ``parallel_map`` task whose items run inside ``pool.item``."""

    def __init__(self, task: Callable[[Any], Any]) -> None:
        self.task = task

    def __call__(self, item: Any) -> Any:
        recorder = observe.active()
        if not recorder.enabled:
            return self.task(item)
        with recorder.span("pool.item", pid=os.getpid()):
            return self.task(item)


class Probes:
    """The installed wrappers and what they collected since ``reset``."""

    def __init__(self) -> None:
        self.op_seconds: List[float] = []
        self.quarantined = 0
        self.outcomes: List[Outcome] = []
        self.bisection_cuts: List[int] = []
        self._in_bisection = False

    def reset(self) -> None:
        """Forget the previous run's samples."""
        self.op_seconds = []
        self.quarantined = 0
        self.outcomes = []
        self.bisection_cuts = []

    def install(self) -> None:
        """Wrap the layers (once per process, after the drivers import)."""
        _replace(pool.parallel_map, self._parallel_map(pool.parallel_map))
        _replace(
            multistart.multilevel_multistart,
            self._multistart(multistart.multilevel_multistart),
        )
        _replace(matching.coarsen, _spanned("contract", matching.coarsen))
        _replace(
            derive.derive_instance, _spanned("derive", derive.derive_instance)
        )
        _replace(
            derive.instance_parameters,
            _spanned("derive", derive.instance_parameters),
        )
        matching.CoarseLevel.project = _spanned(
            "project", matching.CoarseLevel.project
        )
        TopDownPlacer.place = _spanned("place", TopDownPlacer.place)
        TopDownPlacer._bisect_block = self._bisection(
            TopDownPlacer._bisect_block
        )
        MultilevelBipartitioner.run = self._engine_run(
            MultilevelBipartitioner.run
        )

    def verify(self) -> int:
        """Re-check every collected outcome from scratch: the cut, the
        vector length and every fixed vertex.  Returns the failures."""
        failed = 0
        for graph, fixture, parts, cut in self.outcomes:
            ok = (
                len(parts) == graph.num_vertices
                and cut_size(graph, parts) == cut
                and (fixture is None or respect_fixture(parts, fixture))
            )
            failed += not ok
        return failed

    # -- wrappers ------------------------------------------------------
    def _parallel_map(self, original: Callable) -> Callable:
        @functools.wraps(original)
        def parallel_map(task, items, jobs=1, timed=False, **kwargs):
            items = list(items)
            workers = max(1, min(resolve_jobs(jobs), len(items)))
            span = observe.active().span(
                "pool.map", items=len(items), workers=workers
            )
            with span:
                calls = original(
                    ItemTask(task), items, jobs=jobs, timed=True, **kwargs
                )
            results = []
            for call in calls:
                if isinstance(call, TimedCall):
                    self.op_seconds.append(call.seconds)
                    results.append(call if timed else call.value)
                else:  # a quarantined null row
                    self.quarantined += 1
                    results.append(call)
            return results

        return parallel_map

    def _multistart(self, original: Callable) -> Callable:
        signature = inspect.signature(original)

        @functools.wraps(original)
        def multilevel_multistart(*args, **kwargs):
            result = original(*args, **kwargs)
            bound = signature.bind(*args, **kwargs).arguments
            for start in result.starts:
                if start.healthy:
                    self.outcomes.append(
                        (bound["graph"], bound.get("fixture"),
                         start.parts, start.cut)
                    )
            return result

        return multilevel_multistart

    def _bisection(self, original: Callable) -> Callable:
        @functools.wraps(original)
        def bisect_block(placer, *args, **kwargs):
            self._in_bisection = True
            start = time.perf_counter()
            try:
                with observe.active().span("place.bisect"):
                    return original(placer, *args, **kwargs)
            finally:
                self.op_seconds.append(time.perf_counter() - start)
                self._in_bisection = False

        return bisect_block

    def _engine_run(self, original: Callable) -> Callable:
        @functools.wraps(original)
        def run(engine, seed=0):
            result = original(engine, seed)
            if self._in_bisection:
                solution = result.solution
                self.outcomes.append(
                    (engine.graph, engine.fixture, solution.parts, solution.cut)
                )
                self.bisection_cuts.append(solution.cut)
            return result

        return run
