"""Per-layer self times and counts, computed from one traced run.

A span's *self time* is its duration minus the durations of its children
that ran in the same process.  Every span is charged to exactly one
layer, so the layer self times add up to the run's *traced busy time*:
the driver's ``bench.workload`` span plus every ``pool.item`` span that
ran in a pool worker.  Worker spans keep their own clock (see
``repro.runtime.observe.trace``), so they are never subtracted from the
driver span they were merged under: the driver's time inside a pooled
``parallel_map`` -- spawning, dispatching, waiting, merging -- is the
``pool.self_s`` layer.
"""

from __future__ import annotations

from typing import Dict, Optional

# Span name -> the layer its self time is charged to.  Names missing
# here (none in the three workloads) fall to the driver.
SELF_LAYER = {
    "bench.workload": "driver.self_s",
    "multistart": "driver.self_s",
    "pool.map": "pool.self_s",
    "pool.item": "task.self_s",
    "multilevel": "multilevel.self_s",
    "coarsen": "match.s",
    "contract": "contract.s",
    "initial_partition": "initial.self_s",
    "refine": "refine.self_s",
    "vcycle": "refine.self_s",
    "project": "project.s",
    "place": "place.self_s",
    "place.bisect": "place.self_s",
    "derive": "derive.s",
}

# An ``fm.run`` is charged by where it ran: inside the multilevel
# engine's initial partitioning, inside refinement, or flat.
FM_LAYER = {
    "initial_partition": "fm.initial_s",
    "refine": "fm.refine_s",
    "vcycle": "fm.refine_s",
}
FM_METRICS = ("fm.initial_s", "fm.refine_s", "fm.flat_s")

SELF_METRICS = tuple(sorted(set(SELF_LAYER.values()) | set(FM_METRICS)))


def _layer(name: str, parent: Optional[str]) -> str:
    if name == "fm.run":
        return FM_LAYER.get(parent, "fm.flat_s")
    return SELF_LAYER.get(name, "driver.self_s")


def profile(recorder, driver_pid: int) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    ``recorder`` is the run's ``TraceRecorder``; ``driver_pid`` tells
    inline ``pool.item`` spans (serial maps) from worker ones.
    """
    out: Dict[str, float] = {name: 0.0 for name in SELF_METRICS}
    busy = 0.0
    maps = items = bisections = 0
    map_s = item_s = capacity = overhead = 0.0
    stack = [(root, None, driver_pid, True) for root in recorder.roots]
    while stack:
        span, parent, pid, process_root = stack.pop()
        if process_root:
            busy += span.duration
        inner = 0.0
        for child in span.children:
            child_pid = pid
            if child.name == "pool.item":
                child_pid = child.attrs.get("pid", pid)
            if child_pid == pid:
                inner += child.duration
            stack.append((child, span.name, child_pid, child_pid != pid))
        out[_layer(span.name, parent)] += span.duration - inner
        if span.name == "pool.map":
            done = [c.duration for c in span.children if c.name == "pool.item"]
            workers = span.attrs["workers"]
            maps += 1
            items += len(done)
            map_s += span.duration
            item_s += sum(done)
            capacity += span.duration * workers
            overhead += span.duration - sum(done) / workers
        elif span.name == "place.bisect":
            bisections += 1

    counters = recorder.counters
    fm_s = sum(out[name] for name in FM_METRICS)
    moves = counters.get("fm.moves", 0)
    out.update(
        {
            "trace.busy_s": busy,
            "pool.maps": maps,
            "pool.items": items,
            "pool.map_s": map_s,
            "pool.busy_s": item_s,
            "pool.efficiency": item_s / capacity if capacity else 0.0,
            "pool.overhead_s": overhead,
            "fm.runs": counters.get("fm.runs", 0),
            "fm.passes": counters.get("fm.passes", 0),
            "fm.moves": moves,
            "fm.moves_per_s": moves / fm_s if fm_s else 0.0,
            "fm.wasted_frac": (
                counters.get("fm.wasted_moves", 0) / moves if moves else 0.0
            ),
            "fm.cutoff_triggers": counters.get("fm.cutoff_triggers", 0),
            "coarsen.levels": counters.get("multilevel.levels", 0),
            "coarsen.vertices_removed": counters.get(
                "contract.vertices_removed", 0
            ),
            "multilevel.runs": counters.get("multilevel.runs", 0),
            "place.bisections": bisections,
        }
    )
    return out
