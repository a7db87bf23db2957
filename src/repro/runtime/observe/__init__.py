"""``repro.runtime.observe`` -- zero-dependency tracing and metrics.

Hierarchical timing spans, monotonic counters, per-pass histograms and
point events, collected by a process-wide recorder that is a no-op
unless explicitly enabled::

    from repro.runtime import observe

    rec = observe.TraceRecorder()
    with observe.use(rec):
        study = run_pass_stats_study(graph, balance, ...)
    rec.save("trace.json")

Instrumented call sites read ``observe.active()`` once and early-out on
``rec.enabled`` (see ``docs/observability.md`` for the event model, the
span/counter naming scheme and the overhead contract).  The collector is
thread-safe within a process and merges child-worker fragments across
``runtime.pool`` process boundaries; ``summarize`` (imported lazily --
it pulls in the study drivers) rebuilds Table II pass statistics from a
saved trace.
"""

from __future__ import annotations

from repro.runtime.observe.recorder import (
    NullRecorder,
    TracedValue,
    TraceRecorder,
    active,
    set_recorder,
    use,
)
from repro.runtime.observe.trace import (
    METRICS_SCHEMA,
    SCHEMA,
    Span,
    Trace,
    load_trace,
    merge_counters,
    merge_histograms,
    span_shape,
    trace_shape,
)

__all__ = [
    "METRICS_SCHEMA",
    "NullRecorder",
    "SCHEMA",
    "Span",
    "Trace",
    "TracedValue",
    "TraceRecorder",
    "active",
    "load_trace",
    "merge_counters",
    "merge_histograms",
    "set_recorder",
    "span_shape",
    "trace_shape",
    "use",
]
