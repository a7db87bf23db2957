"""Trace reports: span rollups and Table II reconstruction.

``repro trace summarize TRACE.json`` renders a saved trace as text:
a per-name span rollup (count, total and mean duration), the counters,
compact histogram digests -- and, when the trace contains pass-stats
study spans, the paper's Table II *recomputed from the trace alone*.

The reconstruction turns each ``fm.pass`` event back into a
:class:`~repro.partition.fm.PassRecord` and aggregates through the study
driver's own row builder, :func:`repro.core.pass_stats.pass_stats_row`,
so its :meth:`~repro.core.pass_stats.PassStatsStudy.format_table` output
is byte-for-byte the table the study driver printed.  That only holds for
a trace of a *fresh* run: a resumed study satisfies journaled cells
from the checkpoint without re-executing them, so their spans are
absent from the trace (the ``pool.journal_hits`` counter says how
many).

This module imports the study drivers, so it is **not** imported by
``repro.runtime.observe`` itself -- the recorder must stay importable
from inside ``repro.runtime``'s own initialization.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Union

from repro.core.pass_stats import (
    PassStatsRow,
    PassStatsStudy,
    pass_stats_row,
)
from repro.partition.fm import PassRecord
from repro.runtime.observe.trace import Span, Trace, load_trace

STUDY_SPAN = "study.pass_stats"
PERCENT_SPAN = "study.percent"
FM_RUN_SPAN = "fm.run"
FM_PASS_EVENT = "fm.pass"


def reconstruct_pass_stats(trace: Trace) -> List[PassStatsStudy]:
    """Rebuild every pass-stats study recorded in ``trace``.

    Walks ``study.pass_stats`` -> ``study.percent`` -> ``fm.run`` spans
    and re-aggregates the per-pass ``fm.pass`` events with the study
    driver's own row builder.  Error-marked ``fm.run`` spans are skipped,
    matching the driver's exclusion of quarantined runs.
    """
    studies = []
    for study_span in trace.find_spans(STUDY_SPAN):
        study = PassStatsStudy(
            circuit_name=study_span.attrs["circuit"],
            regime=study_span.attrs["regime"],
        )
        for percent_span in study_span.children:
            if percent_span.name != PERCENT_SPAN:
                continue
            study.rows.append(_reconstruct_row(percent_span))
        studies.append(study)
    return studies


def _reconstruct_row(percent_span: Span) -> PassStatsRow:
    """One Table II row from one ``study.percent`` span."""
    outcomes = []
    for run_span in percent_span.children:
        if run_span.name != FM_RUN_SPAN or "error" in run_span.attrs:
            continue
        records = [
            PassRecord(**e["fields"])
            for e in run_span.events
            if e["name"] == FM_PASS_EVENT
        ]
        outcomes.append(
            (len(records), run_span.attrs["final_cut"], records)
        )
    return pass_stats_row(
        percent_span.attrs["percent"],
        percent_span.attrs["runs"],
        outcomes,
    )


def _span_rollup(trace: Trace) -> List[str]:
    totals = {}
    for span in trace.walk():
        count, seconds = totals.get(span.name, (0, 0.0))
        totals[span.name] = (
            count + 1,
            seconds + (span.duration if span.closed else 0.0),
        )
    if not totals:
        return ["spans: none"]
    width = max(len(name) for name in totals)
    lines = [
        "spans:",
        f"  {'name':<{width}} {'count':>8} {'total s':>10} {'mean s':>10}",
    ]
    by_cost = sorted(totals.items(), key=lambda kv: (-kv[1][1], kv[0]))
    for name, (count, seconds) in by_cost:
        lines.append(
            f"  {name:<{width}} {count:>8d} {seconds:>10.4f} "
            f"{seconds / count:>10.6f}"
        )
    return lines


def _counter_lines(trace: Trace) -> List[str]:
    if not trace.counters:
        return ["counters: none"]
    width = max(len(name) for name in trace.counters)
    lines = ["counters:"]
    for name in sorted(trace.counters):
        value = trace.counters[name]
        lines.append(f"  {name:<{width}} {value:>12}")
    return lines


def _histogram_lines(trace: Trace) -> List[str]:
    if not trace.histograms:
        return ["histograms: none"]
    lines = ["histograms:"]
    for name in sorted(trace.histograms):
        buckets = trace.histograms[name]
        total = sum(buckets.values())
        weighted = sum(k * c for k, c in buckets.items())
        lines.append(
            f"  {name}: n={total} min={min(buckets)} max={max(buckets)} "
            f"mean={weighted / total:.2f}"
        )
    return lines


def summarize_trace(trace: Trace) -> str:
    """The full text report for one parsed trace."""
    sections = []
    if trace.meta:
        meta = " ".join(
            f"{key}={trace.meta[key]}" for key in sorted(trace.meta)
        )
        sections.append(f"trace meta: {meta}")
    sections.append("\n".join(_span_rollup(trace)))
    sections.append("\n".join(_counter_lines(trace)))
    sections.append("\n".join(_histogram_lines(trace)))
    hits = trace.counters.get("pool.journal_hits", 0)
    for study in reconstruct_pass_stats(trace):
        block = study.format_table()
        if hits:
            block += (
                f"\n(note: {hits} journal hit(s) -- resumed cells left no "
                "spans, so this table covers freshly executed runs only)"
            )
        sections.append(block)
    return "\n\n".join(sections)


def summarize_path(path: Union[str, Path]) -> str:
    """Load ``path`` and summarize it."""
    return summarize_trace(load_trace(path))
