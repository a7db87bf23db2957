"""Trace reports: span rollups and Table II reconstruction.

``repro trace summarize TRACE.json`` renders a saved trace as text:
a per-name span rollup (count, total and mean duration), the counters,
compact histogram digests -- and, when the trace contains pass-stats
study spans, the paper's Table II *recomputed from the trace alone*.

The reconstruction groups the study's ``study.run`` spans by percent,
turns each ``fm.pass`` event back into a
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
from typing import Dict, List, Union

from repro.core.pass_stats import PassStatsStudy, pass_stats_row
from repro.partition.fm import PassRecord
from repro.runtime.observe.trace import Trace, load_trace

STUDY_SPAN = "study.pass_stats"
RUN_SPAN = "study.run"
FM_RUN_SPAN = "fm.run"
FM_PASS_EVENT = "fm.pass"


def reconstruct_pass_stats(trace: Trace) -> List[PassStatsStudy]:
    """Rebuild every pass-stats study recorded in ``trace``.

    Groups the ``study.run`` spans under each ``study.pass_stats`` span
    by their ``percent`` and re-aggregates each run's ``fm.pass`` events
    with the study driver's own row builder, one row per entry of the
    study span's ``percents``.  Error-marked runs are skipped, matching
    the driver's exclusion of quarantined runs.
    """
    studies = []
    for study_span in trace.find_spans(STUDY_SPAN):
        attrs = study_span.attrs
        study = PassStatsStudy(
            circuit_name=attrs["circuit"], regime=attrs["regime"]
        )
        outcomes: Dict[float, list] = {}
        for run_span in study_span.walk():
            if run_span.name != RUN_SPAN or "error" in run_span.attrs:
                continue
            (fm_run,) = (
                c for c in run_span.children if c.name == FM_RUN_SPAN
            )
            records = [
                PassRecord(**e["fields"])
                for e in fm_run.events
                if e["name"] == FM_PASS_EVENT
            ]
            outcomes.setdefault(run_span.attrs["percent"], []).append(
                (fm_run.attrs["final_cut"], records)
            )
        for percent in attrs["percents"]:
            study.rows.append(
                pass_stats_row(
                    percent, attrs["runs"], outcomes.get(percent, [])
                )
            )
        studies.append(study)
    return studies


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
