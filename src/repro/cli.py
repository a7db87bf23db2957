"""Command-line interface.

Exposes the library's main workflows without writing Python::

    python -m repro generate  --cells 1000 --out circ_dir --name mychip
    python -m repro partition --dir circ_dir --name mychip --engine multilevel
    python -m repro place     --cells 800 --suite-out suite_dir --name chip
    python -m repro stats     --dir circ_dir --name mychip
    python -m repro experiment table2 --profile quick

All subcommands are deterministic under ``--seed``.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from pathlib import Path
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple

from repro.core import (
    bipartition_instance,
    constraint_profile,
    format_study,
    format_table_one,
)
from repro.core.instance import PartitioningInstance
from repro.experiments.reporting import check, emit
from repro.hypergraph import (
    CircuitSpec,
    HypergraphError,
    compute_stats,
    generate_circuit,
)
from repro.io import read_bookshelf, write_bookshelf, write_netd
from repro.partition import (
    FMConfig,
    block_loads,
    flat_fm_multistart,
    kway_multistart,
    multilevel_multistart,
    relative_balance,
)
from repro.placement import build_suite, format_table, place_circuit
from repro.runtime import (
    CheckpointError,
    CheckpointJournal,
    ExecutionPolicy,
    jobs_from_env,
    observe,
    parse_jobs,
)

ENGINES = ("multilevel", "fm", "kway")

Checks = List[Tuple[str, bool]]  # (label, passed) per shape check


class _Experiment(NamedTuple):
    """One ``repro experiment`` entry; see :data:`_EXPERIMENTS`."""

    module: str  # submodule of repro.experiments, imported on use
    run: Callable[[Any, str, dict], Any]  # (module, profile, runtime)
    render: Callable[[Any, Any], Tuple[str, Checks]]  # -> (report, checks)
    result: str  # results/ file name; {profile} is filled in
    runtime: bool = True  # takes --resume/--timeout/--max-retries


def _report(text: str, checks: Checks, sep: str = "\n\n"):
    """(report, checks): ``text`` followed by one PASS/FAIL line per
    shape check."""
    lines = "\n".join(check(label, ok) for label, ok in checks)
    return text + sep + lines, checks


def _per_circuit(module, studies):
    """Tables II and III: one block per circuit, each with its checks."""
    reports = [
        _report(study.format_table(), module.shape_checks(study), "\n")
        for study in studies.values()
    ]
    text = "\n\n".join(text for text, _ in reports)
    return text, [c for _, checks in reports for c in checks]


def _difficulty(module, study):
    """Figs. 1-2 and the multiway study: one difficulty study."""
    return _report(format_study(study), module.shape_checks(study))


def _figure(name: str) -> _Experiment:
    return _Experiment(
        "figures",
        lambda m, profile, rt: m.run_figure(name, profile, **rt),
        _difficulty,
        name + "_{profile}",
    )


# Experiment name -> driver call, text rendering and results/ name.  A
# driver call gets the runtime keywords as a dict (jobs, policy,
# journal); the entries with runtime=False take no policy or journal.
_EXPERIMENTS = {
    "table1": _Experiment(
        "table1",
        lambda m, profile, rt: m.run_table1(),
        lambda m, rows: _report(format_table_one(rows), m.shape_checks(rows)),
        "table1",
        runtime=False,
    ),
    "table2": _Experiment(
        "table2",
        lambda m, profile, rt: m.run_table2(profile, **rt),
        _per_circuit,
        "table2_{profile}",
    ),
    "table3": _Experiment(
        "table3",
        lambda m, profile, rt: m.run_table3(profile, **rt),
        _per_circuit,
        "table3_{profile}",
    ),
    "table4": _Experiment(
        "table4",
        lambda m, profile, rt: m.run_table4(profile),
        lambda m, suites: _report(
            format_table(suites), m.shape_checks(suites)
        ),
        "table4_{profile}",
        runtime=False,
    ),
    "fig1": _figure("fig1"),
    "fig2": _figure("fig2"),
    "multiway": _Experiment(
        "multiway",
        lambda m, profile, rt: m.run_multiway(profile, **rt),
        _difficulty,
        "multiway_{profile}",
    ),
    "overconstrained": _Experiment(
        "overconstrained",
        lambda m, profile, rt: m.run_overconstrained(profile, jobs=rt["jobs"]),
        lambda m, report: _report(
            report.format_report(), m.shape_checks(report)
        ),
        "overconstrained_{profile}",
        runtime=False,
    ),
    "suite-solutions": _Experiment(
        "suite_solutions",
        lambda m, profile, rt: m.run_suite_solutions(profile, jobs=rt["jobs"]),
        lambda m, tables: _report(
            "\n\n".join(t.format_table() for t in tables),
            m.shape_checks(tables),
        ),
        "suite_solutions_{profile}",
        runtime=False,
    ),
    "ablations": _Experiment(
        "ablations",
        lambda m, profile, rt: m.run_ablations(jobs=rt["jobs"]),
        lambda m, report: _report(
            report.format_report(), m.shape_checks(report)
        ),
        "ablations",
        runtime=False,
    ),
}


def _jobs_arg(value: str) -> int:
    # Delegates to the runtime's parser so the CLI and the API reject a
    # bad --jobs with the same message (and the same rules).
    try:
        return parse_jobs(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _default_jobs() -> int:
    """CLI default for --jobs: REPRO_JOBS if set (validated), else 1."""
    env = jobs_from_env()
    return 1 if env is None else env


def _timeout_arg(value: str) -> float:
    timeout = float(value)
    if timeout <= 0:
        raise argparse.ArgumentTypeError(
            f"must be positive seconds, got {timeout}"
        )
    return timeout


def _retries_arg(value: str) -> int:
    retries = int(value)
    if retries < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {retries}")
    return retries


def add_runtime_args(parser: argparse.ArgumentParser) -> None:
    """The fault-tolerance knobs shared by partition and experiment."""
    parser.add_argument(
        "--resume", default=None, metavar="JOURNAL",
        help="checkpoint journal path; created on first use, resumed "
             "afterwards (completed cells are skipped bit-identically)",
    )
    parser.add_argument(
        "--timeout", type=_timeout_arg, default=None, metavar="SECS",
        help="per-item wall-clock deadline; expired items are retried "
             "on a fresh pool",
    )
    parser.add_argument(
        "--max-retries", type=_retries_arg, default=None, metavar="N",
        help="crash/timeout retries per item before it is quarantined "
             "as a null row (default 2 when --timeout is set)",
    )


def runtime_from_args(args: argparse.Namespace, spec: dict):
    """``(ExecutionPolicy or None, CheckpointJournal or None)`` from the
    flags :func:`add_runtime_args` adds.

    Quarantine is on whenever ``--timeout`` or ``--max-retries`` opts
    into the fault-tolerant path: such a run wants null rows over an
    aborted sweep.  ``spec`` keys the journal, so it must hold everything
    that determines the results and nothing else (``jobs`` stays out, so
    a sweep can resume under another pool size).
    """
    policy = None
    if args.timeout is not None or args.max_retries is not None:
        retries = 2 if args.max_retries is None else args.max_retries
        policy = ExecutionPolicy(
            timeout=args.timeout,
            max_attempts=retries + 1,
            quarantine=True,
        )
    journal = None
    if args.resume is not None:
        journal = CheckpointJournal(args.resume, spec)
    return policy, journal


def _add_observe_args(parser: argparse.ArgumentParser) -> None:
    """The tracing knobs shared by partition and experiment."""
    parser.add_argument(
        "--trace", default=None, metavar="TRACE.json",
        help="record a structured trace of this run (spans, counters, "
             "histograms) and write it to this path; results are "
             "bit-identical with or without tracing",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="METRICS.json",
        help="write just the counters/histograms to this path "
             "(lighter than a full --trace)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Hypergraph partitioning with fixed vertices "
            "(Alpert/Caldwell/Kahng/Markov reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate", help="synthesize a circuit and write it to disk"
    )
    gen.add_argument("--cells", type=int, default=1000)
    gen.add_argument("--name", default="circuit")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument(
        "--format",
        choices=("bookshelf", "netd", "both"),
        default="bookshelf",
    )

    part = sub.add_parser(
        "partition", help="partition a saved bookshelf instance"
    )
    part.add_argument("--dir", required=True, help="instance directory")
    part.add_argument("--name", required=True, help="instance name")
    part.add_argument("--engine", choices=ENGINES, default="multilevel")
    part.add_argument("--starts", type=int, default=1)
    part.add_argument("--seed", type=int, default=0)
    part.add_argument(
        "--jobs", type=_jobs_arg, default=_default_jobs(),
        help="worker processes for independent starts "
             "(0 = all cores; REPRO_JOBS sets the default; results are "
             "identical to --jobs 1)",
    )
    part.add_argument(
        "--parts", type=int, default=None,
        help="override block count (kway engine only)",
    )
    part.add_argument(
        "--cutoff", type=float, default=1.0,
        help="pass move-limit fraction (Section III heuristic)",
    )
    part.add_argument(
        "--save", default=None,
        help="write the block of each vertex to this file",
    )
    add_runtime_args(part)
    _add_observe_args(part)

    place = sub.add_parser(
        "place", help="place a synthetic circuit and derive benchmarks"
    )
    place.add_argument("--cells", type=int, default=800)
    place.add_argument("--name", default="chip")
    place.add_argument("--seed", type=int, default=0)
    place.add_argument(
        "--suite-out", default=None,
        help="write the derived A..D instances to this directory",
    )

    stats = sub.add_parser(
        "stats", help="print statistics of a saved instance"
    )
    stats.add_argument("--dir", required=True)
    stats.add_argument("--name", required=True)

    evaluate = sub.add_parser(
        "evaluate",
        help="verify a saved assignment against an instance",
    )
    evaluate.add_argument("--dir", required=True)
    evaluate.add_argument("--name", required=True)
    evaluate.add_argument(
        "--assignment", required=True,
        help="file of '<node> <block>' lines (see partition --save)",
    )

    exp = sub.add_parser("experiment", help="run a paper experiment")
    exp.add_argument("which", choices=tuple(_EXPERIMENTS))
    exp.add_argument(
        "--profile", choices=("quick", "full"), default="quick"
    )
    exp.add_argument(
        "--jobs", type=_jobs_arg, default=_default_jobs(),
        help="worker processes for independent starts/runs "
             "(0 = all cores; REPRO_JOBS sets the default; results are "
             "identical to --jobs 1)",
    )
    add_runtime_args(exp)
    _add_observe_args(exp)

    trace = sub.add_parser(
        "trace", help="inspect a trace written by --trace"
    )
    trace.add_argument("action", choices=("summarize",))
    trace.add_argument("path", help="trace JSON file")
    return parser


# ----------------------------------------------------------------------
def _cmd_generate(args: argparse.Namespace) -> int:
    circuit = generate_circuit(
        CircuitSpec(num_cells=args.cells, name=args.name), seed=args.seed
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.format in ("bookshelf", "both"):
        instance = bipartition_instance(
            circuit.graph,
            pad_vertices=circuit.pad_vertices,
            name=args.name,
        )
        write_bookshelf(instance, out)
    if args.format in ("netd", "both"):
        write_netd(
            circuit.graph,
            out / f"{args.name}.net",
            out / f"{args.name}.are",
            pad_vertices=circuit.pad_vertices,
        )
    s = compute_stats(circuit.graph)
    print(
        f"generated {args.name}: {circuit.num_cells} cells, "
        f"{len(circuit.pad_vertices)} pads, {s.num_nets} nets, "
        f"{s.num_pins} pins -> {out}/"
    )
    return 0


def _load(args: argparse.Namespace) -> PartitioningInstance:
    return read_bookshelf(args.dir, args.name)


def _partition_runtime(args: argparse.Namespace):
    """(policy, checkpoint) for the partition command's runtime flags."""
    policy, journal = runtime_from_args(
        args,
        {
            "command": "partition",
            "dir": str(args.dir),
            "name": args.name,
            "engine": args.engine,
            "starts": args.starts,
            "seed": args.seed,
            "parts": args.parts,
            "cutoff": args.cutoff,
        },
    )
    checkpoint = journal.batch("starts") if journal is not None else None
    return policy, checkpoint


def _cmd_partition(args: argparse.Namespace) -> int:
    instance = _load(args)
    graph = instance.graph
    fixture = instance.hard_fixture()
    # Per-start seeds keep the historical ``seed + i`` convention, so a
    # given command line prints the same cut at every --jobs value (and
    # the same cut this CLI always printed).
    start_seeds = [args.seed + i for i in range(args.starts)]
    policy, checkpoint = _partition_runtime(args)
    t0 = time.perf_counter()
    if args.engine == "kway":
        num_parts = args.parts or instance.num_parts
        balance = relative_balance(graph.total_area, num_parts, 0.1)
        batch = kway_multistart(
            graph,
            balance,
            fixture=fixture if num_parts == instance.num_parts else None,
            num_starts=args.starts,
            seeds=start_seeds,
            jobs=args.jobs,
            policy=policy,
            checkpoint=checkpoint,
        )
    elif args.engine == "multilevel":
        if instance.num_parts != 2:
            print("multilevel engine is 2-way; use --engine kway")
            return 2
        batch = multilevel_multistart(
            graph,
            instance.balance,
            fixture=fixture,
            num_starts=args.starts,
            seeds=start_seeds,
            jobs=args.jobs,
            policy=policy,
            checkpoint=checkpoint,
        )
    else:  # flat FM
        if instance.num_parts != 2:
            print("fm engine is 2-way; use --engine kway")
            return 2
        batch = flat_fm_multistart(
            graph,
            instance.balance,
            fixture=fixture,
            config=FMConfig(pass_move_limit_fraction=args.cutoff),
            num_starts=args.starts,
            seeds=start_seeds,
            jobs=args.jobs,
            policy=policy,
            checkpoint=checkpoint,
        )
    best = batch.best()
    parts, cut = best.parts, best.cut
    elapsed = time.perf_counter() - t0
    if batch.num_quarantined:
        print(
            f"WARNING: {batch.num_quarantined} of {batch.num_starts} "
            "start(s) quarantined (see warnings above); best cut is "
            "over the surviving starts"
        )

    loads = block_loads(graph, parts, max(parts) + 1)
    print(
        f"{args.name}: cut {cut} with {args.engine} engine "
        f"({args.starts} start(s), {elapsed:.2f}s wall, "
        f"{batch.total_cpu_seconds():.2f}s CPU)"
    )
    print(
        "block loads: "
        + " ".join(f"{load:.1f}" for load in loads)
    )
    if not instance.is_assignment_legal(parts):
        print("WARNING: OR-fixture constraints not all satisfied")
    if args.save:
        Path(args.save).write_text(
            "\n".join(
                f"{graph.vertex_name(v)} {parts[v]}"
                for v in range(graph.num_vertices)
            )
            + "\n"
        )
        print(f"assignment written to {args.save}")
    return 0


def _cmd_place(args: argparse.Namespace) -> int:
    circuit = generate_circuit(
        CircuitSpec(num_cells=args.cells, name=args.name), seed=args.seed
    )
    placement = place_circuit(circuit, seed=args.seed)
    print(
        f"placed {args.name}: HPWL = "
        f"{placement.half_perimeter_wirelength():.0f}"
    )
    suite = build_suite(circuit, args.name, placement=placement)
    print(format_table([suite]))
    if args.suite_out:
        out = Path(args.suite_out)
        for entry in suite.entries:
            write_bookshelf(entry.instance, out)
        print(f"{len(suite.entries)} instances written to {out}/")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    instance = _load(args)
    s = compute_stats(instance.graph)
    print(f"instance {args.name}:")
    print(f"  {s.format_row()}")
    print(
        f"  partitions: {instance.num_parts}, fixed vertices: "
        f"{instance.num_fixed} ({instance.fixed_fraction:.1%}), "
        f"terminals: {len(instance.pad_vertices)}"
    )
    profile = constraint_profile(
        instance.graph, instance.hard_fixture()
    )
    print(profile.format_profile())
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.partition.solution import cut_size

    instance = _load(args)
    graph = instance.graph
    index = {
        graph.vertex_name(v): v for v in range(graph.num_vertices)
    }
    parts = [None] * graph.num_vertices
    for lineno, line in enumerate(
        Path(args.assignment).read_text().splitlines(), start=1
    ):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 2 or tokens[0] not in index:
            print(f"{args.assignment}:{lineno}: bad line {line!r}")
            return 2
        try:
            block = int(tokens[1])
        except ValueError:
            print(f"{args.assignment}:{lineno}: bad block {tokens[1]!r}")
            return 2
        if not 0 <= block < instance.num_parts:
            print(
                f"{args.assignment}:{lineno}: block {block} outside "
                f"[0, {instance.num_parts})"
            )
            return 2
        parts[index[tokens[0]]] = block
    missing = [v for v, p in enumerate(parts) if p is None]
    if missing:
        print(
            f"assignment misses {len(missing)} vertex/vertices, "
            f"e.g. {graph.vertex_name(missing[0])}"
        )
        return 2

    cut = cut_size(graph, parts)
    loads = block_loads(graph, parts, instance.num_parts)
    legal_fixture = instance.is_assignment_legal(parts)
    balance = instance.balance
    if hasattr(balance, "constraints"):  # multi-resource instance
        per_resource = [
            [
                sum(
                    graph.resource(v, r)
                    for v in range(graph.num_vertices)
                    if parts[v] == b
                )
                for b in range(instance.num_parts)
            ]
            for r in range(balance.num_resources)
        ]
        feasible = balance.is_feasible(per_resource)
    else:
        feasible = balance.is_feasible(loads)
    print(f"{args.name}: cut {cut}")
    print(
        "block loads: " + " ".join(f"{load:.1f}" for load in loads)
    )
    print(f"fixture constraints : {'OK' if legal_fixture else 'VIOLATED'}")
    print(f"balance constraints : {'OK' if feasible else 'VIOLATED'}")
    return 0 if (legal_fixture and feasible) else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    experiment = _EXPERIMENTS[args.which]
    policy = journal = None
    if experiment.runtime:
        spec = {"experiment": args.which, "profile": args.profile, "seed": 0}
        policy, journal = runtime_from_args(args, spec)
    elif (args.resume, args.timeout, args.max_retries) != (None, None, None):
        print(
            f"WARNING: {args.which} does not support "
            "--resume/--timeout/--max-retries; ignoring them"
        )
    module = importlib.import_module(f"repro.experiments.{experiment.module}")
    result = experiment.run(
        module,
        args.profile,
        {"jobs": args.jobs, "policy": policy, "journal": journal},
    )
    text, checks = experiment.render(module, result)
    emit(text, name=experiment.result.format(profile=args.profile))
    failed = [label for label, ok in checks if not ok]
    for label in failed:
        print(f"repro: shape check failed: {label}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    # Imported lazily: summarize pulls in the study drivers, which the
    # plain partition/experiment paths should not pay for.
    from repro.runtime.observe.summarize import summarize_path

    print(summarize_path(args.path))
    return 0


def _run_observed(handler, args: argparse.Namespace) -> int:
    """Run ``handler`` under a trace recorder and write the outputs."""
    recorder = observe.TraceRecorder(
        meta={"command": args.command, "argv": " ".join(sys.argv[1:])}
    )
    with observe.use(recorder):
        with recorder.span(f"cli.{args.command}"):
            code = handler(args)
    if args.trace:
        recorder.save(args.trace)
        print(f"trace written to {args.trace}")
    if args.metrics_out:
        recorder.save_metrics(args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(
        list(argv) if argv is not None else sys.argv[1:]
    )
    handlers = {
        "generate": _cmd_generate,
        "partition": _cmd_partition,
        "place": _cmd_place,
        "stats": _cmd_stats,
        "evaluate": _cmd_evaluate,
        "experiment": _cmd_experiment,
        "trace": _cmd_trace,
    }
    handler = handlers[args.command]
    try:
        if getattr(args, "trace", None) or getattr(args, "metrics_out", None):
            return _run_observed(handler, args)
        return handler(args)
    except (HypergraphError, CheckpointError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
