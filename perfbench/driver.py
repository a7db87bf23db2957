"""One driver process: set a workload up, then run it until time is up.

``run.py`` starts this with a cleaned environment and reads the one JSON
line it prints last; it is not meant to be run by hand.  With
``--setup-only`` it measures set-up and exits.  Otherwise it runs the
workload repeatedly -- untraced, or alternating untraced and traced with
``--trace 1`` -- until ``--seconds`` have passed, and reports every run:
wall and CPU time, operation times, output checks, the result
fingerprint and, for traced runs, the per-layer profile.
"""

import time

SETUP_START = time.perf_counter()  # set-up = everything imported below

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402

import layers  # noqa: E402
from probes import Probes  # noqa: E402
from repro.runtime import observe  # noqa: E402
from workloads import WORKLOADS, fingerprint_text  # noqa: E402


def _cpu_seconds() -> float:
    """User + system time of this process and its reaped pool workers."""
    return sum(os.times()[:4])


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def run_once(workload, probes: Probes, seed: int, jobs: int, traced: bool):
    """One timed run of the workload, then its untimed checks."""
    probes.reset()
    gc.collect()
    recorder = observe.TraceRecorder() if traced else observe.NullRecorder()
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    with observe.use(recorder), recorder.span("bench.workload"):
        artefact = workload.run(seed, jobs)
    wall = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu0

    summary = workload.summary(artefact, probes)
    rep = {
        "traced": traced,
        "wall_s": wall,
        "cpu_s": cpu,
        "op_seconds": probes.op_seconds,
        "ops": len(probes.op_seconds) + probes.quarantined,
        "failed_ops": probes.quarantined + probes.verify(),
        "checks": workload.checks(artefact),
        "cut_mean": summary["cut_mean"],
        "hpwl": summary.get("hpwl", 0.0),
        "fingerprint": fingerprint_text(summary["fingerprint"]),
    }
    if traced:
        profile = layers.profile(recorder, os.getpid())
        rep["layers"] = profile
        rep["accounting_residual_s"] = profile["trace.busy_s"] - sum(
            profile[name] for name in layers.SELF_METRICS
        )
    return rep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--circuit", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--budget", type=float, default=150.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    jobs = len(os.sched_getaffinity(0))
    out = {"jobs": jobs, "tail_percentile": workload.tail_percentile}
    # The drivers may print; stdout carries only the final JSON line.
    with redirect_stdout(sys.stderr):
        workload.setup(args.circuit or workload.circuit)
        probes = Probes()
        probes.install()
        out["setup_s"] = time.perf_counter() - SETUP_START
        if not args.setup_only:
            out["reps"] = reps = []
            modes = (False, True) if args.trace else (False,)
            begin = time.perf_counter()
            while True:
                traced = modes[len(reps) % len(modes)]
                try:
                    reps.append(
                        run_once(workload, probes, args.seed, jobs, traced)
                    )
                except Exception:  # noqa: BLE001 - reported, not hidden
                    out["error"] = traceback.format_exc()
                    break
                elapsed = time.perf_counter() - begin
                if len(reps) >= len(modes) and elapsed >= args.seconds:
                    break
                if elapsed + 1.5 * reps[-1]["wall_s"] > args.budget:
                    break
            out["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
