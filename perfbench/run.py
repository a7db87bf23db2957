"""End-to-end and per-layer benchmark of the fixed-vertices partitioner.

    python3 perfbench/run.py --workload fig1-quick --seed 0 --seconds 20 --trace 0

Runs one workload (see ``BENCHMARK.json`` and ``perfbench/README.md``)
from the source tree and prints, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives
every ``end_to_end`` metric, measured with tracing off; ``--trace 1``
gives every ``per_layer`` metric, from a traced run that alternates with
untraced ones.  The line before it is a report: the machine
(affinity-mask ``cpu_count``, ``jobs``, Python, git commit), the result
fingerprint, the informational checks and the tail percentile used.

The workload runs in one driver process (``driver.py``) with
``jobs`` = the affinity-mask core count and without ``REPRO_FAULTS``,
``REPRO_FAULT_STATE`` or ``REPRO_JOBS``; set-up is measured in several
fresh processes and reported as the median.  Exits 2, printing no
result, when the source tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig1-quick", "table3-quick", "table4-ibm01s")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0  # a run must end well inside three minutes
SCRUBBED_ENV = ("REPRO_FAULTS", "REPRO_FAULT_STATE", "REPRO_JOBS")


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a wrong result)."""


def _environment() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _driver(args: List[str], env: Dict[str, str], timeout: float) -> dict:
    """Run ``driver.py`` in its own process group; return its JSON line."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "driver.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise BenchError(f"driver exceeded {timeout:.0f}s: {args}") from None
    finally:
        # Stops the driver and any pool worker it left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"driver failed (exit {proc.returncode}): {args}")
    return json.loads(lines[-1])


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` (``unknown`` without)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _percentile(values: List[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def _end_to_end(plain: List[dict], setups: List[float], peak_rss_mb: float,
                tail: int, ok_frac: float) -> Dict[str, float]:
    ops = [s for rep in plain for s in rep["op_seconds"]]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "op_p50_ms": 1000.0 * statistics.median(ops),
        "op_tail_ms": 1000.0 * _percentile(ops, tail),
        "cut_mean": plain[0]["cut_mean"],
        "ok_frac": ok_frac,
    }


def _per_layer(plain: List[dict], traced: List[dict]) -> Dict[str, float]:
    # One whole traced run (the one of median wall time), so its layer
    # self times still add up to its busy time.
    traced = sorted(traced, key=lambda r: r["wall_s"])
    rep = traced[(len(traced) - 1) // 2]
    metrics = dict(rep["layers"])
    metrics["place.hpwl"] = rep["hpwl"]
    metrics["trace.overhead"] = statistics.median(
        r["wall_s"] for r in traced
    ) / statistics.median(r["wall_s"] for r in plain)
    return metrics


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--circuit", default=None,
        help="run the workload on another circuit (smoke tests)",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    begin = time.monotonic()
    env = _environment()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.circuit:
        common += ["--circuit", args.circuit]
    try:
        setups = [
            _driver(common + ["--setup-only"], env, 60.0)["setup_s"]
            for _ in range(SETUP_SAMPLES)
        ]
        remaining = TIME_LIMIT_S - (time.monotonic() - begin)
        result = _driver(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--budget", str(remaining - 10.0)],
            env, remaining,
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if "error" in result:
        print(result["error"], file=sys.stderr)
        print("perfbench: the workload raised", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    reps = result["reps"]
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    if not plain or (args.trace and not traced):
        print("perfbench: ran out of time before measuring", file=sys.stderr)
        return 1

    attempted = failed = 0
    failed_checks, info_checks = set(), {}
    reference = reps[0]["fingerprint"]
    for rep in reps:
        attempted += rep["ops"]
        failed += rep["failed_ops"]
        for label, ok, informational in rep["checks"]:
            if informational:
                info_checks[label] = ok
                continue
            attempted += 1
            if not ok:
                failed += 1
                failed_checks.add(label)
        # Traced and untraced runs, and repeated runs, must agree.
        attempted += 1
        failed += rep["fingerprint"] != reference
        if rep["traced"]:
            attempted += 1
            failed += abs(rep["accounting_residual_s"]) > 1e-6 * rep["wall_s"]
    ok_frac = 1.0 - failed / attempted

    if args.trace:
        values = _per_layer(plain, traced)
        group = spec["per_layer"]
    else:
        values = _end_to_end(plain, setups, result["peak_rss_mb"],
                             result["tail_percentile"], ok_frac)
        group = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in group
    }

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "cpu_count": len(os.sched_getaffinity(0)),
        "jobs": result["jobs"],
        "python": platform.python_version(),
        "commit": _git_commit(),
        "runs": len(plain),
        "traced_runs": len(traced),
        "results_identical": all(r["fingerprint"] == reference for r in reps),
        "fingerprint": hashlib.sha256(reference.encode()).hexdigest()[:16],
        "tail_percentile": result["tail_percentile"],
        "op_samples": sum(len(r["op_seconds"]) for r in plain),
        "setup_samples": setups,
        "failed_checks": sorted(failed_checks),
        "info_checks": info_checks,
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
