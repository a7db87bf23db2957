"""Smoke test of the benchmark runner on the 300-cell ``tiny01`` circuit.

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` on ``tiny01`` with tracing off
and on, and fails unless each result prints exactly the metrics
``BENCHMARK.json`` names for that mode, each with its unit, repeated and
traced runs give identical results, every operation re-verifies, and
each traced run's per-layer self times add up to its traced busy time.
Paper shape checks are reported but not required on so small a circuit.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from layers import SELF_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED: {message}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace),
                 "--circuit", "tiny01"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
            )
            where = f"{workload} --trace {trace}"
            check(proc.returncode == 0, f"{where}: exit {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            report = json.loads(lines[-2])["report"]
            result = json.loads(lines[-1])
            check(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{where}: result keys {sorted(result)}",
            )
            check(report["results_identical"], f"{where}: results differ")
            # tiny01 is no paper circuit, so a paper shape check may fail
            # there; every other failure counts.
            shape_failures = len(report["failed_checks"]) * (
                report["runs"] + report["traced_runs"]
            )
            check(
                result["failed"] <= shape_failures,
                f"{where}: {result['failed']} failures",
            )
            metrics = result["metrics"]
            expected = {m["name"]: m["unit"] for m in spec[group]}
            check(set(metrics) == set(expected), f"{where}: metric names")
            for name, unit in expected.items():
                check(metrics[name]["unit"] == unit, f"{where}: unit of {name}")
            if trace:
                busy = metrics["trace.busy_s"]["value"]
                total = sum(metrics[name]["value"] for name in SELF_METRICS)
                check(busy > 0, f"{where}: no traced busy time")
                check(
                    abs(total - busy) <= 1e-6 * busy,
                    f"{where}: self times sum to {total}, busy is {busy}",
                )
            print(f"smoke: {where}: ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
