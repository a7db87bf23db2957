"""Kill-and-resume chaos benchmark for the fault-tolerant runtime.

The proof the checkpoint/retry machinery exists to deliver: a small
difficulty study runs under injected faults (one worker crash, one hung
start that exceeds its ``--timeout``), the driver process is SIGKILLed
mid-sweep, the study is resumed from its ``--resume`` journal, and the
final table must be bit-identical to an uninterrupted serial run.

Orchestrator mode (the default) does four things:

1. runs the study serially in-process -- no journal, no faults -- to
   get the reference fingerprint;
2. spawns a child (``--child`` mode) with ``REPRO_FAULTS`` set and a
   ``--resume`` journal, and SIGKILLs its process group once at least
   ``KILL_AFTER_CELLS`` cells are journaled;
3. re-runs the child with the same journal (fault markers are one-shot,
   so the injected failures do not re-fire) and lets it finish;
4. compares the resumed study's fingerprint against the reference and
   writes ``BENCH_chaos.json``.

Not collected by pytest (no ``test_`` prefix); run directly:

    PYTHONPATH=src python benchmarks/chaos_smoke.py [out.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.cli import add_runtime_args, runtime_from_args
from repro.core.difficulty import run_difficulty_study
from repro.experiments.circuits import load_instance
from repro.runtime import CheckpointJournal

CIRCUIT = "tiny01"
PERCENTS = (0.0, 20.0)
STARTS_LIST = (1, 2, 4)
TRIALS = 2
SEED = 3
REFERENCE_STARTS = 4
JOBS = 2
TIMEOUT = "6"
MAX_RETRIES = "2"
# crash@0: the worker running start 0 dies hard (fires once).
# sleep@3:30: start 3 hangs for 30s, far past --timeout (fires once).
FAULT_SPEC = "crash@0,sleep@3:30"
KILL_AFTER_CELLS = 5
TOTAL_CELLS = REFERENCE_STARTS + (
    2 * len(PERCENTS) * TRIALS * max(STARTS_LIST)
)

SPEC = {
    "experiment": "chaos-smoke",
    "circuit": CIRCUIT,
    "percents": PERCENTS,
    "starts_list": STARTS_LIST,
    "trials": TRIALS,
    "seed": SEED,
    "reference_starts": REFERENCE_STARTS,
}


def _fingerprint(study):
    """Everything result-bearing in a study, excluding the clocks."""
    points = [
        [p.regime, p.percent, p.starts, p.raw_cut, p.normalized_cut]
        for p in study.points
    ]
    return [["good_cut", study.good_cut]] + points


def _run_study(jobs, policy=None, journal=None):
    circuit, balance = load_instance(CIRCUIT)
    return run_difficulty_study(
        circuit.graph,
        balance,
        circuit_name=CIRCUIT,
        percents=PERCENTS,
        starts_list=STARTS_LIST,
        trials=TRIALS,
        seed=SEED,
        reference_starts=REFERENCE_STARTS,
        jobs=jobs,
        policy=policy,
        journal=journal,
    )


def child_main(argv) -> int:
    """Run the study under ``--resume/--timeout/--max-retries`` flags.

    The flags are parsed by the ``repro`` CLI's own runtime argument
    group and turned into a policy and journal by the same helper
    ``repro experiment`` uses; faults arrive via ``REPRO_FAULTS`` in the
    environment.  The clock-free fingerprint is written next to the
    journal on success.
    """
    parser = argparse.ArgumentParser(prog="chaos_smoke.py --child")
    add_runtime_args(parser)
    args = parser.parse_args(argv)
    policy, journal = runtime_from_args(args, SPEC)
    study = _run_study(jobs=JOBS, policy=policy, journal=journal)
    result_path = Path(args.resume).with_suffix(".result.json")
    result_path.write_text(json.dumps(_fingerprint(study)) + "\n")
    return 0


def _journal_records(path: Path) -> int:
    """Data records currently in the journal (0 if absent/header-only)."""
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return 0
    return max(0, len([ln for ln in lines if ln.strip()]) - 1)


def _spawn_child(journal_path: Path, state_dir: Path):
    env = dict(
        os.environ,
        PYTHONPATH="src",
        REPRO_FAULTS=FAULT_SPEC,
        REPRO_FAULT_STATE=str(state_dir),
    )
    return subprocess.Popen(
        [
            sys.executable,
            __file__,
            "--child",
            f"--resume={journal_path}",
            f"--timeout={TIMEOUT}",
            f"--max-retries={MAX_RETRIES}",
        ],
        env=env,
        start_new_session=True,
    )


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if args and args[0] == "--child":
        return child_main(args[1:])
    out_path = args[0] if args else "BENCH_chaos.json"

    work_dir = Path("chaos-smoke-work")
    work_dir.mkdir(exist_ok=True)
    journal_path = work_dir / "study.jsonl"
    state_dir = work_dir / "fault-state"
    state_dir.mkdir(exist_ok=True)
    for stale in (journal_path, journal_path.with_suffix(".result.json")):
        if stale.exists():
            stale.unlink()
    for marker in state_dir.iterdir():
        marker.unlink()

    print(f"chaos smoke: {CIRCUIT} difficulty study, {TOTAL_CELLS} cells, "
          f"faults {FAULT_SPEC!r}, jobs={JOBS}")
    t0 = time.perf_counter()
    baseline = _run_study(jobs=1)
    baseline_wall = time.perf_counter() - t0
    print(f"  uninterrupted serial baseline: {baseline_wall:.2f}s")

    child = _spawn_child(journal_path, state_dir)
    records_at_kill = 0
    killed = False
    deadline = time.monotonic() + 300
    while time.monotonic() < deadline:
        records_at_kill = _journal_records(journal_path)
        if records_at_kill >= KILL_AFTER_CELLS:
            os.killpg(os.getpgid(child.pid), signal.SIGKILL)
            killed = True
            break
        if child.poll() is not None:
            break
        time.sleep(0.01)
    child.wait()
    print(f"  first run: journaled {records_at_kill} cells, "
          f"{'SIGKILLed mid-sweep' if killed else 'exited early (BUG)'}")
    if not killed:
        print("  FAILED: child completed before the kill threshold")
        return 1

    fired = sorted(p.name for p in state_dir.iterdir())
    print(f"  faults fired before kill: {fired}")

    t1 = time.perf_counter()
    resumed = _spawn_child(journal_path, state_dir)
    code = resumed.wait(timeout=300)
    resume_wall = time.perf_counter() - t1
    if code != 0:
        print(f"  FAILED: resumed child exited with status {code}")
        return 1

    final_journal = CheckpointJournal(journal_path, SPEC)
    completed = final_journal.completed_cells()
    resumed_fingerprint = json.loads(
        journal_path.with_suffix(".result.json").read_text()
    )
    identical = resumed_fingerprint == _fingerprint(baseline)
    print(f"  resume: {resume_wall:.2f}s, journal holds {completed} of "
          f"{TOTAL_CELLS} cells, bit-identical table: {identical}")

    payload = {
        "benchmark": "chaos-smoke kill-and-resume difficulty study",
        "python": platform.python_version(),
        "circuit": CIRCUIT,
        "total_cells": TOTAL_CELLS,
        "fault_spec": FAULT_SPEC,
        "faults_fired_before_kill": fired,
        "records_at_kill": records_at_kill,
        "journal_cells_after_resume": completed,
        "baseline_wall_seconds": round(baseline_wall, 3),
        "resume_wall_seconds": round(resume_wall, 3),
        "killed_mid_run": killed,
        "results_identical": identical,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"  wrote {out_path}")

    return 0 if identical and completed == TOTAL_CELLS else 1


if __name__ == "__main__":
    raise SystemExit(main())
