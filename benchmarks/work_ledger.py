"""Work ledger: the exact work counters of the benchmark workloads.

Wall time is noisy; the work the engines do is not.  For a given seed
the counters the engines emit under a :class:`TraceRecorder` (FM runs,
passes, moves and bucket traffic, multilevel runs and levels, multistart
batches, contractions) are exact and do not depend on ``jobs``.  This
script runs each workload of ``perfbench/workloads.py`` once, as a
seed-1 perfbench run does (``setup`` on its circuit, then
``run(seed=1, jobs=2)``):

* ``fig1-quick``: one Fig. 1 quick study;
* ``table3-quick``: four Table III quick passes (driver seeds 4-7);
* ``table4-ibm01s``: three ``ibm01s`` placements (placer seeds 3-5);

and compares their ``fm.*``, ``multilevel.*``, ``multistart.*`` and
``contract.*`` counters with the committed ``BENCH_work.json``.  Pool
and checkpoint counters describe how the work was scheduled, not how
much there was, so the ledger leaves them out.

A change that only makes each unit of work cheaper leaves the file
byte-identical; one that adds or removes moves, passes or starts shows
up as an exact diff even when the results do not change.  Run from the
repository root:

    PYTHONPATH=src:. python benchmarks/work_ledger.py [--regen]

Exits 1 and prints every differing counter when the counts differ from
the committed file; ``--regen`` rewrites the file instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from perfbench.workloads import WORKLOADS
from repro.runtime import observe

SEED = 1
# Any value gives the same counters; 2 matches perfbench on a 2-core box.
JOBS = 2
LEDGER = Path(__file__).resolve().parent.parent / "BENCH_work.json"
KEPT_PREFIXES = ("fm.", "multilevel.", "multistart.", "contract.")


def measure() -> dict:
    """Run every workload under its own recorder; return the ledger."""
    ledger = {}
    for name, workload in WORKLOADS.items():
        workload.setup(workload.circuit)
        recorder = observe.TraceRecorder()
        with observe.use(recorder):
            workload.run(seed=SEED, jobs=JOBS)
        ledger[name] = {
            key: value
            for key, value in sorted(recorder.counters.items())
            if key.startswith(KEPT_PREFIXES)
        }
    return {"benchmark": "work ledger", "seed": SEED, "workloads": ledger}


def render(ledger: dict) -> str:
    return json.dumps(ledger, indent=2, sort_keys=True) + "\n"


def _differences(want: dict, got: dict) -> list:
    lines = []
    names = sorted(set(want["workloads"]) | set(got["workloads"]))
    for name in names:
        old = want["workloads"].get(name, {})
        new = got["workloads"].get(name, {})
        for key in sorted(set(old) | set(new)):
            if old.get(key) != new.get(key):
                lines.append(
                    f"{name}: {key}: {old.get(key)} -> {new.get(key)}"
                )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument(
        "--regen", action="store_true", help=f"rewrite {LEDGER.name}"
    )
    args = parser.parse_args(argv)

    text = render(measure())
    if args.regen:
        LEDGER.write_text(text)
        print(f"wrote {LEDGER}")
        return 0
    committed = LEDGER.read_text()
    if text == committed:
        print(f"{LEDGER.name}: identical")
        return 0
    diffs = _differences(json.loads(committed), json.loads(text))
    print(f"{LEDGER.name}: the work differs from the committed ledger")
    for line in diffs or ["(formatting only; rerun with --regen)"]:
        print("  " + line)
    return 1


if __name__ == "__main__":
    sys.exit(main())
