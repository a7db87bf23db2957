"""FM kernel benchmark: flat-array kernel vs. the retained reference.

Runs the 2-way FM engines (kernel: ``repro.partition.fm``, reference:
``repro.partition.fm_reference``) and the k-way pair (kernel:
``repro.partition.kwayfm``, reference: the test oracle
``tests.oracles.kwayfm_reference``) over generated
instances with several fixed-vertex fractions, with ``record_moves``
on for both sides, and

* asserts the results are bit-identical (cuts, parts, pass records and
  full pre-rollback move sequences);
* measures total FM wall time per side and reports the speedup plus
  moves/second and mean per-pass milliseconds;
* writes everything to ``BENCH_fm_kernel.json``.

The exit status reflects only the determinism contract (0 iff every
comparison was identical); the speedup is recorded, not gated, so the
benchmark stays useful on starved CI machines.

Not collected by pytest (no ``test_`` prefix); run directly:

    PYTHONPATH=src:. python benchmarks/fm_kernel.py [out.json] [ci|quick|full]

(``.``, the repository root, makes the ``tests.oracles`` package
importable.)

``ci`` runs two small instances with 2 starts (the determinism gate for
continuous integration); ``quick`` is the default local profile; ``full``
adds the larger circuits.
"""

from __future__ import annotations

import gc
import json
import platform
import random
import sys
import time
from typing import Dict, List, Tuple

from repro.hypergraph.generators import (
    CircuitSpec,
    clustered_hypergraph,
    generate_circuit,
    grid_hypergraph,
    random_k_uniform,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.balance import (
    relative_balance,
    relative_bipartition_balance,
)
from repro.partition.fm import FMBipartitioner, FMConfig
from repro.partition.fm_reference import ReferenceFMBipartitioner
from repro.partition.kwayfm import KWayFMConfig, KWayFMRefiner
from repro.partition.solution import FREE
from tests.oracles.kwayfm_reference import ReferenceKWayFMRefiner

FIXED_FRACTIONS = (0.0, 0.2)


def _instances(profile: str) -> List[Tuple[str, Hypergraph]]:
    """Generated benchmark instances, smallest first."""
    if profile == "ci":
        # One narrow-net and one tailed-net instance: enough to assert
        # the determinism contract on every push without tying up a
        # shared runner; speedups on CI machines are recorded, not
        # gated.
        return [
            ("grid-24x24", grid_hypergraph(24, 24)),
            (
                "circuit-600",
                generate_circuit(CircuitSpec(num_cells=600), seed=5).graph,
            ),
        ]
    out: List[Tuple[str, Hypergraph]] = [
        ("grid-40x40", grid_hypergraph(40, 40)),
        (
            "clustered-24x30",
            clustered_hypergraph(
                num_clusters=24,
                cluster_size=30,
                intra_nets=60,
                inter_nets=40,
                seed=11,
            ),
        ),
        (
            "circuit-1200",
            generate_circuit(CircuitSpec(num_cells=1200), seed=5).graph,
        ),
        # Wide nets (8 pins each): the regime where the kernel's O(1)
        # id-sum single-pin update beats the reference's epins scan.
        # Sized to carry weight comparable to the narrow-net instances;
        # real netlists (e.g. ISPD-98) have exactly this kind of
        # high-fanout tail next to their 2-3 pin nets.
        (
            "uniform8-2400",
            random_k_uniform(2400, 1600, 8, seed=3),
        ),
        # Bus-heavy synthetic circuit: the same tailed net-size model as
        # circuit-1200 but with a longer tail (cap 24) and higher pin
        # density, matching bus/high-fanout-rich netlists.
        (
            "circuit-1500-wide",
            generate_circuit(
                CircuitSpec(
                    num_cells=1500, pins_per_cell=4.5, net_size_cap=24
                ),
                seed=13,
            ).graph,
        ),
    ]
    if profile == "full":
        out.append(
            (
                "circuit-4000",
                generate_circuit(CircuitSpec(num_cells=4000), seed=7).graph,
            )
        )
        out.append(
            (
                "circuit-6000-1d",
                generate_circuit(
                    CircuitSpec(num_cells=6000, dimensions=1), seed=9
                ).graph,
            )
        )
    return out


def _fixture(graph: Hypergraph, fraction: float, num_parts: int,
             seed: int) -> List[int]:
    rng = random.Random(seed)
    fixture = [FREE] * graph.num_vertices
    if fraction > 0.0:
        for v in range(graph.num_vertices):
            if rng.random() < fraction:
                fixture[v] = rng.randrange(num_parts)
    return fixture


def _fm_fingerprint(result) -> Tuple:
    """Everything result-bearing in an FMResult."""
    return (
        result.initial_cut,
        result.solution.cut,
        tuple(result.solution.parts),
        tuple(result.passes),
        tuple(tuple(log) for log in result.move_logs),
    )


def _kway_fingerprint(result) -> Tuple:
    return (
        result.initial_cut,
        result.cut,
        tuple(result.parts),
        result.num_passes,
        result.total_moves,
        tuple(result.pass_moves),
        tuple(tuple(log) for log in result.move_logs),
    )


REPS = 3
"""Timing repetitions per engine; the minimum is reported (the standard
noise-robust estimator -- both engines are deterministic, so repeated
runs do identical work and the minimum is the least-perturbed one)."""


def _time_runs(run_all, reps: int = REPS) -> Tuple[float, list]:
    """Minimum wall time of ``reps`` executions of ``run_all``."""
    best = float("inf")
    results = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            t0 = time.perf_counter()
            results = run_all()
            elapsed = time.perf_counter() - t0
            if elapsed < best:
                best = elapsed
    finally:
        if gc_was_enabled:
            gc.enable()
    return best, results


def _bench_fm(
    graph: Hypergraph,
    policy: str,
    fraction: float,
    num_starts: int,
    seed: int,
    move_limit_fraction: float = 1.0,
    tolerance: float = 0.1,
) -> Dict:
    """Time reference vs. kernel 2-way FM over identical starts."""
    balance = relative_bipartition_balance(graph.total_area, tolerance)
    fixture = _fixture(graph, fraction, 2, seed)
    config = FMConfig(
        policy=policy,
        pass_move_limit_fraction=move_limit_fraction,
        record_moves=True,
    )
    rng = random.Random(seed + 1)
    starts = [
        [rng.randint(0, 1) for _ in range(graph.num_vertices)]
        for _ in range(num_starts)
    ]

    ref_engine = ReferenceFMBipartitioner(
        graph, balance, fixture=fixture, config=config
    )
    ref_seconds, ref_results = _time_runs(
        lambda: [ref_engine.run(parts) for parts in starts]
    )

    kernel_engine = FMBipartitioner(
        graph, balance, fixture=fixture, config=config
    )
    kernel_seconds, kernel_results = _time_runs(
        lambda: [kernel_engine.run(parts) for parts in starts]
    )

    identical = all(
        _fm_fingerprint(r) == _fm_fingerprint(k)
        for r, k in zip(ref_results, kernel_results)
    )
    total_moves = sum(r.total_moves for r in kernel_results)
    total_passes = sum(r.num_passes for r in kernel_results)
    return {
        "engine": "fm2",
        "policy": policy,
        "fixed_fraction": fraction,
        "move_limit_fraction": move_limit_fraction,
        "tolerance": tolerance,
        "starts": num_starts,
        "cuts": [r.solution.cut for r in kernel_results],
        "total_moves": total_moves,
        "total_passes": total_passes,
        "reference_seconds": round(ref_seconds, 4),
        "kernel_seconds": round(kernel_seconds, 4),
        "speedup": round(ref_seconds / kernel_seconds, 3)
        if kernel_seconds > 0
        else 0.0,
        "kernel_moves_per_second": round(total_moves / kernel_seconds, 1)
        if kernel_seconds > 0
        else 0.0,
        "kernel_ms_per_pass": round(1000.0 * kernel_seconds / total_passes, 3)
        if total_passes
        else 0.0,
        "results_identical": identical,
    }


def _bench_kway(
    graph: Hypergraph,
    num_parts: int,
    fraction: float,
    num_starts: int,
    seed: int,
) -> Dict:
    """Time reference vs. kernel k-way FM over identical starts."""
    balance = relative_balance(graph.total_area, num_parts, 0.15)
    fixture = _fixture(graph, fraction, num_parts, seed)
    config = KWayFMConfig(record_moves=True)
    rng = random.Random(seed + 1)
    starts = [
        (
            [rng.randrange(num_parts) for _ in range(graph.num_vertices)],
            rng.getrandbits(32),
        )
        for _ in range(num_starts)
    ]

    ref_engine = ReferenceKWayFMRefiner(
        graph, balance, fixture=fixture, config=config
    )
    ref_seconds, ref_results = _time_runs(
        lambda: [ref_engine.run(parts, seed=s) for parts, s in starts]
    )

    kernel_engine = KWayFMRefiner(
        graph, balance, fixture=fixture, config=config
    )
    kernel_seconds, kernel_results = _time_runs(
        lambda: [kernel_engine.run(parts, seed=s) for parts, s in starts]
    )

    identical = all(
        _kway_fingerprint(r) == _kway_fingerprint(k)
        for r, k in zip(ref_results, kernel_results)
    )
    total_moves = sum(r.total_moves for r in kernel_results)
    total_passes = sum(r.num_passes for r in kernel_results)
    return {
        "engine": f"kway{num_parts}",
        "policy": "kway",
        "fixed_fraction": fraction,
        "starts": num_starts,
        "cuts": [r.cut for r in kernel_results],
        "total_moves": total_moves,
        "total_passes": total_passes,
        "reference_seconds": round(ref_seconds, 4),
        "kernel_seconds": round(kernel_seconds, 4),
        "speedup": round(ref_seconds / kernel_seconds, 3)
        if kernel_seconds > 0
        else 0.0,
        "kernel_moves_per_second": round(total_moves / kernel_seconds, 1)
        if kernel_seconds > 0
        else 0.0,
        "kernel_ms_per_pass": round(1000.0 * kernel_seconds / total_passes, 3)
        if total_passes
        else 0.0,
        "results_identical": identical,
    }


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    out_path = args[0] if args else "BENCH_fm_kernel.json"
    profile = args[1] if len(args) > 1 else "quick"
    if profile not in ("ci", "quick", "full"):
        raise SystemExit(f"unknown profile {profile!r}; use ci|quick|full")
    num_starts = {"ci": 2, "quick": 3, "full": 5}[profile]

    entries = []
    for name, graph in _instances(profile):
        print(
            f"{name}: {graph.num_vertices} vertices, "
            f"{graph.num_nets} nets, {graph.num_pins} pins"
        )
        for fraction in FIXED_FRACTIONS:
            for policy in ("lifo", "fifo", "clip"):
                entry = _bench_fm(
                    graph, policy, fraction, num_starts, seed=42
                )
                entry["instance"] = name
                entries.append(entry)
                print(
                    f"  fm2/{policy} fixed={int(100 * fraction)}%: "
                    f"{entry['reference_seconds']:.2f}s -> "
                    f"{entry['kernel_seconds']:.2f}s "
                    f"({entry['speedup']:.2f}x, identical="
                    f"{entry['results_identical']})"
                )
        # Two CLIP entries at 20% fixed beside the 10%-window grid:
        # the paper's Section III pass cutoff (passes after the first
        # stop at 10% of the movable vertices; short passes are where
        # incremental pass state matters most, as the restore replays
        # O(min(moves kept, moves undone)) moves instead of an O(pins)
        # rebuild), and the paper's 2% balance tolerance (windows a few
        # cells wide, so selection steps past balance-blocked cells).
        for label, options in (
            ("cutoff=10%", {"move_limit_fraction": 0.1}),
            ("tolerance=2%", {"tolerance": 0.02}),
        ):
            entry = _bench_fm(
                graph, "clip", 0.2, num_starts, seed=42, **options
            )
            entry["instance"] = name
            entries.append(entry)
            print(
                f"  fm2/clip {label} fixed=20%: "
                f"{entry['reference_seconds']:.2f}s -> "
                f"{entry['kernel_seconds']:.2f}s "
                f"({entry['speedup']:.2f}x, identical="
                f"{entry['results_identical']})"
            )
        entry = _bench_kway(graph, 4, 0.2, max(2, num_starts - 1), seed=42)
        entry["instance"] = name
        entries.append(entry)
        print(
            f"  kway4 fixed=20%: {entry['reference_seconds']:.2f}s -> "
            f"{entry['kernel_seconds']:.2f}s ({entry['speedup']:.2f}x, "
            f"identical={entry['results_identical']})"
        )

    ref_total = sum(e["reference_seconds"] for e in entries)
    kernel_total = sum(e["kernel_seconds"] for e in entries)
    identical = all(e["results_identical"] for e in entries)
    speedup = ref_total / kernel_total if kernel_total > 0 else 0.0
    print(
        f"total FM wall time: {ref_total:.2f}s reference, "
        f"{kernel_total:.2f}s kernel -> {speedup:.2f}x speedup, "
        f"identical={identical}"
    )

    payload = {
        "benchmark": "fm-kernel vs reference",
        "profile": profile,
        "python": platform.python_version(),
        "reference_total_seconds": round(ref_total, 3),
        "kernel_total_seconds": round(kernel_total, 3),
        "speedup": round(speedup, 3),
        "results_identical": identical,
        "entries": entries,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out_path}")

    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
