"""Coarsening kernel benchmark: flat-array pipeline vs. the references.

Times the three coarsening stages (heavy-edge matching, random matching,
contraction) plus whole-hierarchy construction, kernel
(``repro.partition.matching`` / ``repro.hypergraph.contraction``) against
the test oracles (``tests.oracles.matching_reference`` /
``tests.oracles.contraction_reference``), and an end-to-end multilevel
comparison of the full kernel stack (kernel coarsening + flat FM +
pooled engines) against the full reference stack (reference coarsening
+ reference FM, fresh engine per level).  For every comparison it

* asserts the results are bit-identical (labels, coarse CSR buffers,
  weights, areas, fixtures, final cuts and partition vectors);
* measures wall time per side and reports per-stage and aggregate
  speedups;
* writes everything to ``BENCH_coarsening.json``.

The exit status reflects only the determinism contract (0 iff every
comparison was identical); the speedups are recorded, not gated, so the
benchmark stays useful on starved CI machines.

Not collected by pytest (no ``test_`` prefix); run directly:

    PYTHONPATH=src:. python benchmarks/coarsening.py [out.json] [ci|quick|full]

(``.``, the repository root, makes the ``tests.oracles`` package
importable.)

``ci`` runs two small instances (the determinism gate for continuous
integration); ``quick`` is the default local profile; ``full`` adds a
larger circuit.
"""

from __future__ import annotations

import gc
import json
import platform
import random
import sys
import time
from typing import Dict, List, Tuple

from repro.hypergraph.contraction import contract
from repro.hypergraph.generators import (
    CircuitSpec,
    clustered_hypergraph,
    generate_circuit,
    grid_hypergraph,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.fm import FMConfig
from repro.partition.fm_reference import ReferenceFMBipartitioner
from repro.partition.matching import (
    CoarseLevel,
    heavy_edge_matching,
    random_matching,
)
from repro.partition.multilevel import (
    MultilevelBipartitioner,
    MultilevelConfig,
)
from repro.partition.solution import FREE
from tests.oracles import contraction_reference, matching_reference

FIXED_FRACTIONS = (0.0, 0.2, 0.5)
MATCH_SEEDS = (11, 12, 13)
"""Seeds per stage entry; each timed call consumes one fresh rng."""


def _instances(profile: str) -> List[Tuple[str, Hypergraph]]:
    """Generated benchmark instances, smallest first."""
    if profile == "ci":
        return [
            ("grid-24x24", grid_hypergraph(24, 24)),
            (
                "circuit-600",
                generate_circuit(CircuitSpec(num_cells=600), seed=5).graph,
            ),
        ]
    out: List[Tuple[str, Hypergraph]] = [
        ("grid-32x32", grid_hypergraph(32, 32)),
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
            "circuit-1500",
            generate_circuit(CircuitSpec(num_cells=1500), seed=5).graph,
        ),
        (
            "circuit-4000",
            generate_circuit(CircuitSpec(num_cells=4000), seed=7).graph,
        ),
    ]
    if profile == "full":
        out.append(
            (
                "circuit-8000",
                generate_circuit(CircuitSpec(num_cells=8000), seed=9).graph,
            )
        )
    return out


def _fixture(graph: Hypergraph, fraction: float, seed: int) -> List[int]:
    rng = random.Random(seed)
    fixture = [FREE] * graph.num_vertices
    if fraction > 0.0:
        for v in range(graph.num_vertices):
            if rng.random() < fraction:
                fixture[v] = rng.randrange(2)
    return fixture


def _coarse_fingerprint(contraction) -> Tuple:
    """Everything result-bearing in a Contraction, as raw buffer bytes."""
    buffers = contraction.coarse.to_buffers()
    return (
        buffers["num_vertices"],
        buffers["net_ptr"].tobytes(),
        buffers["net_pins"].tobytes(),
        buffers["vtx_ptr"].tobytes(),
        buffers["vtx_nets"].tobytes(),
        buffers["areas"].tobytes(),
        buffers["net_weights"].tobytes(),
        tuple(contraction.fine_to_coarse),
    )


def _hierarchy_fingerprint(levels: List[CoarseLevel]) -> Tuple:
    return tuple(
        _coarse_fingerprint(level.contraction) + (tuple(level.fixture),)
        for level in levels
    )


def _multilevel_fingerprint(result) -> Tuple:
    return (
        result.solution.cut,
        tuple(result.solution.parts),
        result.num_levels,
        result.coarsest_vertices,
        result.refinement_passes,
    )


REPS = 5
"""Timing repetitions per side; the minimum is reported (the standard
noise-robust estimator -- both sides are deterministic, so repeated runs
do identical work and the minimum is the least-perturbed one)."""


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


def _entry(
    stage: str,
    scheme: str,
    fraction: float,
    ref_seconds: float,
    kernel_seconds: float,
    identical: bool,
) -> Dict:
    return {
        "stage": stage,
        "scheme": scheme,
        "fixed_fraction": fraction,
        "reference_seconds": round(ref_seconds, 4),
        "kernel_seconds": round(kernel_seconds, 4),
        "speedup": round(ref_seconds / kernel_seconds, 3)
        if kernel_seconds > 0
        else 0.0,
        "results_identical": identical,
    }


def _bench_matching(
    graph: Hypergraph, scheme: str, fraction: float
) -> Dict:
    """Time reference vs. kernel matching over identical fresh rngs."""
    fixture = _fixture(graph, fraction, seed=7)
    max_cluster_area = 0.04 * graph.total_area

    if scheme == "heavy":
        kernel_fn = heavy_edge_matching
        ref_fn = matching_reference.heavy_edge_matching
    else:
        kernel_fn = random_matching
        ref_fn = matching_reference.random_matching

    ref_seconds, ref_labels = _time_runs(
        lambda: [
            ref_fn(
                graph,
                fixture=fixture,
                rng=random.Random(seed),
                max_cluster_area=max_cluster_area,
            )
            for seed in MATCH_SEEDS
        ]
    )
    kernel_seconds, kernel_labels = _time_runs(
        lambda: [
            kernel_fn(
                graph,
                fixture=fixture,
                rng=random.Random(seed),
                max_cluster_area=max_cluster_area,
                num_parts=2,
            )
            for seed in MATCH_SEEDS
        ]
    )
    identical = ref_labels == kernel_labels
    return _entry(
        "matching", scheme, fraction, ref_seconds, kernel_seconds, identical
    )


def _bench_contraction(graph: Hypergraph, fraction: float) -> Dict:
    """Time reference vs. kernel contraction over identical labelings."""
    fixture = _fixture(graph, fraction, seed=7)
    max_cluster_area = 0.04 * graph.total_area
    labelings = [
        matching_reference.heavy_edge_matching(
            graph,
            fixture=fixture,
            rng=random.Random(seed),
            max_cluster_area=max_cluster_area,
        )
        for seed in MATCH_SEEDS
    ]

    ref_seconds, ref_results = _time_runs(
        lambda: [
            contraction_reference.contract(graph, labels)
            for labels in labelings
        ]
    )
    kernel_seconds, kernel_results = _time_runs(
        lambda: [contract(graph, labels) for labels in labelings]
    )
    identical = all(
        _coarse_fingerprint(r) == _coarse_fingerprint(k)
        for r, k in zip(ref_results, kernel_results)
    )
    return _entry(
        "contraction", "-", fraction, ref_seconds, kernel_seconds, identical
    )


class _ReferenceMultilevel(MultilevelBipartitioner):
    """The multilevel driver running the full reference stack: reference
    matchers, reference contraction, and a fresh reference FM engine per
    level per start (the pre-pool allocation pattern)."""

    def _match(self, graph, fixture, rng, max_cluster_area):
        if self.config.matching == "heavy":
            return matching_reference.heavy_edge_matching(
                graph,
                fixture=fixture,
                rng=rng,
                max_cluster_area=max_cluster_area,
            )
        return matching_reference.random_matching(
            graph,
            fixture=fixture,
            rng=rng,
            max_cluster_area=max_cluster_area,
        )

    def _coarsen(self, graph, fixture, labels):
        return matching_reference.coarsen(graph, fixture, labels)

    def _flat_engine(self, graph, fixture, depth):
        return ReferenceFMBipartitioner(
            graph, self.balance, fixture=fixture, config=FMConfig(policy="clip")
        )


def _bench_hierarchy(
    graph: Hypergraph, scheme: str, fraction: float
) -> Dict:
    """Time whole-hierarchy construction, kernel vs. reference."""
    fixture = _fixture(graph, fraction, seed=7)
    config = MultilevelConfig(matching=scheme)
    kernel_driver = MultilevelBipartitioner(
        graph, fixture=fixture, config=config
    )
    ref_driver = _ReferenceMultilevel(graph, fixture=fixture, config=config)

    ref_seconds, ref_levels = _time_runs(
        lambda: [
            ref_driver._build_hierarchy(random.Random(seed))
            for seed in MATCH_SEEDS
        ]
    )
    kernel_seconds, kernel_levels = _time_runs(
        lambda: [
            kernel_driver._build_hierarchy(random.Random(seed))
            for seed in MATCH_SEEDS
        ]
    )
    identical = all(
        _hierarchy_fingerprint(r) == _hierarchy_fingerprint(k)
        for r, k in zip(ref_levels, kernel_levels)
    )
    return _entry(
        "hierarchy", scheme, fraction, ref_seconds, kernel_seconds, identical
    )


def _bench_multilevel_e2e(
    graph: Hypergraph, fraction: float, seeds: Tuple[int, ...]
) -> Dict:
    """End-to-end multilevel: full kernel stack vs. full reference stack.

    Captures the combined coarsening-kernel + FM-kernel + engine-pool
    gain in one number (reference coarsening + reference FM + per-level
    engine allocation on one side; kernel everything on the other).
    """
    fixture = _fixture(graph, fraction, seed=7)
    # The reference FM engine makes exhaustive passes only, so the kernel
    # side runs with the adaptive stopping rule off to stay comparable.
    config = MultilevelConfig(adaptive_stop=False)
    kernel_driver = MultilevelBipartitioner(
        graph, fixture=fixture, config=config
    )
    ref_driver = _ReferenceMultilevel(graph, fixture=fixture, config=config)

    ref_seconds, ref_results = _time_runs(
        lambda: [ref_driver.run(seed) for seed in seeds]
    )
    kernel_seconds, kernel_results = _time_runs(
        lambda: [kernel_driver.run(seed) for seed in seeds]
    )
    identical = all(
        _multilevel_fingerprint(r) == _multilevel_fingerprint(k)
        for r, k in zip(ref_results, kernel_results)
    )
    entry = _entry(
        "multilevel-e2e",
        "heavy",
        fraction,
        ref_seconds,
        kernel_seconds,
        identical,
    )
    entry["starts"] = len(seeds)
    entry["cuts"] = [r.solution.cut for r in kernel_results]
    return entry


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    out_path = args[0] if args else "BENCH_coarsening.json"
    profile = args[1] if len(args) > 1 else "quick"
    if profile not in ("ci", "quick", "full"):
        raise SystemExit(f"unknown profile {profile!r}; use ci|quick|full")
    fractions = (0.0, 0.2) if profile == "ci" else FIXED_FRACTIONS
    e2e_seeds = {"ci": (0,), "quick": (0, 1), "full": (0, 1, 2)}[profile]

    stage_entries = []
    e2e_entries = []
    for name, graph in _instances(profile):
        print(
            f"{name}: {graph.num_vertices} vertices, "
            f"{graph.num_nets} nets, {graph.num_pins} pins"
        )
        for fraction in fractions:
            for scheme in ("heavy", "random"):
                entry = _bench_matching(graph, scheme, fraction)
                entry["instance"] = name
                stage_entries.append(entry)
                print(
                    f"  matching/{scheme} fixed={int(100 * fraction)}%: "
                    f"{entry['reference_seconds']:.2f}s -> "
                    f"{entry['kernel_seconds']:.2f}s "
                    f"({entry['speedup']:.2f}x, identical="
                    f"{entry['results_identical']})"
                )
            entry = _bench_contraction(graph, fraction)
            entry["instance"] = name
            stage_entries.append(entry)
            print(
                f"  contraction fixed={int(100 * fraction)}%: "
                f"{entry['reference_seconds']:.2f}s -> "
                f"{entry['kernel_seconds']:.2f}s "
                f"({entry['speedup']:.2f}x, identical="
                f"{entry['results_identical']})"
            )
        # Whole-hierarchy construction exercises the kernels at every
        # level (where graphs shrink and per-call overhead matters) plus
        # guard-free fixture propagation; one fraction per scheme keeps
        # the profile bounded.
        for scheme in ("heavy", "random"):
            entry = _bench_hierarchy(graph, scheme, 0.2)
            entry["instance"] = name
            stage_entries.append(entry)
            print(
                f"  hierarchy/{scheme} fixed=20%: "
                f"{entry['reference_seconds']:.2f}s -> "
                f"{entry['kernel_seconds']:.2f}s "
                f"({entry['speedup']:.2f}x, identical="
                f"{entry['results_identical']})"
            )
        entry = _bench_multilevel_e2e(graph, 0.2, e2e_seeds)
        entry["instance"] = name
        e2e_entries.append(entry)
        print(
            f"  multilevel-e2e fixed=20%: "
            f"{entry['reference_seconds']:.2f}s -> "
            f"{entry['kernel_seconds']:.2f}s "
            f"({entry['speedup']:.2f}x, identical="
            f"{entry['results_identical']})"
        )

    ref_total = sum(e["reference_seconds"] for e in stage_entries)
    kernel_total = sum(e["kernel_seconds"] for e in stage_entries)
    e2e_ref = sum(e["reference_seconds"] for e in e2e_entries)
    e2e_kernel = sum(e["kernel_seconds"] for e in e2e_entries)
    entries = stage_entries + e2e_entries
    identical = all(e["results_identical"] for e in entries)
    speedup = ref_total / kernel_total if kernel_total > 0 else 0.0
    e2e_speedup = e2e_ref / e2e_kernel if e2e_kernel > 0 else 0.0
    print(
        f"coarsening stages: {ref_total:.2f}s reference, "
        f"{kernel_total:.2f}s kernel -> {speedup:.2f}x speedup"
    )
    print(
        f"end-to-end multilevel (reference stack vs kernel stack): "
        f"{e2e_ref:.2f}s -> {e2e_kernel:.2f}s "
        f"({e2e_speedup:.2f}x), identical={identical}"
    )

    payload = {
        "benchmark": "coarsening-kernel vs reference",
        "profile": profile,
        "python": platform.python_version(),
        "reference_total_seconds": round(ref_total, 3),
        "kernel_total_seconds": round(kernel_total, 3),
        "speedup": round(speedup, 3),
        "e2e_reference_total_seconds": round(e2e_ref, 3),
        "e2e_kernel_total_seconds": round(e2e_kernel, 3),
        "e2e_speedup": round(e2e_speedup, 3),
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
