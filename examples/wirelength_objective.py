"""Placement-specific partitioning objectives (the paper's footnote 7).

Derives a fixed-terminals block instance from a placement, builds the
terminal-propagation wirelength cost model (net bounding boxes over
terminal locations + side representatives), and compares FM under that
objective against classic min-cut FM -- showing why the paper's
proposed benchmarks record terminal *locations*, not just sides.

Run: ``python examples/wirelength_objective.py``
"""

import random

from repro.hypergraph import CircuitSpec, generate_circuit
from repro.partition import (
    FMBipartitioner,
    ReferenceFMBipartitioner,
    cut_size,
    random_balanced_bipartition,
    total_cost,
)
from repro.placement import (
    build_suite,
    midline,
    place_circuit,
    terminal_positions_from_placement,
    wirelength_cost_model,
)


def main() -> None:
    circuit = generate_circuit(
        CircuitSpec(num_cells=500, name="wl500"), seed=21
    )
    placement = place_circuit(circuit, seed=4)
    suite = build_suite(circuit, "wl500", placement=placement)
    entry = suite.entries[2]  # the B-level block, vertical cutline
    instance = entry.instance
    graph = instance.graph
    print(
        f"block instance {instance.name}: "
        f"{graph.num_vertices - instance.num_fixed} movable cells, "
        f"{instance.num_fixed} propagated terminals"
    )

    original_ids = {
        placement.graph.vertex_name(v): v
        for v in range(placement.graph.num_vertices)
    }
    positions = terminal_positions_from_placement(
        instance, placement.positions, original_ids
    )
    model = wirelength_cost_model(
        instance,
        entry.block,
        positions,
        cutline=midline(entry.block, entry.cut_axis),
        scale=0.1,
    )

    fixture = instance.hard_fixture()
    wl_engine = ReferenceFMBipartitioner(
        graph, instance.balance, fixture=fixture, model=model
    )
    mc_engine = FMBipartitioner(graph, instance.balance, fixture=fixture)

    starts = 6
    rows = {"min-cut FM": [], "WL from scratch": [], "min-cut + WL polish": []}
    cuts = {k: [] for k in rows}
    for s in range(starts):
        init = random_balanced_bipartition(
            graph, instance.balance, fixture=fixture,
            rng=random.Random(100 + s),
        )
        mc = mc_engine.run(list(init)).solution
        wl = wl_engine.run(list(init)).solution
        polish = wl_engine.run(list(mc.parts)).solution
        rows["min-cut FM"].append(total_cost(graph, model, mc.parts))
        cuts["min-cut FM"].append(mc.cut)
        rows["WL from scratch"].append(wl.cut)
        cuts["WL from scratch"].append(cut_size(graph, wl.parts))
        rows["min-cut + WL polish"].append(polish.cut)
        cuts["min-cut + WL polish"].append(
            cut_size(graph, polish.parts)
        )

    def mean(xs):
        return sum(xs) / len(xs)

    print(
        f"\naverages over {starts} shared starts:"
        f"\n{'flow':<20s} {'est. wirelength':>16s} {'cut nets':>9s}"
    )
    for label in rows:
        print(
            f"{label:<20s} {mean(rows[label]):>16.0f} "
            f"{mean(cuts[label]):>9.1f}"
        )
    base = mean(rows["min-cut FM"])
    saved = 100.0 * (base - mean(rows["min-cut + WL polish"])) / base
    print(
        f"\nthe polish pass (WL-objective FM started from the min-cut "
        f"solution) never worsens the objective and saves {saved:.1f}% "
        "estimated wirelength here -- the practical way to use "
        "placement-specific objectives."
    )


if __name__ == "__main__":
    main()
