"""Tuning the Section III pass-cutoff heuristic for a workload.

The paper shows that cutting FM passes off early is safe once enough
terminals are fixed, and always saves time.  This example measures the
cut/runtime frontier on one instance at two terminal densities and
picks the tightest cutoff whose quality loss stays under 5% -- the kind
of decision a top-down placer integrating this library would make.

Run: ``python examples/pass_cutoff_tuning.py``
"""

from repro.core import run_cutoff_study
from repro.hypergraph import CircuitSpec, generate_circuit
from repro.partition import relative_bipartition_balance


def choose_cutoff(study, percent, max_quality_loss=0.05):
    """Tightest cutoff within the quality budget at one fixed%."""
    baseline = study.cell(percent, 1.0)
    chosen = 1.0
    for cutoff in sorted(study.cutoffs):  # tightest first
        cell = study.cell(percent, cutoff)
        if cell.avg_cut <= baseline.avg_cut * (1.0 + max_quality_loss):
            chosen = cutoff
            break
    return chosen, baseline


def main() -> None:
    circuit = generate_circuit(
        CircuitSpec(num_cells=700, name="tune700"), seed=5
    )
    balance = relative_bipartition_balance(
        circuit.graph.total_area, 0.02
    )
    study = run_cutoff_study(
        circuit.graph,
        balance,
        circuit_name="tune700",
        percents=(0.0, 25.0),
        cutoffs=(1.0, 0.5, 0.25, 0.1, 0.05),
        runs=8,
        seed=2,
    )
    print(study.format_table())
    print()
    for percent in (0.0, 25.0):
        cutoff, baseline = choose_cutoff(study, percent)
        cell = study.cell(percent, cutoff)
        # Moves per run, not wall time: the move count is deterministic,
        # so the saving printed here is the same on every run.
        saving = baseline.avg_moves / max(cell.avg_moves, 1e-9)
        label = "no cutoff" if cutoff >= 1.0 else f"{cutoff:.0%} of moves"
        print(
            f"at {percent:4.0f}% fixed: choose {label:<14s} "
            f"({saving:.1f}x fewer moves, cut {baseline.avg_cut:.1f} -> "
            f"{cell.avg_cut:.1f})"
        )
    print(
        "\nthe free instance needs full passes; the terminal-rich one "
        "tolerates aggressive cutoffs -- the paper's Table III."
    )


if __name__ == "__main__":
    main()
