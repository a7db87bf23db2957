"""The Table III grid runs as one heaviest-first map, bit-identical to
the per-cell loop of :mod:`tests.oracles.cutoff_reference`."""

import json
import re

import pytest

from repro.core import cutoff
from repro.core.cutoff import run_cutoff_study
from repro.experiments import table3
from repro.hypergraph import CircuitSpec, generate_circuit
from repro.partition import multistart, relative_bipartition_balance
from repro.runtime import CheckpointJournal
from repro.runtime.checkpoint import _item_fingerprint
from tests.oracles.cutoff_reference import reference_cutoff_study

PERCENTS = (0.0, 10.0, 20.0)
CUTOFFS = (1.0, 0.25, 0.05)


@pytest.fixture(scope="module")
def instance():
    circ = generate_circuit(CircuitSpec(num_cells=150, name="g150"), seed=37)
    balance = relative_bipartition_balance(circ.graph.total_area, 0.05)
    return circ.graph, balance


@pytest.fixture
def maps(monkeypatch):
    """The items of every ``parallel_map`` a cutoff study makes."""
    calls = []
    for module in (cutoff, multistart):
        original = module.parallel_map

        def recording(task, items, *args, _original=original, **kwargs):
            items = list(items)
            calls.append(items)
            return _original(task, items, *args, **kwargs)

        monkeypatch.setattr(module, "parallel_map", recording)
    return calls


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("regime", ["good", "rand"])
def test_grid_matches_the_per_cell_loop(instance, maps, regime, jobs):
    graph, balance = instance
    kwargs = dict(
        percents=PERCENTS, cutoffs=CUTOFFS, regime=regime, runs=3, seed=11
    )
    expected, expected_seeds = reference_cutoff_study(
        graph, balance, jobs=jobs, **kwargs
    )
    maps.clear()
    study = run_cutoff_study(graph, balance, jobs=jobs, **kwargs)

    assert [(c.percent, c.cutoff) for c in study.cells] == [
        (c.percent, c.cutoff) for c in expected.cells
    ]
    for got, want in zip(study.cells, expected.cells):
        assert got.avg_cut == want.avg_cut
        assert got.avg_moves == want.avg_moves

    grid = maps[-1]
    seeds = {}
    for p, c, init_seed in grid:
        seeds.setdefault((PERCENTS[p], CUTOFFS[c]), []).append(init_seed)
    assert seeds == expected_seeds


def test_grid_is_submitted_heaviest_cell_first(instance, maps):
    graph, balance = instance
    run_cutoff_study(
        graph, balance, percents=PERCENTS, cutoffs=CUTOFFS,
        regime="rand", runs=2, seed=3,
    )
    (grid,) = maps
    keys = [(-CUTOFFS[c], PERCENTS[p]) for p, c, _ in grid]
    assert keys == sorted(keys)
    assert len(grid) == len(PERCENTS) * len(CUTOFFS) * 2


@pytest.mark.parametrize("regime, expected", [("good", 2), ("rand", 1)])
def test_one_grid_map_per_study(instance, maps, regime, expected):
    graph, balance = instance
    run_cutoff_study(
        graph, balance, percents=PERCENTS, cutoffs=CUTOFFS,
        regime=regime, runs=2, seed=5, jobs=2,
    )
    assert len(maps) == expected


def _table_lines(studies):
    """Cut, move and check lines of a Table III run, timings masked."""
    lines = []
    for study in studies.values():
        lines.extend(study.format_table().splitlines())
        lines.extend(
            f"moves {c.percent} {c.cutoff} {c.avg_moves!r}"
            for c in study.cells
        )
        # The runtime check compares CPU seconds, which re-run items
        # measure afresh; only its label (timings masked) must match.
        lines.extend(
            label if "reduce runtime" in label else f"{ok} {label}"
            for label, ok in table3.shape_checks(study)
        )
    return [re.sub(r"\d+\.\d+s", "<s>", line) for line in lines]


def test_mid_grid_resume_reruns_only_the_dropped_runs(tmp_path, monkeypatch):
    monkeypatch.setitem(
        table3.PROFILE_SETTINGS["quick"], "circuits", ("tiny01",)
    )
    spec = {"experiment": "table3", "profile": "quick", "seed": 2}
    path = tmp_path / "j.jsonl"
    first = table3.run_table3(
        "quick", seed=2, journal=CheckpointJournal(path, spec)
    )

    header, *records = path.read_text().splitlines()
    grid = [
        r for r in map(json.loads, records) if r["batch"] == "tiny01/cutoff"
    ]
    assert len(grid) == 4 * 3 * 6
    dropped = grid[5::7]
    dropped_lines = {json.dumps(r, sort_keys=True) for r in dropped}
    kept = [line for line in records if line not in dropped_lines]
    assert len(kept) == len(records) - len(dropped)
    path.write_text("\n".join([header, *kept]) + "\n")

    executed = []
    for task_class in (cutoff._CutoffGridTask, multistart.MultilevelStartTask):
        original = task_class.__call__

        def recording(self, item, _original=original):
            executed.append(_item_fingerprint(item))
            return _original(self, item)

        monkeypatch.setattr(task_class, "__call__", recording)
    resumed = table3.run_table3(
        "quick", seed=2, journal=CheckpointJournal(path, spec)
    )

    assert sorted(executed) == sorted(r["item"] for r in dropped)
    assert _table_lines(resumed) == _table_lines(first)
