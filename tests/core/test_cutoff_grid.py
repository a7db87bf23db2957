"""Section III's grid runs as one heaviest-first map: Table III is
bit-identical to the per-cell loop of :mod:`tests.oracles.cutoff_reference`
and Table II to the per-percent loop of
:mod:`tests.oracles.pass_stats_reference`."""

import json
import re

import pytest

from repro.core import cutoff
from repro.core.cutoff import run_cutoff_study
from repro.core.pass_stats import run_pass_stats_study
from repro.experiments import table3
from repro.hypergraph import CircuitSpec, generate_circuit
from repro.partition import multistart, relative_bipartition_balance
from repro.runtime import CheckpointJournal, ExecutionPolicy, QuarantineWarning
from repro.runtime.checkpoint import _item_fingerprint
from tests.oracles.cutoff_reference import reference_cutoff_study
from tests.oracles.pass_stats_reference import reference_pass_stats_study

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


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("regime", ["good", "rand"])
def test_table_ii_matches_the_per_percent_loop(instance, regime, jobs):
    graph, balance = instance
    kwargs = dict(percents=PERCENTS, regime=regime, runs=3, seed=13)
    expected = reference_pass_stats_study(graph, balance, jobs=jobs, **kwargs)
    study = run_pass_stats_study(graph, balance, jobs=jobs, **kwargs)
    assert study.rows == expected.rows
    assert study.format_table() == expected.format_table()


@pytest.mark.parametrize("regime, expected", [("good", 2), ("rand", 1)])
def test_table_ii_makes_one_grid_map(instance, maps, regime, expected):
    graph, balance = instance
    run_pass_stats_study(
        graph, balance, percents=PERCENTS, regime=regime, runs=2, seed=5,
        jobs=2,
    )
    assert len(maps) == expected
    assert {(p, c) for p, c, _ in maps[-1]} == {
        (p, 0) for p in range(len(PERCENTS))
    }


QUARANTINE = ExecutionPolicy(max_attempts=1, quarantine=True)
STUDIES = pytest.mark.parametrize(
    "run_study, kwargs",
    [
        (run_cutoff_study, dict(cutoffs=(1.0, 0.25))),
        (run_pass_stats_study, {}),
    ],
    ids=["table3", "table2"],
)


@STUDIES
def test_a_fully_quarantined_cell_names_itself(
    instance, monkeypatch, run_study, kwargs
):
    # The heaviest cell (uncut, 0% fixed) is submitted first, so faults
    # on items 0 and 1 quarantine both of its runs.
    monkeypatch.setenv("REPRO_FAULTS", "raise@0,raise@1")
    graph, balance = instance
    with pytest.warns(QuarantineWarning):
        with pytest.raises(RuntimeError) as excinfo:
            run_study(
                graph, balance, percents=(0.0, 20.0), regime="rand",
                runs=2, seed=3, policy=QUARANTINE, **kwargs,
            )
    message = str(excinfo.value)
    assert "percent=0.0, cutoff=1.0" in message
    assert message.count("injected failure") == 2


@STUDIES
def test_a_partly_quarantined_cell_averages_its_healthy_runs(
    instance, monkeypatch, run_study, kwargs
):
    graph, balance = instance
    kwargs = dict(kwargs, percents=(0.0, 20.0), regime="rand", seed=3)
    one_run = run_study(graph, balance, runs=1, **kwargs)
    monkeypatch.setenv("REPRO_FAULTS", "raise@1")
    with pytest.warns(QuarantineWarning):
        faulted = run_study(
            graph, balance, runs=2, policy=QUARANTINE, **kwargs
        )
    # Item 1 is run 1 of the uncut 0% cell; its run 0 has the init seed
    # of the one-run study's only run there.
    assert _first_cut(faulted) == _first_cut(one_run)


def _first_cut(study):
    if hasattr(study, "cells"):
        return study.cells[0].avg_cut
    return study.rows[0].avg_final_cut


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
        r for r in map(json.loads, records) if r["batch"] == "tiny01/grid"
    ]
    assert len(grid) == 4 * 3 * 6
    dropped = grid[5::7]
    dropped_lines = {json.dumps(r, sort_keys=True) for r in dropped}
    kept = [line for line in records if line not in dropped_lines]
    assert len(kept) == len(records) - len(dropped)
    path.write_text("\n".join([header, *kept]) + "\n")

    executed = []
    for task_class in (cutoff._GridTask, multistart.MultilevelStartTask):
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
