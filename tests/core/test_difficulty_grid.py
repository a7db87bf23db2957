"""Section II runs one multistart call per fixture: every
``(regime, percent)`` point of :func:`run_difficulty_study` is
bit-identical to the per-trial loop of
:mod:`tests.oracles.difficulty_reference`, at any ``jobs`` and for 2-way
and k-way balances."""

import json

import pytest

from repro.core import difficulty
from repro.core.difficulty import run_difficulty_study
from repro.hypergraph import CircuitSpec, generate_circuit
from repro.partition import relative_bipartition_balance
from repro.partition.balance import relative_balance
from repro.runtime import CheckpointJournal, derive_start_seeds
from repro.runtime.observe import TraceRecorder, use
from tests.oracles import difficulty_reference
from tests.oracles.difficulty_reference import reference_difficulty_study

ENGINES = ("multilevel_multistart", "kway_multistart")
KWARGS = dict(
    circuit_name="g150",
    percents=(0.0, 20.0),
    starts_list=(1, 2),
    trials=3,
    seed=5,
)


@pytest.fixture(scope="module")
def graph():
    return generate_circuit(
        CircuitSpec(num_cells=150, name="g150"), seed=37
    ).graph


def _balance(graph, k):
    if k == 2:
        return relative_bipartition_balance(graph.total_area, 0.05)
    return relative_balance(graph.total_area, k, 0.1)


def _record_calls(monkeypatch, module, calls, cpu_queue=None):
    """Wrap ``module``'s engines: log each call's start seeds and
    result; with ``cpu_queue``, overwrite each start's CPU seconds with
    the next queued reading."""
    for name in ENGINES:
        original = getattr(module, name)

        def wrapper(*args, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            seeds = kwargs.get("seeds") or derive_start_seeds(
                kwargs["seed"], kwargs["num_starts"]
            )
            calls.append((list(seeds), result))
            if cpu_queue is not None:
                for start in result.starts:
                    start.cpu_seconds = cpu_queue.pop(0)
            return result

        monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("jobs", [1, 2])
def test_study_matches_the_per_trial_loop(graph, monkeypatch, k, jobs):
    balance = _balance(graph, k)
    study_calls = []
    _record_calls(monkeypatch, difficulty, study_calls)
    study = run_difficulty_study(graph, balance, jobs=jobs, **KWARGS)

    # The reference aggregates the study's own per-start CPU readings,
    # so the CPU column can be compared exactly too.
    cpu_queue = [
        start.cpu_seconds
        for _, result in study_calls
        for start in result.starts
    ]
    reference_calls = []
    _record_calls(
        monkeypatch, difficulty_reference, reference_calls, cpu_queue
    )
    expected = reference_difficulty_study(
        graph, balance, jobs=jobs, **KWARGS
    )
    assert not cpu_queue

    assert study.num_parts == k
    assert study.good_cut == expected.good_cut
    assert study.best_seen == expected.best_seen
    assert study.points == expected.points

    # One call per fixture, each the concatenation of its trials'
    # batches: same seeds, same cuts, same parts, in trial order.
    trials = KWARGS["trials"]
    assert len(study_calls) == 2 * len(KWARGS["percents"])
    assert len(reference_calls) == trials * len(study_calls)
    for i, (seeds, result) in enumerate(study_calls):
        per_trial = reference_calls[i * trials:(i + 1) * trials]
        assert seeds == [s for trial_seeds, _ in per_trial
                         for s in trial_seeds]
        assert [(s.cut, s.parts) for s in result.starts] == [
            (s.cut, s.parts)
            for _, batch in per_trial
            for s in batch.starts
        ]


def test_one_multistart_batch_per_fixture(graph):
    regimes = ("good", "rand")
    recorder = TraceRecorder()
    with use(recorder):
        run_difficulty_study(
            graph, _balance(graph, 2), regimes=regimes, jobs=1, **KWARGS
        )
    starts_per_point = KWARGS["trials"] * KWARGS["starts_list"][-1]
    points = len(regimes) * len(KWARGS["percents"])
    assert recorder.counters["multistart.batches"] == 1 + points
    assert recorder.counters["multistart.starts"] == (
        8 + points * starts_per_point
    )


def test_journal_holds_one_batch_per_fixture_and_resumes(graph, tmp_path):
    path = tmp_path / "study.jsonl"
    balance = _balance(graph, 2)
    first = run_difficulty_study(
        graph, balance, journal=CheckpointJournal(path, {"s": 1}), **KWARGS
    )
    lines = path.read_text().splitlines()[1:]
    batches = {json.loads(line)["batch"] for line in lines}
    assert batches == {
        "reference", "good:0.0", "good:20.0", "rand:0.0", "rand:20.0"
    }

    journal = CheckpointJournal(path, {"s": 1})
    resumed = run_difficulty_study(graph, balance, journal=journal, **KWARGS)
    assert resumed.points == first.points
    assert resumed.best_seen == first.best_seen
    assert path.read_text().splitlines()[1:] == lines  # nothing re-ran
