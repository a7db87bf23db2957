"""Tests for the durable checkpoint journal (resume semantics)."""

import json
import os

import pytest

from repro.runtime import (
    CheckpointError,
    CheckpointJournal,
    corrupt_checkpoint_record,
    parallel_map,
    spec_key,
)
from repro.runtime.checkpoint import is_miss


def _square(x):
    return x * x


SPEC = {"experiment": "unit", "seed": 7, "percents": [0.0, 20.0]}


class TestSpecKey:
    def test_stable_across_key_order(self):
        assert spec_key({"a": 1, "b": 2}) == spec_key({"b": 2, "a": 1})

    def test_distinguishes_content(self):
        assert spec_key({"a": 1}) != spec_key({"a": 2})

    def test_non_json_leaves_stringified(self):
        assert spec_key({"p": (0.0, 1.5)}) == spec_key({"p": [0.0, 1.5]})


class TestJournalBasics:
    def test_fresh_file_has_header(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal(path, SPEC)
        assert not journal.resumed
        header = json.loads(path.read_text().splitlines()[0])
        assert header["kind"] == "header"
        assert header["spec_hash"] == spec_key(SPEC)

    def test_record_and_lookup_roundtrip(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl", SPEC)
        batch = journal.batch("b")
        batch.record(0, 17, {"cut": 5, "parts": [0, 1]})
        assert batch.lookup(0, 17) == {"cut": 5, "parts": [0, 1]}
        assert batch.hits == 1

    def test_lookup_misses_on_item_mismatch(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl", SPEC)
        batch = journal.batch("b")
        batch.record(0, 17, "value")
        # Same index, different seed: the journal must not serve it.
        assert is_miss(journal.lookup("b", 0, 18))

    def test_no_tmp_file_left_behind(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl", SPEC)
        journal.record("b", 0, 1, "v")
        assert list(tmp_path.iterdir()) == [tmp_path / "j.jsonl"]

    def test_cells_are_appended_without_rewriting(
        self, tmp_path, monkeypatch
    ):
        replaces = []
        real_replace = os.replace

        def counting_replace(src, dst):
            replaces.append(dst)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", counting_replace)
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal(path, SPEC)
        for i in range(200):
            if i % 50 == 49:
                journal.record_quarantine("b", i, i, "timeout")
            else:
                journal.record("b", i, i, i * i)
        assert replaces == [path]  # the header only

        lines = path.read_text().splitlines()
        assert len(lines) == 201
        assert all(json.loads(line)["kind"] == "cell" for line in lines[1:])
        reopened = CheckpointJournal(path, SPEC)
        assert reopened.corrupt_lines == 0
        assert reopened.completed_cells() == 196
        assert len(reopened.quarantined_cells()) == 4
        assert reopened.lookup("b", 48, 48) == 48 * 48

    def test_resume_sees_previous_cells(self, tmp_path):
        path = tmp_path / "j.jsonl"
        CheckpointJournal(path, SPEC).record("b", 3, 99, [1, 2, 3])
        journal = CheckpointJournal(path, SPEC)
        assert journal.resumed
        assert journal.completed_cells() == 1
        assert journal.lookup("b", 3, 99) == [1, 2, 3]

    def test_spec_mismatch_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        CheckpointJournal(path, SPEC)
        with pytest.raises(CheckpointError, match="different study"):
            CheckpointJournal(path, {"experiment": "other"})

    def test_namespace_prefixes_batch_keys(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl", SPEC)
        ns = journal.namespace("ibm01s")
        ns.batch("good:0.0").record(0, 5, "a")
        assert journal.lookup("ibm01s/good:0.0", 0, 5) == "a"
        nested = ns.namespace("inner")
        nested.batch("k").record(1, 6, "b")
        assert journal.lookup("ibm01s/inner/k", 1, 6) == "b"


class TestQuarantineRecords:
    def test_quarantined_cells_miss_on_lookup(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl", SPEC)
        journal.record_quarantine("b", 2, 44, "WorkerCrash: boom")
        assert is_miss(journal.lookup("b", 2, 44))
        assert journal.completed_cells() == 0
        assert journal.quarantined_cells() == {("b", 2): "WorkerCrash: boom"}

    def test_resume_heals_quarantined_cell(self, tmp_path):
        path = tmp_path / "j.jsonl"
        CheckpointJournal(path, SPEC).record_quarantine("b", 0, 3, "reason")
        journal = CheckpointJournal(path, SPEC)
        batch = journal.batch("b")
        out = parallel_map(_square, [3], jobs=1, checkpoint=batch)
        assert out == [9]
        assert batch.hits == 0  # recomputed, not served from journal
        assert journal.completed_cells() == 1
        assert journal.quarantined_cells() == {}


class TestCorruption:
    def test_corrupt_record_is_skipped_and_recomputed(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first = CheckpointJournal(path, SPEC)
        batch = first.batch("b")
        parallel_map(_square, [2, 3, 4], jobs=1, checkpoint=batch)
        victim = corrupt_checkpoint_record(path, record_index=-1)
        assert json.loads(victim)["index"] == 2

        journal = CheckpointJournal(path, SPEC)
        assert journal.corrupt_lines == 1
        assert journal.completed_cells() == 2
        resumed = journal.batch("b")
        out = parallel_map(_square, [2, 3, 4], jobs=1, checkpoint=resumed)
        assert out == [4, 9, 16]
        assert resumed.hits == 2  # only the destroyed cell was recomputed
        assert CheckpointJournal(path, SPEC).completed_cells() == 3

    def test_torn_last_line_is_dropped_and_appends_resume_cleanly(
        self, tmp_path
    ):
        path = tmp_path / "j.jsonl"
        parallel_map(
            _square, [2, 3, 4], jobs=1,
            checkpoint=CheckpointJournal(path, SPEC).batch("b"),
        )
        text = path.read_text()
        last = text.rstrip("\n").rsplit("\n", 1)[1]
        path.write_text(text[: len(text) - len(last) // 2 - 1])  # torn

        journal = CheckpointJournal(path, SPEC)
        assert journal.corrupt_lines == 1
        assert journal.completed_cells() == 2
        resumed = journal.batch("b")
        out = parallel_map(_square, [2, 3, 4], jobs=1, checkpoint=resumed)
        assert out == [4, 9, 16]
        assert resumed.hits == 2  # only the torn cell was recomputed
        journal.record("b", 3, 5, 25)  # and appends go on cleanly
        reopened = CheckpointJournal(path, SPEC)
        assert reopened.corrupt_lines == 0
        assert reopened.completed_cells() == 4
        assert reopened.lookup("b", 2, 4) == 16
        assert reopened.lookup("b", 3, 5) == 25

    def test_corrupt_header_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        CheckpointJournal(path, SPEC)
        corrupt_checkpoint_record(path, record_index=0)
        with pytest.raises(CheckpointError, match="header"):
            CheckpointJournal(path, SPEC)


class TestParallelMapIntegration:
    def test_second_invocation_skips_all_items(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl", SPEC)
        items = list(range(6))
        first = parallel_map(
            _square, items, jobs=1, checkpoint=journal.batch("b")
        )
        resumed_batch = journal.batch("b")
        second = parallel_map(
            _square, items, jobs=1, checkpoint=resumed_batch
        )
        assert first == second == [i * i for i in items]
        assert resumed_batch.hits == len(items)

    def test_partial_journal_resumes_mid_batch(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl", SPEC)
        half = journal.batch("b")
        parallel_map(_square, [0, 1, 2], jobs=1, checkpoint=half)
        # A "killed" sweep left 3 of 6 cells; the re-invocation computes
        # exactly the missing tail.
        resumed = CheckpointJournal(tmp_path / "j.jsonl", SPEC).batch("b")
        out = parallel_map(
            _square, [0, 1, 2, 3, 4, 5], jobs=1, checkpoint=resumed
        )
        assert out == [0, 1, 4, 9, 16, 25]
        assert resumed.hits == 3

    def test_parallel_pool_writes_journal(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl", SPEC)
        out = parallel_map(
            _square, list(range(5)), jobs=2, checkpoint=journal.batch("b")
        )
        assert out == [0, 1, 4, 9, 16]
        assert journal.completed_cells() == 5
