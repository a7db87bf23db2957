"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def generated(tmp_path):
    """A small circuit written as a bookshelf instance."""
    rc = main(
        [
            "generate",
            "--cells",
            "80",
            "--name",
            "clic",
            "--seed",
            "1",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    return tmp_path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "--out", "x"])
        assert args.cells == 1000
        assert args.format == "bookshelf"


class TestGenerate:
    def test_bookshelf_files_written(self, generated):
        assert (generated / "clic.nodes").exists()
        assert (generated / "clic.nets").exists()
        assert (generated / "clic.blk").exists()

    def test_netd_format(self, tmp_path):
        rc = main(
            [
                "generate",
                "--cells",
                "50",
                "--name",
                "nd",
                "--out",
                str(tmp_path),
                "--format",
                "both",
            ]
        )
        assert rc == 0
        assert (tmp_path / "nd.net").exists()
        assert (tmp_path / "nd.are").exists()
        assert (tmp_path / "nd.nodes").exists()


class TestPartition:
    @pytest.mark.parametrize("engine", ["multilevel", "fm", "kway"])
    def test_engines_run(self, generated, engine, capsys):
        rc = main(
            [
                "partition",
                "--dir",
                str(generated),
                "--name",
                "clic",
                "--engine",
                engine,
                "--starts",
                "1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cut" in out
        assert "block loads" in out

    def test_save_assignment(self, generated, tmp_path, capsys):
        save = tmp_path / "assignment.txt"
        rc = main(
            [
                "partition",
                "--dir",
                str(generated),
                "--name",
                "clic",
                "--save",
                str(save),
            ]
        )
        assert rc == 0
        lines = save.read_text().splitlines()
        assert lines
        assert all(line.split()[1] in ("0", "1") for line in lines)

    def test_cutoff_option(self, generated, capsys):
        rc = main(
            [
                "partition",
                "--dir",
                str(generated),
                "--name",
                "clic",
                "--engine",
                "fm",
                "--cutoff",
                "0.25",
            ]
        )
        assert rc == 0


class TestStats:
    def test_prints_profile(self, generated, capsys):
        rc = main(["stats", "--dir", str(generated), "--name", "clic"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fixed vertices" in out
        assert "|V|=" in out


class TestPlace:
    def test_place_and_derive(self, tmp_path, capsys):
        rc = main(
            [
                "place",
                "--cells",
                "120",
                "--name",
                "pl",
                "--seed",
                "2",
                "--suite-out",
                str(tmp_path / "suite"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "HPWL" in out
        assert (tmp_path / "suite").exists()
        nodes = list((tmp_path / "suite").glob("*.nodes"))
        assert len(nodes) >= 6


class TestEvaluate:
    def test_roundtrip_ok(self, generated, tmp_path, capsys):
        save = tmp_path / "assignment.txt"
        assert (
            main(
                [
                    "partition",
                    "--dir",
                    str(generated),
                    "--name",
                    "clic",
                    "--save",
                    str(save),
                ]
            )
            == 0
        )
        capsys.readouterr()
        rc = main(
            [
                "evaluate",
                "--dir",
                str(generated),
                "--name",
                "clic",
                "--assignment",
                str(save),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "fixture constraints : OK" in out
        assert "balance constraints : OK" in out

    def test_bad_block_rejected(self, generated, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("c0 7\n")
        rc = main(
            [
                "evaluate",
                "--dir",
                str(generated),
                "--name",
                "clic",
                "--assignment",
                str(bad),
            ]
        )
        assert rc == 2

    def test_missing_vertices_rejected(self, generated, tmp_path, capsys):
        partial = tmp_path / "partial.txt"
        partial.write_text("c0 0\n")
        rc = main(
            [
                "evaluate",
                "--dir",
                str(generated),
                "--name",
                "clic",
                "--assignment",
                str(partial),
            ]
        )
        assert rc == 2

    def test_infeasible_flagged(self, generated, tmp_path, capsys):
        from repro.io import read_bookshelf

        instance = read_bookshelf(generated, "clic")
        g = instance.graph
        lopsided = tmp_path / "lop.txt"
        lopsided.write_text(
            "\n".join(
                f"{g.vertex_name(v)} 0" for v in range(g.num_vertices)
            )
            + "\n"
        )
        rc = main(
            [
                "evaluate",
                "--dir",
                str(generated),
                "--name",
                "clic",
                "--assignment",
                str(lopsided),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "balance constraints : VIOLATED" in out


class TestErrors:
    def test_missing_instance_is_one_line(self, tmp_path, capsys):
        rc = main(
            ["partition", "--dir", str(tmp_path / "missing"), "--name", "x"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: missing file: ")
        assert err.count("\n") == 1

    def test_resume_spec_mismatch_is_one_line(
        self, generated, tmp_path, capsys
    ):
        journal = str(tmp_path / "j.jsonl")
        partition = ["partition", "--dir", str(generated), "--name", "clic"]
        assert main(partition + ["--resume", journal]) == 0
        capsys.readouterr()
        rc = main(partition + ["--seed", "1", "--resume", journal])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert "different study spec" in err
        assert err.count("\n") == 1


def _journal_records(path):
    return len(path.read_text().splitlines()) - 1  # minus the header


class TestExperiment:
    def test_table1(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["experiment", "table1"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_table3_resume_is_idempotent(self, capsys, tmp_path, monkeypatch):
        from repro.experiments import table3

        monkeypatch.chdir(tmp_path)
        monkeypatch.setitem(
            table3.PROFILE_SETTINGS["quick"], "circuits", ("tiny01",)
        )
        journal = tmp_path / "j.jsonl"
        argv = ["experiment", "table3", "--resume", str(journal)]

        def untimed(out):
            return re.sub(r"\d+\.\d+s", "<s>", out)

        assert main(argv) == 0
        first = capsys.readouterr().out
        records = _journal_records(journal)
        assert records > 0
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert _journal_records(journal) == records
        assert "tiny01" in first
        assert untimed(second) == untimed(first)

    @pytest.mark.parametrize(
        "flags, expected",
        [
            ([], None),
            (["--timeout", "5"], (5.0, 3)),
            (["--max-retries", "0"], (None, 1)),
            (["--timeout", "2.5", "--max-retries", "4"], (2.5, 5)),
        ],
    )
    def test_runtime_flags_reach_the_driver(
        self, flags, expected, tmp_path, monkeypatch
    ):
        from repro.experiments import table2

        calls = []

        def fake_run_table2(profile, **kwargs):
            calls.append((profile, kwargs))
            return {}

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(table2, "run_table2", fake_run_table2)
        assert main(["experiment", "table2", "--jobs", "1"] + flags) == 0
        [(profile, kwargs)] = calls
        assert profile == "quick"
        assert kwargs["jobs"] == 1
        assert kwargs["journal"] is None
        policy = kwargs["policy"]
        if expected is None:
            assert policy is None
        else:
            timeout, attempts = expected
            assert policy.timeout == timeout
            assert policy.retry.max_attempts == attempts
            assert policy.quarantine

    def test_table4_ignores_resume(self, capsys, tmp_path, monkeypatch):
        from repro.experiments import table4

        monkeypatch.chdir(tmp_path)
        monkeypatch.setitem(table4.PROFILE_SETTINGS, "quick", ("tiny01",))
        journal = tmp_path / "j.jsonl"
        assert main(["experiment", "table4", "--resume", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "table4 does not support" in out
        assert "ignoring them" in out
        assert not journal.exists()
        assert (tmp_path / "results" / "table4_quick.txt").exists()
