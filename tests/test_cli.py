"""Command-line surface: exit codes, output files, stdin handling."""

from __future__ import annotations

import io
import json

import pytest

from crdtcheck.cli import main
from crdtcheck.server import BUG_FLAGS


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- explore -------------------------------------------------------------------


def test_explore_clean_run_exits_zero(capsys):
    code, out, err = run(capsys, "explore", "--type", "rpq", "-n", "1", "-q", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["terminal_traces"] == 25
    assert doc["violations"] == []
    assert "25 terminal schedules" in err


def test_explore_with_violations_exits_two(capsys):
    code, out, _ = run(
        capsys, "explore", "--type", "rpq", "-n", "2", "-q", "3",
        "--bug", "bug2-assume-causal",
    )
    assert code == 2
    assert json.loads(out)["violations"]


def test_causal_assumption_holds_on_a_causal_channel(capsys):
    code, out, _ = run(
        capsys, "explore", "--type", "rpq", "-n", "2", "-q", "3",
        "--bug", "bug2-assume-causal", "--channel", "causal",
    )
    assert code == 0
    assert json.loads(out)["violations"] == []


@pytest.mark.parametrize("command", [["explore"], ["gen"], ["replay", "-"]])
def test_retired_strategy_flag_is_a_usage_error(capsys, command):
    code, _, err = run(
        capsys, *command, "--type", "rpq", "-n", "2", "-q", "3",
        "--strategy", "causal-assuming",
    )
    assert code == 1
    assert "--strategy" in err


def test_explore_budget_exhaustion_exits_three(capsys):
    code, out, err = run(
        capsys, "explore", "--type", "rpq", "-n", "1", "-q", "4",
        "--state-cap", "50",
    )
    assert code == 3
    doc = json.loads(out)  # the partial report still comes out
    assert doc["exhaustive"] is False


def test_explore_report_is_byte_identical_across_runs(capsys):
    argv = ["explore", "--type", "list", "-n", "2", "-q", "3"]
    first, second = run(capsys, *argv), run(capsys, *argv)
    assert first[0] == 0
    assert first[1] == second[1]


def test_explore_report_goes_to_file_when_asked(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "explore", "--type", "rpq", "-n", "1", "-q", "2",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["terminal_traces"] == 25


def test_model_level_flag_restriction(capsys):
    code, _, err = run(
        capsys, "explore", "--type", "list", "-n", "2", "-q", "2",
        "--bug", "bug4-dummy-position",
    )
    assert code == 1
    assert "bug4" in err or "model" in err


def test_usage_errors_exit_one(capsys):
    code, _, err = run(capsys, "explore", "--type", "rpq")  # missing -q
    assert code == 1
    assert "required" in err


def test_bad_scope_exits_one(capsys):
    code, _, err = run(capsys, "explore", "--type", "rpq", "-n", "3", "-q", "2")
    assert code == 1
    assert "round-robin" in err


# -- gen -----------------------------------------------------------------------


def test_gen_writes_a_corpus_file(capsys, tmp_path):
    target = tmp_path / "corpus.jsonl"
    code, _, err = run(
        capsys, "gen", "--type", "rpq", "-n", "2", "-q", "2",
        "--out", str(target),
    )
    assert code == 0
    assert "wrote 75 case(s)" in err
    lines = target.read_text().splitlines()
    assert len(lines) == 75


def test_gen_is_byte_identical_across_runs(capsys, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for target in (a, b):
        code, _, _ = run(
            capsys, "gen", "--type", "list", "-n", "2", "-q", "2",
            "--out", str(target),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_limit(capsys, tmp_path):
    target = tmp_path / "some.jsonl"
    code, _, _ = run(
        capsys, "gen", "--type", "rpq", "-n", "1", "-q", "3",
        "--out", str(target), "--limit", "5",
    )
    assert code == 0
    assert len(target.read_text().splitlines()) == 5


def test_gen_refuses_a_negative_limit(capsys, tmp_path):
    code, _, err = run(
        capsys, "gen", "--type", "rpq", "-n", "1", "-q", "3",
        "--out", str(tmp_path / "none.jsonl"), "--limit", "-3",
    )
    assert code == 1
    assert "limit" in err


@pytest.mark.parametrize("argv, exit_code", [
    (["--type", "list", "-n", "2", "-q", "3", "--state-cap", "200"], 3),
    (["--type", "rpq", "-n", "1", "-q", "3", "--limit", "-3"], 1),
], ids=["state-cap", "negative-limit"])
def test_failed_gen_leaves_the_out_file_alone(capsys, tmp_path, argv, exit_code):
    target = tmp_path / "corpus.jsonl"
    target.write_bytes(b'{"earlier": "corpus"}\n')
    code, out, _ = run(capsys, "gen", *argv, "--out", str(target))
    assert code == exit_code
    assert out == ""
    assert target.read_bytes() == b'{"earlier": "corpus"}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]  # no temporary left


# -- replay ----------------------------------------------------------------------


@pytest.fixture()
def small_corpus(tmp_path, capsys):
    target = tmp_path / "corpus.jsonl"
    main(["gen", "--type", "list", "-n", "2", "-q", "3", "--out", str(target)])
    capsys.readouterr()
    return target


def test_replay_clean_exits_zero(capsys, small_corpus):
    code, out, err = run(
        capsys, "replay", "--type", "list", "-n", "2", "-q", "3",
        str(small_corpus),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] == doc["cases"] > 0


def test_replay_against_buggy_server_exits_two(capsys, small_corpus):
    code, out, _ = run(
        capsys, "replay", "--type", "list", "-n", "2", "-q", "3",
        str(small_corpus), "--bug", "bug7-idgen-order",
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["diverged"] > 0
    assert doc["first_failures"][0]["status"] == "diverged"


def test_replay_fingerprint_mismatch_exits_one(capsys, small_corpus):
    code, out, _ = run(
        capsys, "replay", "--type", "list", "-n", "2", "-q", "4",
        str(small_corpus),
    )
    assert code == 1
    assert json.loads(out)["rejected"] > 0


def test_replay_reads_stdin(capsys, small_corpus, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(small_corpus.read_text()))
    code, out, _ = run(
        capsys, "replay", "--type", "list", "-n", "2", "-q", "3", "-",
    )
    assert code == 0
    assert json.loads(out)["pass"] > 0


def test_replay_unknown_server_flag_exits_one(capsys, small_corpus):
    code, _, err = run(
        capsys, "replay", "--type", "list", "-n", "2", "-q", "3",
        str(small_corpus), "--bug", "bug3-imaginary",
    )
    assert code == 1
    assert err == (
        f"crdtcheck: 'bug3-imaginary' is not in the bug catalog {list(BUG_FLAGS)}\n"
    )


def test_replay_malformed_corpus_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"v":1,"nope":true}\n')
    code, _, err = run(
        capsys, "replay", "--type", "rpq", "-n", "2", "-q", "2", str(bad),
    )
    assert code == 1
    assert "line 1" in err


def test_replay_takes_no_state_cap(capsys, small_corpus):
    # replay runs no search, so a state cap would change nothing
    code, _, err = run(
        capsys, "replay", "--type", "list", "-n", "2", "-q", "3",
        str(small_corpus), "--state-cap", "5",
    )
    assert code == 1
    assert "--state-cap" in err


def test_replay_missing_file_exits_one(capsys, tmp_path):
    code, _, err = run(
        capsys, "replay", "--type", "rpq", "-n", "2", "-q", "2",
        str(tmp_path / "absent.jsonl"),
    )
    assert code == 1


# -- stress and bugs ---------------------------------------------------------------


def test_stress_clean_exits_zero(capsys):
    code, out, err = run(
        capsys, "stress", "--type", "rpq", "-n", "2", "--seed", "42",
        "--rounds", "4", "--ops", "8",
    )
    assert code == 0
    assert json.loads(out)["failure"] is None
    assert "all converged" in err


def test_stress_with_defect_exits_two(capsys):
    code, out, _ = run(
        capsys, "stress", "--type", "list", "-n", "2", "--seed", "7",
        "--rounds", "8", "--ops", "20", "--bug", "bug7-idgen-order",
    )
    assert code == 2
    assert json.loads(out)["failure"] is not None


@pytest.mark.parametrize("args", [["-n", "0"], ["-n", "4"], ["--rounds", "0"], ["--ops", "0"]])
def test_stress_bad_configuration_exits_one(capsys, args):
    code, out, err = run(capsys, "stress", "--type", "rpq", "--seed", "1", *args)
    assert code == 1
    assert out == ""
    assert err.startswith("crdtcheck: ")


def test_bugs_catalog_lists_all_four(capsys):
    code, out, _ = run(capsys, "bugs")
    assert code == 0
    doc = json.loads(out)
    flags = {entry["flag"] for entry in doc}
    assert flags == {
        "bug1-readd-accept", "bug2-assume-causal",
        "bug4-dummy-position", "bug7-idgen-order",
    }
    scopes = {entry["flag"]: entry["scope"] for entry in doc}
    assert scopes == {
        "bug1-readd-accept": "model+server",
        "bug2-assume-causal": "model+server",
        "bug4-dummy-position": "server",
        "bug7-idgen-order": "server",
    }
