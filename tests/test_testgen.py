"""Corpus files: emission format, round-trips, and tamper detection."""

from __future__ import annotations

import hashlib
import io
import json

import pytest

from crdtcheck.errors import BadConfig, BudgetExceeded, MalformedCase
from crdtcheck.explorer import ExplorationConfig, config_fingerprint
from crdtcheck.testgen import (
    CORPUS_VERSION,
    case_line,
    generate_corpus,
    iter_corpus,
    parse_case_line,
)


def small_cfg() -> ExplorationConfig:
    return ExplorationConfig(data_type="rpq", n=2, q=2)


def gen_lines(cfg=None, limit=None) -> list[str]:
    out = io.StringIO()
    generate_corpus(cfg or small_cfg(), out, limit=limit)
    return out.getvalue().splitlines()


def test_corpus_counts_match_the_schedule_space():
    lines = gen_lines()
    assert len(lines) == 75  # see the counting notes in test_explorer


@pytest.mark.parametrize(
    "data_type, bugs, digest",
    [
        ("list", (), "015139bdc5989dae1a1d867f4b33cde484b09383e99b60f87cbef8bdcd1fa025"),
        # The walk fabricates a re-added element 12 times, so the oracles
        # pin the bug1 position stamps too.
        ("list", ("bug1-readd-accept",),
         "a239be749bd218fa7d054bcbf8d89a9384af6d6fda6fcbf1accc36393e1901aa"),
        ("rpq", (), "71de6861657e915a6524050b15edd61849871fc125ae51f9b9fda5e72982541c"),
    ],
)
def test_corpus_bytes_are_pinned(data_type, bugs, digest):
    # Corpus bytes are a regression oracle: every n=2 q=3 schedule with
    # its per-replica canonical states.
    cfg = ExplorationConfig(data_type=data_type, n=2, q=3, bug_flags=frozenset(bugs))
    out = io.StringIO()
    generate_corpus(cfg, out)
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == digest


def test_generation_is_byte_deterministic():
    a = io.StringIO()
    b = io.StringIO()
    generate_corpus(small_cfg(), a)
    generate_corpus(small_cfg(), b)
    assert a.getvalue() == b.getvalue()


def test_line_shape_and_field_order():
    line = gen_lines(limit=1)[0]
    doc = json.loads(line)
    assert list(doc.keys()) == ["v", "case", "cfg", "sched", "oracle"]
    assert doc["v"] == CORPUS_VERSION
    assert doc["cfg"] == config_fingerprint(small_cfg())
    assert len(doc["oracle"]) == 2  # one canonical string per replica
    assert all(isinstance(ev, list) for ev in doc["sched"])


def test_limit_truncates_deliberately():
    lines = gen_lines(limit=10)
    assert len(lines) == 10
    # a deliberate cut is still a parseable corpus
    for lineno, line in enumerate(lines, start=1):
        parse_case_line(lineno, line)


def test_negative_limit_is_refused():
    out = io.StringIO()
    for limit in (-3, True, 2.5):  # True would count as 1, and 2.5 stop after 3
        with pytest.raises(BadConfig, match="limit"):
            generate_corpus(small_cfg(), out, limit=limit)
    assert out.getvalue() == ""


def test_state_cap_abort_is_not_a_corpus():
    capped = ExplorationConfig(data_type="rpq", n=2, q=3, state_cap=40)
    with pytest.raises(BudgetExceeded):
        generate_corpus(capped, io.StringIO())


def test_round_trip_preserves_every_field():
    for lineno, line in enumerate(gen_lines(), start=1):
        tc = parse_case_line(lineno, line)
        assert case_line(tc.fingerprint, tc.schedule, tc.oracle) == line


def test_iter_corpus_skips_blank_lines():
    lines = gen_lines()
    blob = "\n\n".join(lines) + "\n\n"
    cases = list(iter_corpus(io.StringIO(blob)))
    assert len(cases) == len(lines)


def test_case_ids_are_unique_across_the_corpus():
    ids = [json.loads(l)["case"] for l in gen_lines()]
    assert len(set(ids)) == len(ids)


# -- malformed input ---------------------------------------------------------


def tamper(field, value):
    doc = json.loads(gen_lines(limit=None)[0])
    doc[field] = value
    return json.dumps(doc, separators=(",", ":"))


def test_unparseable_json_is_rejected_with_the_line_number():
    with pytest.raises(MalformedCase) as exc:
        parse_case_line(7, "{nope")
    assert exc.value.lineno == 7
    assert exc.value.field == "json"


@pytest.mark.parametrize("line", [
    '{"v":' + "[" * 100_000 + "]" * 100_000 + "}",  # nests past the recursion limit
    '{"v":' + "1" * 5000 + "}",  # too many digits for int()
], ids=["deep", "long-int"])
def test_unparseable_values_are_malformed_cases(line):
    with pytest.raises(MalformedCase) as exc:
        parse_case_line(4, line)
    assert exc.value.lineno == 4
    assert exc.value.field == "json"


@pytest.mark.parametrize(
    "field,value",
    [
        ("v", 99),
        ("v", True),
        ("v", 1.0),
        ("case", "not-a-hash"),
        ("cfg", 12),
        ("sched", "later"),
        ("oracle", None),
    ],
)
def test_each_field_is_validated(field, value):
    with pytest.raises(MalformedCase) as exc:
        parse_case_line(3, tamper(field, value))
    assert exc.value.lineno == 3
    assert exc.value.field == field


def test_edited_schedule_breaks_the_case_id():
    doc = json.loads(gen_lines()[0])
    doc["sched"] = doc["sched"][:-1]  # drop the last event
    line = json.dumps(doc, separators=(",", ":"))
    with pytest.raises(MalformedCase) as exc:
        parse_case_line(1, line)
    assert exc.value.field == "case"


@pytest.mark.parametrize("event, detail", [
    ([], "non-empty array"),
    ("C", "non-empty array"),
    (["C", 0, {"kind": "add"}], "needs"),
    (["C", 0, {"kind": "add"}, 0, 0], "needs"),
    (["C", "0", {"kind": "add"}, 0], "integers"),
    (["C", 0, {"kind": "add"}, True], "integers"),
    (["C", 0, ["add"], 0], "object"),
    (["C", 0, {"kind": "add", "id": ["x"], "arg": 10, "anchor": None}, 0], "strings"),
    (["C", 0, {"kind": None, "id": "e", "arg": 10, "anchor": None}, 0], "strings"),
    (["C", 0, {"kind": "add", "arg": 10}, 0], "strings"),
    (["C", 0, {"kind": "add", "id": "e", "arg": True, "anchor": None}, 0], "arg"),
    (["C", 0, {"kind": "add", "id": "e", "arg": "10", "anchor": None}, 0], "arg"),
    (["C", 0, {"kind": "insert", "id": "e", "arg": 10, "anchor": 3}, 0], "anchor"),
])
def test_each_client_event_check_names_sched(event, detail):
    doc = json.loads(gen_lines()[0])
    doc["sched"] = [event] + doc["sched"]
    with pytest.raises(MalformedCase) as exc:
        parse_case_line(5, json.dumps(doc, separators=(",", ":")))
    assert (exc.value.lineno, exc.value.field) == (5, "sched")
    assert "event 0: " in str(exc.value) and detail in str(exc.value)


def test_malformed_schedule_entries_are_rejected():
    doc = json.loads(gen_lines()[0])
    doc["sched"] = [["X", 1, 2, 3]] + doc["sched"]
    with pytest.raises(MalformedCase):
        parse_case_line(1, json.dumps(doc, separators=(",", ":")))
