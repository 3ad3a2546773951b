"""The wire encoders and the frame-body parser against the ``json`` module."""

from __future__ import annotations

import importlib
import json
import json.encoder
import struct

import pytest

from conftest import ScriptedSocket
from crdtcheck import wire
from crdtcheck.errors import MalformedFrame
from crdtcheck.server import ReplicaServer
from crdtcheck.wire import FrameSocket, canonical_json, compact_json

# Ids that JSON escapes (quote, backslash, control character) or writes
# as non-ASCII UTF-8.
ESCAPED_IDS = ('a"b', "c\\d", "é", "\x00", "😀")


def session_frames() -> list:
    """Every frame kind, each as a real server sends or receives it."""
    frames = []
    for data_type, kinds in (("list", ("insert", "update", "remove", "readd")),
                             ("rpq", ("add", "increase", "remove"))):
        a, b = ReplicaServer(data_type, 0, 2), ReplicaServer(data_type, 1, 2)
        for elem in ESCAPED_IDS:
            for kind in kinds:
                arg = None if kind in ("remove", "readd") else 7
                frame = {"req": {"anchor": None, "arg": arg, "id": elem, "kind": kind},
                         "type": "ClientOp"}
                ack = a.handle_frame(frame)
                frames += [frame, ack]
                for sync in ack["syncs"]:
                    frames += [{"msg": sync["msg"], "type": "Sync"}]
                    frames += [b.handle_frame(frames[-1])]
        for srv in (a, b):
            frames += [{"type": "Inspect"}, srv.handle_frame({"type": "Inspect"})]
    frames += [{"type": "Shutdown"}, {"error": 'bad "frame"\n', "type": "Error"}]
    return frames


SAMPLES = session_frames() + [
    [[1, [2, [None, True, False]]], [], {}],
    {"z": None, "a": [True, False, -3, 10**30], "m": {"b": [], "a": {}}},
    {name: [name, {name: name}] for name in ESCAPED_IDS},
    "a plain string", 'a"b', None, True, 0, [],
]


def test_every_frame_kind_is_sampled():
    kinds = {x.get("type") for x in SAMPLES if isinstance(x, dict)}
    assert {"ClientOp", "Sync", "Inspect", "Shutdown", "Ack", "InspectReply",
            "Error"} <= kinds


def check_encoders(canonical, compact) -> None:
    for x in SAMPLES:
        assert canonical(x) == json.dumps(
            x, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        assert compact(x) == json.dumps(x, separators=(",", ":"), ensure_ascii=False)
    for bad in ({"a": {1, 2}}, [b"bytes"], {1}, b"x"):
        with pytest.raises(TypeError):
            canonical(bad)
        with pytest.raises(TypeError):
            compact(bad)


def test_encoders_match_json_dumps():
    check_encoders(canonical_json, compact_json)


@pytest.fixture
def python_encoder_wire(monkeypatch):
    """``wire`` reloaded as if the C accelerator were missing."""
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    try:
        yield importlib.reload(wire)
    finally:
        monkeypatch.undo()
        importlib.reload(wire)


def test_fallback_encoders_give_the_same_bytes(python_encoder_wire):
    assert isinstance(python_encoder_wire.canonical_json.__self__, json.JSONEncoder)
    check_encoders(python_encoder_wire.canonical_json, python_encoder_wire.compact_json)
    for x in SAMPLES:
        assert python_encoder_wire.canonical_json(x) == canonical_json(x)


# -- parsing --------------------------------------------------------------------


def read_frame(body: bytes, split: bool) -> dict:
    """``body`` framed and read back by ``FrameSocket.recv``, arriving in
    one chunk, or in two when ``split``."""
    frame = struct.pack(">I", len(body)) + body
    chunks = [frame[:5], frame[5:]] if split else [frame]
    return FrameSocket(ScriptedSocket(chunks)).recv()


# Bodies the shortcut past ``json.loads`` must take or refuse exactly as
# ``json.loads`` does: surrounding whitespace, trailing data, a BOM.
BODIES = [
    b'{"type":"Inspect"}', b' {"type":"Inspect"}', b'{"type":"Inspect"}\n',
    b'{"a":1}{"b":2}', b'{"a":1} x', '﻿{"a":1}'.encode(), b"", b" ",
    b"{nope", b"x", b"[1]", b"7", '{"é":"😀"}'.encode(),
]


@pytest.mark.parametrize("body", BODIES)
def test_frame_bodies_parse_as_json_loads_does(body):
    try:
        want = json.loads(body.decode("utf-8"))
    except json.JSONDecodeError as exc:
        for split in (False, True):
            with pytest.raises(MalformedFrame, match="not JSON") as got:
                read_frame(body, split)
            assert str(exc) in str(got.value)
        return
    for split in (False, True):
        if isinstance(want, dict):
            assert read_frame(body, split) == want
        else:
            with pytest.raises(MalformedFrame, match="JSON object"):
                read_frame(body, split)


@pytest.mark.parametrize("body", [
    b'{"a":' + b"[" * 100_000 + b"]" * 100_000 + b"}",  # nests past the recursion limit
    b'{"a":' + b"1" * 5000 + b"}",  # too many digits for int()
    b'{"a":"\xff"}',  # not UTF-8
], ids=["deep", "long-int", "not-utf8"])
def test_unparseable_bodies_are_malformed_frames(body):
    assert len(body) < wire.MAX_FRAME
    for split in (False, True):
        with pytest.raises(MalformedFrame):
            read_frame(body, split)
