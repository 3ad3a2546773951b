"""The out-of-process replica: framing, protocol, parity with the model."""

from __future__ import annotations

import copy
import random
import socket
import threading

import pytest

from conftest import ScriptedSocket
from crdtcheck.errors import (
    DuplicateDelivery,
    ProtocolViolation,
    UnknownFlag,
)
from crdtcheck.explorer import (
    ExplorationConfig,
    enumerate_traces,
)
from crdtcheck.harness import LoopbackEndpoint, SocketEndpoint, stress
from crdtcheck.operations import OperationRequest
from crdtcheck.positions import generate_between
from crdtcheck.replica import fresh_replica
from crdtcheck.server import (
    BUG_FLAGS,
    ReplicaServer,
    _Ctx,
    _gen_pos,
    _ListElem,
    serve_connection,
)
from crdtcheck.wire import MAX_FRAME, FrameSocket, encode_frame


def req_wire(kind, elem, arg=None, anchor=None) -> dict:
    return {"anchor": anchor, "arg": arg, "id": elem, "kind": kind}


def client_frame(kind, elem, arg=None, anchor=None) -> dict:
    return {"req": req_wire(kind, elem, arg, anchor), "type": "ClientOp"}


# -- framing ------------------------------------------------------------------


def test_frame_round_trip():
    obj = {"type": "Inspect", "nested": {"a": [1, 2, {"b": None}]}}
    assert FrameSocket(ScriptedSocket([encode_frame(obj)])).recv() == obj


def test_frame_encoding_is_canonical():
    a = encode_frame({"b": 1, "a": 2})
    b = encode_frame({"a": 2, "b": 1})
    assert a == b


def test_oversized_frame_is_refused():
    with pytest.raises(ProtocolViolation):
        encode_frame({"blob": "x" * (MAX_FRAME + 1)})


def test_frame_socket_handles_split_and_coalesced_reads():
    left, right = socket.socketpair()
    try:
        fs = FrameSocket(right)
        payloads = [{"type": "Inspect"}, {"type": "Shutdown", "pad": "y" * 1000}]
        blob = b"".join(encode_frame(p) for p in payloads)
        # drip-feed one byte at a time; recv must reassemble
        def drip():
            for i in range(0, len(blob), 7):
                left.sendall(blob[i : i + 7])
            left.close()

        t = threading.Thread(target=drip)
        t.start()
        assert fs.recv() == payloads[0]
        assert fs.recv() == payloads[1]
        assert fs.recv() is None  # clean EOF
        t.join()
    finally:
        right.close()


def test_frame_socket_reassembles_byte_drips_and_splits_batches():
    a, b, c = {"type": "Inspect", "pad": "x" * 300}, {"type": "Shutdown"}, {"n": [1]}
    frame_a = encode_frame(a)
    drips = [frame_a[i:i + 1] for i in range(len(frame_a))]
    fs = FrameSocket(ScriptedSocket(drips + [encode_frame(b) + encode_frame(c)]))
    assert fs.recv() == a  # one byte per recv call
    assert fs.recv() == b  # two frames arrived in one chunk
    assert fs.recv() == c
    assert fs.recv() is None


def test_frame_socket_parses_whole_chunks_and_buffers_the_rest():
    frames = [{"type": "Inspect"}, {"n": "é" * 50}, {"n": [2]}, {"n": None}, {"type": "Shutdown"}]
    a, b, c, d, e = map(encode_frame, frames)
    # whole frame; a frame in two pieces whose tail carries the next one;
    # whole frames again once the buffer is empty
    fs = FrameSocket(ScriptedSocket([a, b[:5], b[5:] + c, d, e]))
    assert [fs.recv() for _ in frames] == frames
    assert fs.recv() is None and not fs._buf


def test_oversized_incoming_frame_is_refused_without_reading_it():
    fs = FrameSocket(ScriptedSocket([(MAX_FRAME + 1).to_bytes(4, "big") + b"{}"]))
    with pytest.raises(ProtocolViolation, match="incoming frame"):
        fs.recv()
    with pytest.raises(ProtocolViolation, match="incoming frame"):
        fs.recv()  # the stream stays refused


def test_eof_inside_a_frame_is_a_protocol_violation():
    left, right = socket.socketpair()
    try:
        fs = FrameSocket(right)
        frame = encode_frame({"type": "Inspect"})
        left.sendall(frame[: len(frame) - 3])
        left.close()
        with pytest.raises(ProtocolViolation):
            fs.recv()
    finally:
        right.close()


# -- lifecycle and dispatch ----------------------------------------------------


def test_unknown_bug_flag_is_refused_at_construction():
    with pytest.raises(UnknownFlag):
        ReplicaServer("rpq", 0, 2, ("bug99-nope",))


def test_client_op_acks_with_fan_out():
    srv = ReplicaServer("rpq", 0, 3)
    reply = srv.handle_frame(client_frame("add", "e", 10))
    assert reply["type"] == "Ack" and reply["accepted"]
    assert [s["dest"] for s in reply["syncs"]] == [1, 2]
    msg = reply["syncs"][0]["msg"]
    assert msg["origin"] == 0
    assert msg["op"]["dot"] == [0, 1]
    assert msg["op"]["kind"] == "add"


def test_single_replica_setup_broadcasts_to_nobody():
    srv = ReplicaServer("rpq", 0, 1)
    reply = srv.handle_frame(client_frame("add", "e", 10))
    assert reply["accepted"] and reply["syncs"] == []


# requests a list server with one element, e1, must refuse: the id is
# in use, the update's id was never seen, the anchor was never seen
REFUSED = [
    ("insert", "e1", 20),
    ("update", "zz", 20),
    ("insert", "e3", 20, "zz"),
]


def test_rejected_request_changes_nothing():
    for req in REFUSED:
        srv = ReplicaServer("list", 0, 2)
        srv.handle_frame(client_frame("insert", "e1", 10))
        before = srv.canonical_state()
        reply = srv.handle_frame(client_frame(*req))
        assert reply == {"accepted": False, "syncs": [], "type": "Ack"}, req
        assert srv.canonical_state() == before
        # the dot counter must not have burned an increment
        reply = srv.handle_frame(client_frame("insert", "e2", 20))
        assert reply["syncs"][0]["msg"]["op"]["dot"] == [0, 2]


def test_duplicate_sync_raises():
    a = ReplicaServer("rpq", 0, 2)
    b = ReplicaServer("rpq", 1, 2)
    reply = a.handle_frame(client_frame("add", "e", 10))
    sync = {"msg": reply["syncs"][0]["msg"], "type": "Sync"}
    b.handle_frame(sync)
    with pytest.raises(DuplicateDelivery):
        b.handle_frame(sync)


def test_unknown_frame_type_raises():
    srv = ReplicaServer("rpq", 0, 2)
    with pytest.raises(ProtocolViolation):
        srv.handle_frame({"type": "Gossip"})


def peer_sync(data_type: str, op=None, ctx=None) -> dict:
    """A Sync frame from replica 1's first operation, with fields of its
    operation and context overridden."""
    kind, elem = ("add", "e") if data_type == "rpq" else ("insert", "e1")
    peer = ReplicaServer(data_type, 1, 2)
    msg = peer.handle_frame(client_frame(kind, elem, 10))["syncs"][0]["msg"]
    msg["op"].update(op or {})
    msg["ctx"].update(ctx or {})
    return {"msg": msg, "type": "Sync"}


def without(frame: dict, field: str) -> dict:
    """A Sync ``frame`` with ``field`` left out of its message."""
    return {**frame, "msg": {k: v for k, v in frame["msg"].items() if k != field}}


MALFORMED = [
    ("rpq", {"type": "ClientOp"}),
    ("rpq", {"type": "ClientOp", "req": {"kind": "add"}}),
    ("rpq", {"type": "ClientOp", "req": {"kind": "add", "id": "", "arg": 1}}),
    ("rpq", {"type": "ClientOp", "req": {"kind": "add", "id": "e", "arg": "x"}}),
    ("rpq", {"type": "ClientOp", "req": {"kind": "frobnicate", "id": "e"}}),
    ("rpq", {"type": "Sync"}),
    ("rpq", {"type": "Sync", "msg": {"op": {"kind": "add"}}}),
    ("list", peer_sync("list", op={"pos": [[1, 2]]})),
    ("list", peer_sync("list", op={"pos": [["a", 1, 1]]})),
    ("list", peer_sync("list", op={"kind": "update", "deps": [["x", "y"]]})),
    ("rpq", peer_sync("rpq", op={"deps": [["x", "y"]]})),
    ("rpq", peer_sync("rpq", ctx={"seen": {"0": "zz"}})),
    ("rpq", peer_sync("rpq", ctx={"extra": [1]})),
    ("rpq", peer_sync("rpq", op={"arg": "s"})),
    ("rpq", peer_sync("rpq", op={"dot": [0, 5]})),  # the receiver's own dot
    # JSON true and false decode to bools, which isinstance counts as ints
    ("rpq", peer_sync("rpq", op={"dot": [True, 1]})),
    ("rpq", {"type": "ClientOp", "req": {"kind": "add", "id": "e", "arg": True}}),
    ("list", {"type": "ClientOp", "req": {"kind": "update", "id": "e0", "arg": False}}),
    ("list", peer_sync("list", op={"arg": True})),
    ("list", peer_sync("list", op={"pos": [[1, True, 1]]})),
    ("rpq", peer_sync("rpq", op={"deps": [[True, 1]]})),
    ("rpq", peer_sync("rpq", ctx={"seen": {"0": True}})),
    ("rpq", peer_sync("rpq", ctx={"extra": [[0, False]]})),
    # dots from replicas outside 0..n-1
    ("rpq", peer_sync("rpq", op={"dot": [7, 1]})),
    ("list", peer_sync("list", op={"dot": [-1, 1]})),
    # the op fields a Sync carries are checked as a ClientOp's request is
    ("rpq", peer_sync("rpq", op={"id": ""})),
    ("list", peer_sync("list", op={"anchor": 5})),
    ("rpq", without(peer_sync("rpq"), "op")),
    ("list", without(peer_sync("list"), "ctx")),
]


@pytest.mark.parametrize(
    "data_type, frame", MALFORMED, ids=[f"frame{i}" for i in range(len(MALFORMED))]
)
def test_malformed_frames_raise(data_type, frame):
    srv = ReplicaServer(data_type, 0, 2)
    srv.handle_frame(client_frame(*(("add", "e", 5) if data_type == "rpq"
                                    else ("insert", "e0", 5))))
    before = srv.handle_frame({"type": "Inspect"})
    with pytest.raises(ProtocolViolation):
        srv.handle_frame(frame)
    assert srv.handle_frame({"type": "Inspect"}) == before


@pytest.mark.parametrize("right", [
    ((0, 2, 9), (32, 2, 9)),
    ((0, 2, 9), (1, 2, 9)),
    ((0, 2, 9), (0, 1, 3), (7, 1, 3)),
], ids=["padding", "padding-then-tight", "padding-twice"])
def test_head_insert_below_a_padded_position_matches_the_model(right):
    # The only existent element's position starts with a padding triple
    # (digit 0): a head insert must walk inside it to sort below it.
    srv = ReplicaServer("list", 0, 2)
    srv.handle_frame(peer_sync("list", op={"pos": [list(t) for t in right]}))
    reply = srv.handle_frame(client_frame("insert", "e2", 10))
    pos = tuple(map(tuple, reply["syncs"][0]["msg"]["op"]["pos"]))
    assert pos == generate_between(None, right, 0, 1)
    assert pos < right


def foreign_update():
    """Replica 1's insert of e1 (dot [1,1]), an update of ``zz`` whose
    deps name that insert (dot [1,2]), and an update of e1 (dot [1,3])."""
    peer = ReplicaServer("list", 1, 2)
    ins, bad, upd = (
        peer.handle_frame(client_frame(*f))["syncs"][0]["msg"]
        for f in (("insert", "e1", 10), ("update", "e1", 20), ("update", "e1", 30))
    )
    bad["op"]["id"] = "zz"
    return [{"msg": m, "type": "Sync"} for m in (ins, bad, upd)]


def test_update_of_a_foreign_element_changes_nothing():
    ins, bad, _ = foreign_update()
    srv = LoopbackEndpoint(ReplicaServer("list", 0, 2))
    srv.send(ins)
    before = srv.send({"type": "Inspect"})
    reply = srv.send(bad)
    assert reply["type"] == "Error" and "before its insert" in reply["error"]
    assert srv.send({"type": "Inspect"}) == before
    assert '"seen":{"1":1}' in before["state"]


def test_buffered_foreign_update_is_dropped_when_released():
    ins, bad, upd = foreign_update()
    srv = LoopbackEndpoint(ReplicaServer("list", 0, 2))
    assert srv.send(bad)["type"] == "Ack"  # deps unmet: buffered
    assert srv.send(upd)["type"] == "Ack"
    reply = srv.send(ins)  # releases both; the foreign update is refused
    assert reply["type"] == "Error" and "before its insert" in reply["error"]
    ref = LoopbackEndpoint(ReplicaServer("list", 0, 2))
    ref.send(ins)
    ref.send(upd)
    # the legal update still applied; [1,2] is neither applied nor buffered
    assert srv.send({"type": "Inspect"}) == ref.send({"type": "Inspect"})
    assert srv.send(bad)["type"] == "Error"


def test_inspect_matches_the_model_normal_form():
    srv = ReplicaServer("rpq", 0, 2)
    model = fresh_replica("rpq", 0)
    for kind, arg in [("add", 10), ("increase", -3), ("add", 20)]:
        srv.handle_frame(client_frame(kind, "e", arg))
        model, _ = model.issue(OperationRequest(kind, "e", arg))
    reply = srv.handle_frame({"type": "Inspect"})
    assert reply["type"] == "InspectReply"
    assert reply["state"] == model.normalize()


# -- parity with the model, random schedules ------------------------------------


@pytest.mark.parametrize("data_type", ["rpq", "list"])
def test_random_schedules_agree_with_the_model(data_type):
    rng = random.Random(20_26)
    cfg = ExplorationConfig(data_type=data_type, n=2, q=4)
    # sample complete schedules from the walk and replay each against
    # fresh servers, comparing sync bytes and end states
    schedules: list = []
    enumerate_traces(cfg, lambda t: schedules.append(t.schedule))
    sample = rng.sample(schedules, 60)

    for schedule in sample:
        servers = [ReplicaServer(data_type, i, 2) for i in range(2)]
        models = [fresh_replica(data_type, i) for i in range(2)]
        pending: dict = {}
        model_pending: dict = {}
        for ev in schedule:
            if hasattr(ev, "req"):  # client event
                reply = servers[ev.target].handle_frame(
                    {"req": ev.req.as_wire(), "type": "ClientOp"}
                )
                assert reply["accepted"]
                new_model, msg = models[ev.target].issue(ev.req)
                models[ev.target] = new_model
                for s in reply["syncs"]:
                    key = (s["dest"], msg.op.dot.replica, msg.op.dot.counter)
                    pending[key] = s["msg"]
                    model_pending[key] = msg
            else:
                key = (ev.dest, ev.origin, ev.counter)
                servers[ev.dest].handle_frame(
                    {"msg": pending.pop(key), "type": "Sync"}
                )
                models[ev.dest] = models[ev.dest].deliver(model_pending.pop(key))
        for i in range(2):
            state = servers[i].handle_frame({"type": "Inspect"})["state"]
            assert state == models[i].normalize(), (
                f"replica {i} diverged on {schedule}"
            )


# -- seeded defects --------------------------------------------------------------


def scenario_insert_remove_readd():
    """Three list ops from one origin; returns their sync messages."""
    origin = ReplicaServer("list", 0, 2)
    msgs = []
    for frame in [
        client_frame("insert", "e1", 10),
        client_frame("remove", "e1"),
        client_frame("readd", "e1"),
    ]:
        reply = origin.handle_frame(frame)
        msgs.append(reply["syncs"][0]["msg"])
    return origin, msgs


def test_flagless_server_buffers_out_of_order_arrivals():
    origin, (ins, rem, readd) = scenario_insert_remove_readd()
    dest = ReplicaServer("list", 1, 2)
    dest.handle_frame({"msg": readd, "type": "Sync"})
    dest.handle_frame({"msg": rem, "type": "Sync"})
    assert dest.handle_frame({"type": "Inspect"})["state"].find("e1") == -1
    dest.handle_frame({"msg": ins, "type": "Sync"})
    assert dest.canonical_state() == origin.canonical_state()


def test_bug1_server_materializes_ghosts():
    origin, (ins, rem, readd) = scenario_insert_remove_readd()
    dest = ReplicaServer("list", 1, 2, ("bug1-readd-accept",))
    dest.handle_frame({"msg": readd, "type": "Sync"})
    state = dest.handle_frame({"type": "Inspect"})["state"]
    assert '"e1"' in state  # sprang into existence without its insert
    dest.handle_frame({"msg": rem, "type": "Sync"})
    dest.handle_frame({"msg": ins, "type": "Sync"})
    assert dest.canonical_state() != origin.canonical_state()


def test_bug2_server_drops_early_arrivals():
    origin = ReplicaServer("list", 0, 2, ())
    ins = origin.handle_frame(client_frame("insert", "e1", 10))["syncs"][0]["msg"]
    rem = origin.handle_frame(client_frame("remove", "e1"))["syncs"][0]["msg"]

    dest = ReplicaServer("list", 1, 2, ("bug2-assume-causal",))
    dest.handle_frame({"msg": rem, "type": "Sync"})  # deps unmet: dropped
    dest.handle_frame({"msg": ins, "type": "Sync"})
    state = dest.canonical_state()
    # the element looks alive at the destination, deleted at the origin
    assert '"existence":"existent"' in state
    assert '"existence":"once-existent"' in origin.canonical_state()
    assert state != origin.canonical_state()


def test_assume_causal_drops_an_early_readd_before_readd_accept_sees_it():
    # With both model flags, bug2 decides first: a re-add that arrives
    # before its insert is consumed and lost, not turned into a ghost.
    flags = frozenset(["bug1-readd-accept", "bug2-assume-causal"])
    r0 = fresh_replica("list", 0)
    r0, _ = r0.issue(OperationRequest("insert", "e1", 10))
    r0, readd_msg = r0.issue(OperationRequest("readd", "e1"))
    model = fresh_replica("list", 1, flags).deliver(readd_msg)
    assert model.applied.contains(readd_msg.op.dot)
    assert model.pending == {} and model.elems == {}

    _, (_, _, readd) = scenario_insert_remove_readd()
    srv = ReplicaServer("list", 1, 2, sorted(flags))
    srv.handle_frame({"msg": readd, "type": "Sync"})
    assert srv.applied.has(*readd["op"]["dot"])
    assert srv.pending == {} and srv.elems == {}
    assert '"e1"' not in srv.canonical_state()


def test_bug4_server_invents_dummy_positions():
    origin, (ins, rem, readd) = scenario_insert_remove_readd()
    dest = ReplicaServer("list", 1, 2, ("bug4-dummy-position",))
    dest.handle_frame({"msg": rem, "type": "Sync"})
    state = dest.handle_frame({"type": "Inspect"})["state"]
    assert '"pos":[[64,0,0]]' in state  # out-of-range marker position
    dest.handle_frame({"msg": ins, "type": "Sync"})
    dest.handle_frame({"msg": readd, "type": "Sync"})
    assert dest.canonical_state() != origin.canonical_state()


def test_bug7_server_misorders_its_position_index():
    # Two replicas insert concurrently at the head, then each appends
    # after its own element; the buggy index reverses the neighbour
    # lookup for same-digit positions, so generated positions differ.
    flagless = [ReplicaServer("list", i, 2) for i in range(2)]
    buggy = [ReplicaServer("list", i, 2, ("bug7-idgen-order",)) for i in range(2)]

    def run(pair):
        a, b = pair
        r1 = a.handle_frame(client_frame("insert", "a1", 10))
        r2 = b.handle_frame(client_frame("insert", "b1", 20))
        a.handle_frame({"msg": r2["syncs"][0]["msg"], "type": "Sync"})
        b.handle_frame({"msg": r1["syncs"][0]["msg"], "type": "Sync"})
        r3 = a.handle_frame(client_frame("insert", "a2", 10, anchor="b1"))
        b.handle_frame({"msg": r3["syncs"][0]["msg"], "type": "Sync"})
        return [p.canonical_state() for p in pair]

    clean = run(flagless)
    assert clean[0] == clean[1]
    broken = run(buggy)
    assert broken != clean


# -- rendering cache and position index -------------------------------------------


class CacheChecked:
    """Loopback endpoint that, after every frame, checks the server's
    canonical state against a copy that renders every member afresh."""

    def __init__(self, server: ReplicaServer):
        self.server = server
        self._inner = LoopbackEndpoint(server)
        self.frames = 0

    def send(self, obj: dict) -> dict:
        reply = self._inner.send(obj)
        cold = copy.copy(self.server)
        cold.members = {}
        assert self.server.canonical_state() == cold.canonical_state()
        self.frames += 1
        return reply


@pytest.mark.parametrize("data_type", ["rpq", "list"])
@pytest.mark.parametrize("flag", [None, *BUG_FLAGS])
def test_cached_members_match_a_cold_rendering(data_type, flag):
    flags = (flag,) if flag else ()
    frames = 0
    for seed in range(1, 6):
        endpoints = [CacheChecked(ReplicaServer(data_type, i, 3, flags)) for i in range(3)]
        stress(data_type, 3, seed=seed, rounds=6, ops_per_round=20,
               bug_flags=flags, endpoints=endpoints)
        frames += sum(ep.frames for ep in endpoints)
    assert frames > 400  # a flag stops each session at its first divergence


def linear_scan_position(server: ReplicaServer, anchor, counter: int):
    """``_generate_position`` as a scan of every existent index entry: the
    reference for the bisect lookup."""
    ordered = [
        (key, pos) for key, pos, elem in server.by_pos
        if server._list_existent(server.elems[elem])
    ]
    if anchor is None:
        left = None
        right = ordered[0][1] if ordered else None
    else:
        left = server.elems[anchor].pos
        left_key = server._index_key(left)
        right = None
        for key, pos in ordered:
            if key > left_key:
                right = pos
                break
    return _gen_pos(left, right, server.replica, counter)


@pytest.mark.parametrize("flags", [(), ("bug7-idgen-order",)])
def test_position_lookup_matches_the_linear_scan(flags):
    rng = random.Random(4)
    for _ in range(60):
        server = ReplicaServer("list", 0, 3, flags)
        for k in range(rng.randrange(1, 25)):
            # few digits, replicas and counters, so prefixes and whole
            # positions repeat
            pos = tuple((rng.randrange(1, 4), rng.randrange(3), rng.randrange(1, 3))
                        for _ in range(rng.randrange(1, 3)))
            elem = f"e{k}"
            server._index_insert(pos, elem)
            server.elems[elem] = _ListElem((1, k + 1), pos, 0, _Ctx())
            server.elems[elem].ins.alive = rng.random() < 0.5
        for anchor in [None, *server.elems]:
            assert (server._generate_position(anchor, 9)
                    == linear_scan_position(server, anchor, 9))


# -- socket transport -------------------------------------------------------------


def test_serve_connection_over_a_real_socket():
    srv_sock, cli_sock = socket.socketpair()
    server = ReplicaServer("rpq", 0, 2)
    t = threading.Thread(target=serve_connection, args=(server, srv_sock))
    t.start()
    try:
        ep = SocketEndpoint(FrameSocket(cli_sock))
        reply = ep.send(client_frame("add", "e", 10))
        assert reply["accepted"]
        reply = ep.send({"type": "Inspect"})
        assert '"value":10' in reply["state"]
        # protocol errors come back as Error frames, connection stays up
        reply = ep.send({"type": "Gossip"})
        assert reply["type"] == "Error" and "Gossip" in reply["error"]
        reply = ep.send({"type": "Inspect"})
        assert reply["type"] == "InspectReply"
        ep.close()  # sends Shutdown
    finally:
        t.join(timeout=5)
        srv_sock.close()
        assert not t.is_alive()


# A body nested far past the recursion limit, far below MAX_FRAME.
DEEP_BODY = b'{"a":' + b"[" * 100_000 + b"]" * 100_000 + b"}"


def test_serve_connection_refuses_a_deep_frame_and_carries_on():
    srv_sock, cli_sock = socket.socketpair()
    cli_sock.settimeout(5)  # a server that died would never answer
    server = ReplicaServer("list", 0, 2)
    t = threading.Thread(target=serve_connection, args=(server, srv_sock))
    t.start()
    try:
        ep = SocketEndpoint(FrameSocket(cli_sock))
        assert ep.send(client_frame("insert", "e1", 10))["accepted"]
        before = ep.send({"type": "Inspect"})
        cli_sock.sendall(len(DEEP_BODY).to_bytes(4, "big") + DEEP_BODY)
        reply = FrameSocket(cli_sock).recv()
        assert reply["type"] == "Error" and "nests too deeply" in reply["error"]
        assert ep.send({"type": "Inspect"}) == before
        assert ep.send(client_frame("update", "e1", 20))["accepted"]
        ep.close()  # sends Shutdown
    finally:
        t.join(timeout=5)
        srv_sock.close()
        assert not t.is_alive()


# A peer's insert position 1,500 triples deep: past the recursion limit.
DEEP_POSITION = [[63, 1, 1]] * 1500


def insert_after_a_deep_position(ep) -> None:
    """Deliver a peer's insert of e1 at DEEP_POSITION, insert e2 after
    it, and check the session still answers."""
    assert ep.send(peer_sync("list", op={"pos": DEEP_POSITION}))["type"] == "Ack"
    reply = ep.send(client_frame("insert", "e2", 20, anchor="e1"))
    assert reply["type"] == "Ack" and reply["accepted"]
    assert reply["syncs"][0]["msg"]["op"]["pos"] == DEEP_POSITION + [[32, 0, 1]]
    assert ep.send({"type": "Inspect"})["type"] == "InspectReply"


def test_insert_after_a_deep_peer_position_is_acked_over_loopback():
    insert_after_a_deep_position(LoopbackEndpoint(ReplicaServer("list", 0, 2)))


def test_insert_after_a_deep_peer_position_is_acked_over_a_socket():
    srv_sock, cli_sock = socket.socketpair()
    cli_sock.settimeout(5)  # a server that died would never answer
    t = threading.Thread(
        target=serve_connection, args=(ReplicaServer("list", 0, 2), srv_sock)
    )
    t.start()
    try:
        ep = SocketEndpoint(FrameSocket(cli_sock))
        insert_after_a_deep_position(ep)
        ep.close()  # sends Shutdown
    finally:
        t.join(timeout=5)
        srv_sock.close()
        assert not t.is_alive()


def test_serve_connection_refuses_an_oversized_header_and_ends():
    srv_sock, cli_sock = socket.socketpair()
    with srv_sock, cli_sock:
        cli_sock.settimeout(5)
        cli_sock.sendall((MAX_FRAME + 1).to_bytes(4, "big") + b"{")
        serve_connection(ReplicaServer("rpq", 0, 2), srv_sock)  # returns
        reply = FrameSocket(cli_sock).recv()
        assert reply["type"] == "Error" and str(MAX_FRAME + 1) in reply["error"]


def test_serve_connection_answers_an_oversized_reply_with_an_error(monkeypatch):
    limit = 200
    monkeypatch.setattr("crdtcheck.wire.MAX_FRAME", limit)
    srv_sock, cli_sock = socket.socketpair()
    cli_sock.settimeout(5)  # a server that died would never answer
    t = threading.Thread(
        target=serve_connection, args=(ReplicaServer("rpq", 0, 1), srv_sock)
    )
    t.start()
    try:
        ep = SocketEndpoint(FrameSocket(cli_sock))
        # a body of limit - 3 bytes, whose "unknown frame type" echo is longer
        reply = ep.send({"type": "x" * (limit - 14)})
        assert reply["type"] == "Error" and "exceeds the maximum" in reply["error"]
        for elem in ("a" * 40, "b" * 40):
            assert ep.send(client_frame("add", elem, 1))["accepted"]
        reply = ep.send({"type": "Inspect"})  # a state of more than 200 bytes
        assert reply["type"] == "Error" and "exceeds the maximum" in reply["error"]
        assert ep.send(client_frame("remove", "a" * 40))["accepted"]
        ep.close()  # sends Shutdown
    finally:
        t.join(timeout=5)
        srv_sock.close()
        assert not t.is_alive()


@pytest.mark.parametrize("sent", [
    encode_frame({"type": "Inspect"})[:-3],
    encode_frame({"type": "Inspect"}),
    (3).to_bytes(4, "big") + b"[1]",
], ids=["mid-frame", "before-the-reply", "before-the-refusal"])
def test_serve_connection_ends_quietly_when_the_peer_closes(sent):
    srv_sock, cli_sock = socket.socketpair()
    with srv_sock:
        cli_sock.sendall(sent)
        cli_sock.close()
        serve_connection(ReplicaServer("rpq", 0, 2), srv_sock)  # returns


def test_loopback_and_socket_endpoints_agree():
    loop = LoopbackEndpoint(ReplicaServer("list", 0, 2))
    srv_sock, cli_sock = socket.socketpair()
    t = threading.Thread(
        target=serve_connection, args=(ReplicaServer("list", 0, 2), srv_sock)
    )
    t.start()
    sock_ep = SocketEndpoint(FrameSocket(cli_sock))
    try:
        frames = [
            client_frame("insert", "e1", 10),
            client_frame("update", "e1", 20),
            client_frame("insert", "e1", 30),  # rejected on both
            {"type": "Inspect"},
        ]
        for frame in frames:
            assert loop.send(frame) == sock_ep.send(frame)
    finally:
        sock_ep.close()
        t.join(timeout=5)
        srv_sock.close()
