"""Length-prefixed JSON framing for the replica protocol.

Every frame is a 4-byte big-endian unsigned length followed by exactly
that many bytes of UTF-8 JSON (one object, sorted keys, no whitespace).
Frames:

    -> {"req": {...}, "type": "ClientOp"}
    -> {"msg": {...}, "type": "Sync"}
    -> {"type": "Inspect"}
    -> {"type": "Shutdown"}
    <- {"accepted": bool, "syncs": [{"dest": i, "msg": {...}}, ...], "type": "Ack"}
    <- {"state": "<canonical json>", "type": "InspectReply"}
    <- {"error": "...", "type": "Error"}

The server answers every frame with exactly one reply (Shutdown gets a
final Ack before the connection closes), so a driver can run the
protocol in lockstep without tagging requests.

``canonical_json`` (sorted keys) and ``compact_json`` (insertion order)
render frames, canonical states and corpus lines without whitespace or
ASCII escapes.  Each is built once on the C encoder, which ``json.dumps``
with options rebuilds on every call, and skips the circular-reference
check, because every input is a tree built for the one rendering.
Without the C accelerator each is ``JSONEncoder.encode``: the same bytes.
"""

from __future__ import annotations

import json
import struct
from json.encoder import c_make_encoder, encode_basestring

from .errors import MalformedFrame, ProtocolViolation

MAX_FRAME = 1 << 24  # nothing in this protocol gets near 16 MiB

_HEADER = struct.Struct(">I")


def _encoder(sort_keys: bool):
    """``JSONEncoder(sort_keys=sort_keys, separators=(",", ":"),
    ensure_ascii=False).encode``, built once."""
    if c_make_encoder is None:
        return json.JSONEncoder(
            sort_keys=sort_keys, separators=(",", ":"), ensure_ascii=False
        ).encode
    chunks = c_make_encoder(
        None,  # markers: no circular-reference check
        json.JSONEncoder().default,  # raises TypeError for a set, bytes, ...
        encode_basestring, None, ":", ",", sort_keys, False, True,
    )

    def encode(obj) -> str:
        return "".join(chunks(obj, 0))

    return encode


canonical_json = _encoder(sort_keys=True)
compact_json = _encoder(sort_keys=False)

_scan_once = json.JSONDecoder().scan_once


def encode_frame(obj: dict) -> bytes:
    body = canonical_json(obj).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ProtocolViolation(f"frame of {len(body)} bytes exceeds the maximum")
    return _HEADER.pack(len(body)) + body


def _parse_body(body) -> dict:
    """The JSON object a frame body (any bytes-like object) holds.  A lone
    JSON value, as every encoded frame is, is scanned without the wrapper
    of ``json.loads``, which gives anything else its verdict and message."""
    try:
        text = str(body, "utf-8")
        try:
            obj, end = _scan_once(text, 0)
        except StopIteration:
            end = -1
        if end != len(text):
            obj = json.loads(text)
    except ValueError as exc:  # bad UTF-8 or JSON, or an integer too long to parse
        raise MalformedFrame(f"frame body is not JSON: {exc}") from None
    except RecursionError:
        raise MalformedFrame("frame body nests too deeply") from None
    if not isinstance(obj, dict):
        raise MalformedFrame("frame body must be a JSON object")
    return obj


class FrameSocket:
    """Blocking frame reader/writer over a connected socket."""

    def __init__(self, sock):
        self._sock = sock
        self._buf = bytearray()

    def send(self, obj: dict) -> None:
        self._sock.sendall(encode_frame(obj))

    def recv(self) -> dict | None:
        """Next frame, or None on clean end-of-stream.  Received chunks
        collect in one buffer, so a frame may arrive in pieces and one
        chunk may hold several frames."""
        buf = self._buf
        while True:
            if len(buf) >= _HEADER.size:
                (length,) = _HEADER.unpack_from(buf)
                if length > MAX_FRAME:
                    raise ProtocolViolation(f"incoming frame of {length} bytes")
                end = _HEADER.size + length
                if len(buf) >= end:
                    body = buf[_HEADER.size:end]
                    del buf[:end]  # in place: no copy of the rest
                    return _parse_body(body)
            chunk = self._sock.recv(65536)
            if not chunk:
                if buf:
                    raise ProtocolViolation("connection closed mid-frame")
                return None
            buf += chunk

    def close(self) -> None:
        self._sock.close()
