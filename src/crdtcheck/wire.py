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
"""

from __future__ import annotations

import json
import struct

from .errors import ProtocolViolation

MAX_FRAME = 1 << 24  # nothing in this protocol gets near 16 MiB

_HEADER = struct.Struct(">I")

# Sorted keys, no whitespace, UTF-8 text.  Built once: ``json.dumps``
# with options builds a new encoder on every call.
canonical_json = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False
).encode


def encode_frame(obj: dict) -> bytes:
    body = canonical_json(obj).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ProtocolViolation(f"frame of {len(body)} bytes exceeds the maximum")
    return _HEADER.pack(len(body)) + body


def decode_frame(data: bytes) -> dict:
    """Decode one complete frame (header plus body, nothing extra)."""
    if len(data) < _HEADER.size:
        raise ProtocolViolation("truncated frame header")
    (length,) = _HEADER.unpack_from(data)
    if len(data) != _HEADER.size + length:
        raise ProtocolViolation(
            f"frame length {length} does not match payload of {len(data) - _HEADER.size}"
        )
    return _parse_body(data[_HEADER.size:])


def _parse_body(body: bytes) -> dict:
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolViolation(f"frame body is not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolViolation("frame body must be a JSON object")
    return obj


class FrameSocket:
    """Blocking frame reader/writer over a connected socket."""

    def __init__(self, sock):
        self._sock = sock
        self._buf = bytearray()

    def send(self, obj: dict) -> None:
        self._sock.sendall(encode_frame(obj))

    def recv(self) -> dict | None:
        """Next frame, or None on clean end-of-stream."""
        while True:
            if len(self._buf) >= _HEADER.size:
                (length,) = _HEADER.unpack_from(self._buf)
                if length > MAX_FRAME:
                    raise ProtocolViolation(f"incoming frame of {length} bytes")
                end = _HEADER.size + length
                if len(self._buf) >= end:
                    body = self._buf[_HEADER.size:end]
                    del self._buf[:end]  # in place: no copy of the rest
                    return _parse_body(body)
            chunk = self._sock.recv(65536)
            if not chunk:
                if self._buf:
                    raise ProtocolViolation("connection closed mid-frame")
                return None
            self._buf += chunk

    def close(self) -> None:
        self._sock.close()
