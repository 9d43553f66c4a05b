"""Minimal RFC 6455 WebSocket framing over the standard library.

The container ships no websocket package, and the protocol needs is small:
text frames carrying one JSON message each, plus ping/pong/close.  This
module implements exactly that — the opening-handshake accept key, frame
encoding, and an incremental frame parser — shared by the asyncio server
(:mod:`repro.server.app`) and the blocking socket client
(:mod:`repro.server.client`), so both ends speak from one implementation.

Deliberate limits (asserted, not silently wrong): no extensions, no
fragmented messages beyond simple continuation reassembly, and a hard cap
on frame size to bound memory per connection.
"""

from __future__ import annotations

import base64
import hashlib
import os
import struct

__all__ = [
    "GUID",
    "OP_CONT",
    "OP_TEXT",
    "OP_BINARY",
    "OP_CLOSE",
    "OP_PING",
    "OP_PONG",
    "MAX_FRAME_BYTES",
    "WSProtocolError",
    "accept_key",
    "encode_frame",
    "FrameParser",
]

#: The fixed GUID every WebSocket handshake concatenates (RFC 6455 §1.3).
GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

#: Upper bound on a single (reassembled) message; a fig-scale PPM frame is
#: ~1.2MB base64, so 16MB leaves generous headroom while bounding memory.
MAX_FRAME_BYTES = 16 * 1024 * 1024


class WSProtocolError(Exception):
    """A malformed or out-of-contract WebSocket frame."""


def accept_key(client_key: str) -> str:
    """The Sec-WebSocket-Accept value for a client's Sec-WebSocket-Key."""
    digest = hashlib.sha1((client_key.strip() + GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def _mask(payload: bytes, key: bytes) -> bytes:
    """XOR ``payload`` with the 4-byte ``key`` repeated (RFC 6455 §5.3),
    as one big-integer XOR rather than a per-byte loop; masking is its
    own inverse."""
    length = len(payload)
    repeated = (key * (length // 4 + 1))[:length]
    return (int.from_bytes(payload, "big")
            ^ int.from_bytes(repeated, "big")).to_bytes(length, "big")


def encode_frame(payload: bytes, opcode: int = OP_TEXT, *,
                 mask: bool = False, fin: bool = True) -> bytes:
    """Encode one frame.  Clients must set ``mask=True`` (RFC 6455 §5.3)."""
    header = bytearray()
    header.append((0x80 if fin else 0) | (opcode & 0x0F))
    length = len(payload)
    mask_bit = 0x80 if mask else 0
    if length < 126:
        header.append(mask_bit | length)
    elif length < 1 << 16:
        header.append(mask_bit | 126)
        header += struct.pack(">H", length)
    else:
        header.append(mask_bit | 127)
        header += struct.pack(">Q", length)
    if not mask:
        return bytes(header) + payload
    key = os.urandom(4)
    header += key
    return bytes(header) + _mask(payload, key)


class FrameParser:
    """Incremental frame parser: feed bytes, take complete messages.

    Continuation frames are reassembled transparently; control frames
    (ping/pong/close) are surfaced immediately even mid-fragmentation, as
    the RFC requires.
    """

    def __init__(self, *, require_mask: bool) -> None:
        self._buffer = bytearray()
        self._require_mask = require_mask
        self._partial: bytearray | None = None
        self._partial_opcode: int | None = None

    def feed(self, data: bytes) -> list[tuple[int, bytes]]:
        """Feed raw bytes; returns the complete (opcode, payload) messages
        they finished."""
        self._buffer += data
        messages: list[tuple[int, bytes]] = []
        while True:
            frame = self._next_frame()
            if frame is None:
                return messages
            fin, opcode, payload = frame
            if opcode in (OP_CLOSE, OP_PING, OP_PONG):
                if not fin:
                    raise WSProtocolError("fragmented control frame")
                messages.append((opcode, payload))
                continue
            if opcode == OP_CONT:
                if self._partial is None:
                    raise WSProtocolError("continuation without a start frame")
                self._partial += payload
                if len(self._partial) > MAX_FRAME_BYTES:
                    raise WSProtocolError("message exceeds MAX_FRAME_BYTES")
                if fin:
                    messages.append(
                        (self._partial_opcode, bytes(self._partial)))
                    self._partial = None
                    self._partial_opcode = None
                continue
            # A new data frame (text/binary).
            if self._partial is not None:
                raise WSProtocolError("interleaved data frames")
            if fin:
                messages.append((opcode, payload))
            else:
                self._partial = bytearray(payload)
                self._partial_opcode = opcode

    def _next_frame(self) -> tuple[bool, int, bytes] | None:
        buf = self._buffer
        if len(buf) < 2:
            return None
        first, second = buf[0], buf[1]
        if first & 0x70:
            raise WSProtocolError("reserved bits set (extensions unsupported)")
        fin = bool(first & 0x80)
        opcode = first & 0x0F
        masked = bool(second & 0x80)
        if self._require_mask and not masked:
            raise WSProtocolError("client frames must be masked")
        length = second & 0x7F
        offset = 2
        if length == 126:
            if len(buf) < offset + 2:
                return None
            (length,) = struct.unpack_from(">H", buf, offset)
            offset += 2
        elif length == 127:
            if len(buf) < offset + 8:
                return None
            (length,) = struct.unpack_from(">Q", buf, offset)
            offset += 8
        if length > MAX_FRAME_BYTES:
            raise WSProtocolError("frame exceeds MAX_FRAME_BYTES")
        key = b""
        if masked:
            if len(buf) < offset + 4:
                return None
            key = bytes(buf[offset:offset + 4])
            offset += 4
        if len(buf) < offset + length:
            return None
        payload = bytes(buf[offset:offset + length])
        del buf[:offset + length]
        if masked:
            payload = _mask(payload, key)
        return fin, opcode, payload
