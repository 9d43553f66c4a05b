"""WebSocket payload masking (RFC 6455 §5.3) and frame round trips.

``ws._mask`` XORs the payload with the repeated 4-byte key as one big
integer; these tests pin it to the per-byte definition and round-trip
every payload-length form through ``encode_frame`` and ``FrameParser``.
"""

from __future__ import annotations

import random

import pytest

from repro.server import ws

LENGTHS = [0, 1, 3, 4, 5, 125, 126, 127, 65_535, 65_536, 100_000]


def reference_mask(payload: bytes, key: bytes) -> bytes:
    return bytes(b ^ key[i % 4] for i, b in enumerate(payload))


def payload_of(length: int, rng: random.Random) -> bytes:
    return bytes(rng.getrandbits(8) for __ in range(length))


@pytest.mark.parametrize("length", LENGTHS)
def test_mask_matches_the_per_byte_definition(length):
    rng = random.Random(length)
    for __ in range(3):
        payload = payload_of(length, rng)
        key = payload_of(4, rng)
        masked = ws._mask(payload, key)
        assert masked == reference_mask(payload, key)
        assert ws._mask(masked, key) == payload


def test_mask_keeps_leading_zero_bytes():
    # Big-integer XOR must not drop high-order zero bytes.
    key = b"\x00\x00\x00\x00"
    assert ws._mask(b"\x00\x00\x01", key) == b"\x00\x00\x01"
    assert ws._mask(b"\x12\x00", b"\x12\x00\x00\x00") == b"\x00\x00"


@pytest.mark.parametrize("length,form", [
    (0, 0), (125, 0), (126, 126), (65_535, 126), (65_536, 127),
    (100_000, 127),
])
@pytest.mark.parametrize("masked", [True, False], ids=["client", "server"])
def test_every_length_form_round_trips(length, form, masked):
    rng = random.Random(length * 2 + masked)
    payload = payload_of(length, rng)
    frame = ws.encode_frame(payload, ws.OP_BINARY, mask=masked)
    assert frame[1] & 0x7F == (length if form == 0 else form)
    assert bool(frame[1] & 0x80) == masked
    if masked and length:
        assert payload not in frame  # the wire carries the masked bytes
    parser = ws.FrameParser(require_mask=masked)
    assert parser.feed(frame) == [(ws.OP_BINARY, payload)]
    # Fed a few bytes at a time, the parser waits for the whole frame.
    parser = ws.FrameParser(require_mask=masked)
    messages = []
    step = max(1, len(frame) // 7)
    for start in range(0, len(frame), step):
        messages += parser.feed(frame[start:start + step])
    assert messages == [(ws.OP_BINARY, payload)]


def test_masked_fragments_reassemble():
    rng = random.Random(5)
    first, second = payload_of(300, rng), payload_of(70_000, rng)
    parser = ws.FrameParser(require_mask=True)
    data = (ws.encode_frame(first, ws.OP_TEXT, mask=True, fin=False)
            + ws.encode_frame(b"ping", ws.OP_PING, mask=True)
            + ws.encode_frame(second, ws.OP_CONT, mask=True))
    assert parser.feed(data) == [(ws.OP_PING, b"ping"),
                                 (ws.OP_TEXT, first + second)]
