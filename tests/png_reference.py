"""A minimal PNG decoder, the reference the canvas encoder is tested against.

Handles what ``Canvas.png_bytes`` may emit: no interlacing, filter type 0
on every scanline, colour type 2 (8-bit RGB) and colour type 3 (palette)
at bit depths 1, 2, 4 and 8.  It uses only stdlib ``zlib`` and numpy and
checks every chunk CRC, so a test that decodes a frame also checks the
container.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

SIGNATURE = b"\x89PNG\r\n\x1a\n"


def chunks(data: bytes) -> list[tuple[bytes, bytes]]:
    """The (tag, payload) chunks of a PNG file, CRCs checked."""
    if not data.startswith(SIGNATURE):
        raise ValueError("not a PNG: bad signature")
    out = []
    offset = len(SIGNATURE)
    while offset < len(data):
        (length,) = struct.unpack(">I", data[offset:offset + 4])
        tag = data[offset + 4:offset + 8]
        payload = data[offset + 8:offset + 8 + length]
        (crc,) = struct.unpack(">I", data[offset + 8 + length:offset + 12 + length])
        if zlib.crc32(tag + payload) & 0xFFFFFFFF != crc:
            raise ValueError(f"bad CRC on {tag!r} chunk")
        out.append((tag, payload))
        offset += 12 + length
    if not out or out[0][0] != b"IHDR" or out[-1][0] != b"IEND":
        raise ValueError("PNG must start with IHDR and end with IEND")
    return out


def header(data: bytes) -> dict[str, int]:
    """The IHDR fields of a PNG file."""
    payload = chunks(data)[0][1]
    width, height, depth, color_type, compression, filter_method, interlace = (
        struct.unpack(">IIBBBBB", payload)
    )
    return {
        "width": width,
        "height": height,
        "depth": depth,
        "color_type": color_type,
        "compression": compression,
        "filter": filter_method,
        "interlace": interlace,
    }


def decode(data: bytes) -> np.ndarray:
    """Decode a PNG file to an (height, width, 3) uint8 RGB array."""
    info = header(data)
    width, height, depth = info["width"], info["height"], info["depth"]
    if (info["compression"], info["filter"], info["interlace"]) != (0, 0, 0):
        raise ValueError("unsupported compression, filter method or interlace")
    all_chunks = chunks(data)
    raw = zlib.decompress(b"".join(p for tag, p in all_chunks if tag == b"IDAT"))
    if info["color_type"] == 2:
        if depth != 8:
            raise ValueError(f"RGB at depth {depth} is not supported")
        row_bytes = 3 * width
    elif info["color_type"] == 3:
        if depth not in (1, 2, 4, 8):
            raise ValueError(f"invalid palette depth {depth}")
        row_bytes = -(-width * depth // 8)
    else:
        raise ValueError(f"unsupported colour type {info['color_type']}")
    if len(raw) != height * (1 + row_bytes):
        raise ValueError("IDAT length does not match the header")
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, 1 + row_bytes)
    if rows[:, 0].any():
        raise ValueError("only filter type 0 (None) is supported")
    scan = rows[:, 1:]
    if info["color_type"] == 2:
        return scan.reshape(height, width, 3).copy()
    plte = [p for tag, p in all_chunks if tag == b"PLTE"]
    if len(plte) != 1 or len(plte[0]) % 3 or not 0 < len(plte[0]) <= 3 * 256:
        raise ValueError("palette image needs exactly one valid PLTE chunk")
    palette = np.frombuffer(plte[0], dtype=np.uint8).reshape(-1, 3)
    bits = np.unpackbits(scan, axis=1)[:, : width * depth]
    weights = 1 << np.arange(depth - 1, -1, -1)
    index = (bits.reshape(height, width, depth) * weights).sum(axis=2)
    if index.max(initial=0) >= len(palette):
        raise ValueError("palette index out of range")
    return palette[index]
