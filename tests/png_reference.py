"""A minimal PNG decoder and the dense reference encoder that the canvas
encoder is tested against.

The decoder handles what ``Canvas.png_bytes`` may emit: no interlacing,
filter type 0 on every scanline, colour type 2 (8-bit RGB) and colour type
3 (palette) at bit depths 1, 2, 4 and 8.  It uses only stdlib ``zlib`` and
numpy and checks every chunk CRC, so a test that decodes a frame also
checks the container.

:func:`reference_png_bytes` is the earlier dense encoder, kept as it was:
it keys every pixel, builds the whole index image and packs it with strided
shift-or passes.  ``Canvas.png_bytes`` must return the same bytes for every
canvas.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

SIGNATURE = b"\x89PNG\r\n\x1a\n"


def _color_key(color) -> int:
    """The 24-bit key of one colour: ``r | g << 8 | b << 16``."""
    r, g, b = color
    return r | g << 8 | b << 16


def _pixel_keys(pixels: np.ndarray) -> np.ndarray:
    """Every pixel's 24-bit colour key (see :func:`_color_key`), shape (h, w).

    One pass: an unaligned little-endian ``uint32`` view at a 3-byte stride
    reads each pixel plus the next pixel's red byte, which the mask drops.
    The last pixel has no next byte, so it is keyed on its own.
    """
    height, width, _ = pixels.shape
    flat = np.ascontiguousarray(pixels).reshape(-1)
    count = height * width
    keys = np.empty(count, dtype=np.uint32)
    keys[:-1] = np.ndarray((count - 1,), dtype="<u4", buffer=flat,
                           strides=(3,))
    keys &= 0xFFFFFF
    keys[-1] = _color_key(tuple(int(v) for v in flat[-3:]))
    return keys.reshape(height, width)


def _pack_indices(index: np.ndarray, depth: int) -> np.ndarray:
    """Pack palette indices into PNG scanline bytes, leftmost pixel in the
    high-order bits; rows are padded to whole bytes."""
    if depth == 1:
        return np.packbits(index, axis=1)
    per_byte = 8 // depth
    height, width = index.shape
    padded = np.zeros((height, -(-width // per_byte) * per_byte), np.uint8)
    padded[:, :width] = index
    packed = padded[:, 0::per_byte] << (8 - depth)
    for slot in range(1, per_byte):
        packed |= padded[:, slot::per_byte] << (8 - depth * (slot + 1))
    return packed


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def reference_png_bytes(canvas) -> bytes:
    """The PNG encoding of ``canvas`` by the dense reference encoder:
    indexed colour when the frame has at most 256 colours (palette = the
    background, then the other colours in ascending key order, at the
    smallest depth that holds it, deflated with ``Z_RLE``), else 8-bit RGB
    deflated with the default strategy."""
    keys = _pixel_keys(canvas.pixels)
    background = _color_key(canvas.background)
    painted = keys != background
    colors, inverse = np.unique(keys[painted], return_inverse=True)
    if len(colors) < 256:
        palette = np.concatenate(([background], colors)).astype(np.uint32)
        depth = next(d for d in (1, 2, 4, 8) if len(palette) <= 1 << d)
        index = np.zeros(keys.shape, dtype=np.uint8)
        index[painted] = inverse + 1
        scanlines = _pack_indices(index, depth)
        rgb = np.stack(
            [palette & 0xFF, palette >> 8 & 0xFF, palette >> 16], axis=1)
        color_type = 3
        plte = _png_chunk(b"PLTE", rgb.astype(np.uint8).tobytes())
        deflate = zlib.compressobj(6, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
    else:
        # PNG palettes hold at most 256 entries: fall back to RGB.
        scanlines = canvas.pixels.reshape(canvas.height, canvas.width * 3)
        color_type, depth, plte = 2, 8, b""
        deflate = zlib.compressobj(6)
    header = struct.pack(">IIBBBBB", canvas.width, canvas.height, depth,
                         color_type, 0, 0, 0)
    # Each scanline gets filter byte 0 (None).
    raw = np.zeros((canvas.height, 1 + scanlines.shape[1]), dtype=np.uint8)
    raw[:, 1:] = scanlines
    return (
        SIGNATURE
        + _png_chunk(b"IHDR", header)
        + plte
        + _png_chunk(b"IDAT", deflate.compress(raw) + deflate.flush())
        + _png_chunk(b"IEND", b"")
    )


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
