"""Versioned binary checkpoints.

Layout: magic b"KPFF", format version u32, record count u32, then per
parameter: name length u32, name bytes (utf-8), rank u32, extents (u32
each), little-endian float64 payload in row-major order.
"""

import math
import struct

import numpy as np

MAGIC = b"KPFF"
VERSION = 1


def save_checkpoint(path, params):
    """params: dict name -> ndarray."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(params)))
        for name, arr in params.items():
            arr = np.ascontiguousarray(arr, dtype=np.float64)
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.astype("<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint; ValueError names the path and the byte offset of a
    bad magic, version, truncation or trailing bytes."""
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:4] != MAGIC:
        raise ValueError(f"{path}: bad magic {buf[:4]!r}")
    pos = 4

    def take(size, what):
        nonlocal pos
        if pos + size > len(buf):
            raise ValueError(f"{path}: truncated at byte {pos}: {what} needs {size} bytes, "
                             f"{len(buf) - pos} left")
        pos += size
        return buf[pos - size:pos]

    def u32s(count, what):
        return struct.unpack(f"<{count}I", take(4 * count, what))

    version, count = u32s(2, "header")
    if version != VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    params = {}
    for _ in range(count):
        (nlen,) = u32s(1, "name length")
        at = pos
        try:
            name = take(nlen, "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: name at byte {at} is not utf-8: {exc}") from None
        (rank,) = u32s(1, f"rank of {name!r}")
        shape = u32s(rank, f"shape of {name!r}")
        payload = take(8 * math.prod(shape), f"values of {name!r}")
        params[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    if pos != len(buf):
        raise ValueError(f"{path}: {len(buf) - pos} trailing bytes after byte {pos}")
    return params
