"""Little-endian binary read/write primitives for the on-disk formats."""

from __future__ import annotations

import struct

import numpy as np

from .errors import DataError


def read_exact(f, n: int) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise DataError(f"truncated file: wanted {n} bytes, got {len(buf)}")
    return buf


def write_u8(f, v: int) -> None:
    f.write(struct.pack("<B", v))


def write_u16(f, v: int) -> None:
    f.write(struct.pack("<H", v))


def write_u32(f, v: int) -> None:
    f.write(struct.pack("<I", v))


def write_u64(f, v: int) -> None:
    f.write(struct.pack("<Q", v))


def read_u8(f) -> int:
    return struct.unpack("<B", read_exact(f, 1))[0]


def read_u16(f) -> int:
    return struct.unpack("<H", read_exact(f, 2))[0]


def read_u32(f) -> int:
    return struct.unpack("<I", read_exact(f, 4))[0]


def read_u64(f) -> int:
    return struct.unpack("<Q", read_exact(f, 8))[0]


def write_str(f, s: str) -> None:
    b = s.encode("utf-8")
    write_u32(f, len(b))
    f.write(b)


def read_str(f) -> str:
    n = read_u32(f)
    try:
        return read_exact(f, n).decode("utf-8")
    except UnicodeDecodeError as e:
        raise DataError(f"invalid UTF-8 in string: {e}") from None


def write_array(f, a: np.ndarray, dtype: str) -> None:
    """dtype is an explicit little-endian numpy dtype string, e.g. '<u4'."""
    f.write(np.ascontiguousarray(a, dtype=np.dtype(dtype)).tobytes())


def read_array(f, count: int, dtype: str) -> np.ndarray:
    dt = np.dtype(dtype)
    buf = read_exact(f, count * dt.itemsize)
    return np.frombuffer(buf, dtype=dt).copy()
