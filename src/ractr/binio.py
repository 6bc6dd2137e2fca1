"""Little-endian binary read/write primitives for the on-disk formats, the
atomic file writer every artifact goes through, and the container framing the
.rati and .ratm formats share: a 4-byte magic, a u16 version, the format's
body and nothing after it."""

from __future__ import annotations

import io
import os
import struct
from contextlib import contextmanager

import numpy as np

from .errors import DataError


@contextmanager
def atomic_open(path: str, mode: str = "wb", **kwargs):
    """Open a temp file in path's directory for writing; a clean exit moves it
    onto path with one os.replace and an error removes it, so path keeps its
    old content or gets the whole new one, never a partial write."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextmanager
def writing(path: str, magic: bytes, version: int):
    """atomic_open(path) with the container header written; the body follows."""
    with atomic_open(path) as f:
        f.write(magic)
        write_u16(f, version)
        yield f


@contextmanager
def reading(path: str, magic: bytes, version: int, kind: str, hint: str = ""):
    """The container at path, positioned after its header: a DataError unless
    it opens and its magic and version match; a clean exit checks that the
    body was read to the end. hint follows the unsupported-version message. A
    stream that cannot seek (a pipe) is read whole into memory first, so
    read_exact's bound holds for it too."""
    try:
        fh = open(path, "rb")
    except OSError as e:
        raise DataError(f"cannot open {path}: {e}") from None
    with fh:
        f = fh if fh.seekable() else io.BytesIO(fh.read())
        got = read_exact(f, 4)
        if got != magic:
            raise DataError(f"{path}: bad magic {got!r}, expected {magic!r}")
        got = read_u16(f)
        if got != version:
            raise DataError(f"{path}: unsupported {kind} version {got}{hint}")
        yield f
        if f.read(1):
            raise DataError(f"{path}: trailing bytes after {kind} payload")


def read_exact(f, n: int) -> bytes:
    """n bytes from a seekable file; a count past its end is a DataError before
    anything is read, so a corrupt count never allocates more than the file."""
    pos = f.tell()
    left = f.seek(0, os.SEEK_END) - pos
    f.seek(pos)
    if n > left:
        raise DataError(f"truncated file: wanted {n} bytes, got {left}")
    return f.read(n)


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
    """dtype is an explicit little-endian numpy dtype string, e.g. '<u4'. An
    integer value the dtype cannot hold is a DataError, never a silent wrap."""
    dt = np.dtype(dtype)
    if dt.kind in "iu" and np.size(a):
        lo, hi = int(np.min(a)), int(np.max(a))
        if lo < np.iinfo(dt).min or hi > np.iinfo(dt).max:
            raise DataError(f"values in [{lo}, {hi}] do not fit {dt.name}")
    f.write(np.ascontiguousarray(a, dtype=dt).tobytes())


def read_array(f, count: int, dtype: str) -> np.ndarray:
    dt = np.dtype(dtype)
    buf = read_exact(f, count * dt.itemsize)
    return np.frombuffer(buf, dtype=dt).copy()
