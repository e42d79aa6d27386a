"""Small helpers shared by the weight-file and checkpoint formats.

Both formats are flat little-endian streams: a 4-byte magic, a u16
version, a fixed config block, then raw float32 tensors in a documented
order. Malformed headers raise :class:`FormatError`; truncation raises
:class:`EOFError`.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from typing import BinaryIO

import numpy as np


class FormatError(Exception):
    """Magic, version, or shape disagreement in a binary file."""


@contextmanager
def open_binary(path_or_file, mode: str):
    """Accept a filesystem path or an already-open binary file object."""
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        yield path_or_file
    else:
        with open(path_or_file, mode) as fh:
            yield fh


def read_exact(fh: BinaryIO, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise EOFError(f"truncated file: wanted {n} bytes, got {len(data)}")
    return data


def expect_magic(fh: BinaryIO, magic: bytes, version: int) -> None:
    got = read_exact(fh, 4)
    if got != magic:
        raise FormatError(f"bad magic {got!r}, expected {magic!r}")
    (ver,) = struct.unpack("<H", read_exact(fh, 2))
    if ver != version:
        raise FormatError(f"unsupported version {ver}, expected {version}")


def write_magic(fh: BinaryIO, magic: bytes, version: int) -> None:
    fh.write(magic)
    fh.write(struct.pack("<H", version))


def write_f32(fh: BinaryIO, arr: np.ndarray) -> None:
    fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_f32(fh: BinaryIO, shape: tuple[int, ...]) -> np.ndarray:
    """The next tensor of `shape`: a read-only view of the bytes read."""
    return np.frombuffer(read_exact(fh, 4 * int(np.prod(shape))), dtype="<f4").reshape(shape)
