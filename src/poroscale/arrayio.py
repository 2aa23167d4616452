"""Binary array file format shared by all pipeline stages.

Layout (all integers little-endian):

    bytes 0..3    magic "NHAR"
    bytes 4..7    u32 format version (1)
    byte  8       u8 dtype code (0 = float64)
    byte  9       u8 number of dimensions
    then          u64 extent per dimension
    then          payload, row-major (C order), little-endian

A 3x4 float64 array therefore carries 4+4+1+1+16 = 26 header bytes before
the payload. Reads validate magic, version, dtype, and payload length and
raise :class:`FormatError` on any mismatch, including truncated files.

Datasets and models are directories of such files, one ``<name>.nhar``
member per array (:func:`write_members`, :func:`read_member`).

Every run file reaches disk through :func:`write_array` or
:func:`write_text` (UTF-8, ``\\n`` line ends), and both create the file's
parent directory, so no caller makes one first.
"""

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"NHAR"
VERSION = 1
DTYPE_F64 = 0


def write_array(path, array):
    """Write a float64 array; other dtypes are converted."""
    array = np.asarray(array, dtype="<f8", order="C")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<BB", DTYPE_F64, array.ndim))
        fh.write(struct.pack(f"<{array.ndim}Q", *array.shape))
        # from the array's own buffer, without a bytes copy of the payload
        fh.write(array)


def write_text(path, text):
    """Write ``text`` as UTF-8 with ``\\n`` line ends."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _read_exact(fh, n, path):
    data = fh.read(n)
    if len(data) != n:
        raise FormatError(f"{path}: truncated file")
    return data


def read_array(path):
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, path) != MAGIC:
            raise FormatError(f"{path}: bad magic, not an array file")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, path))
        if version != VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        dtype_code, ndim = struct.unpack("<BB", _read_exact(fh, 2, path))
        if dtype_code != DTYPE_F64:
            raise FormatError(f"{path}: unknown dtype code {dtype_code}")
        shape = struct.unpack(f"<{ndim}Q", _read_exact(fh, 8 * ndim, path))
        # a corrupt extent must not size an allocation the file cannot fill
        if 8 * math.prod(shape) > os.fstat(fh.fileno()).st_size - fh.tell():
            raise FormatError(f"{path}: truncated file")
        array = np.empty(shape, dtype="<f8")
        if fh.readinto(array) != array.nbytes:
            raise FormatError(f"{path}: truncated file")
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after payload")
    return array


def write_members(directory, members):
    """Write each ``name: array`` of ``members`` to ``directory/<name>.nhar``."""
    for name, values in members.items():
        write_array(Path(directory) / f"{name}.nhar", values)


def read_member(directory, name):
    """Read ``directory/<name>.nhar``; a missing member is a FormatError."""
    member = Path(directory) / f"{name}.nhar"
    if not member.exists():
        raise FormatError(f"{directory}: member {member.name} is missing")
    return read_array(member)
