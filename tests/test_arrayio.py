"""On-disk array format: round trips, golden bytes, corruption handling."""

import struct
import tracemalloc

import numpy as np
import pytest

from poroscale.arrayio import (
    MAGIC,
    VERSION,
    read_array,
    read_member,
    write_array,
    write_members,
    write_text,
)
from poroscale.errors import FormatError


@pytest.mark.parametrize(
    "shape", [(), (1,), (7,), (3, 4), (2, 3, 4), (2, 1, 3, 2)]
)
def test_round_trip_preserves_bits(tmp_path, shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    array = rng.normal(size=shape)
    path = tmp_path / "a.nhar"
    write_array(path, array)
    back = read_array(path)
    assert back.shape == array.shape
    assert back.dtype == np.float64
    assert back.tobytes() == array.tobytes()


def test_special_values_survive(tmp_path):
    array = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-308, 1e308])
    path = tmp_path / "s.nhar"
    write_array(path, array)
    back = read_array(path)
    assert back.tobytes() == array.tobytes()


def test_header_size_matches_documented_layout(tmp_path):
    path = tmp_path / "h.nhar"
    write_array(path, np.zeros((3, 4)))
    # 4 magic + 4 version + 1 dtype + 1 ndim + 2*8 extents = 26
    assert path.stat().st_size == 26 + 12 * 8


def test_golden_bytes(tmp_path):
    path = tmp_path / "g.nhar"
    array = np.array([[1.5, -2.0], [0.25, 8.0]])
    write_array(path, array)
    expected = MAGIC
    expected += struct.pack("<I", VERSION)
    expected += struct.pack("<BB", 0, 2)
    expected += struct.pack("<2Q", 2, 2)
    expected += array.tobytes()
    assert path.read_bytes() == expected


def test_zero_dimensional_array(tmp_path):
    path = tmp_path / "z.nhar"
    write_array(path, np.float64(4.25))
    back = read_array(path)
    assert back.shape == ()
    assert float(back) == 4.25


def test_non_contiguous_and_integer_inputs(tmp_path):
    base = np.arange(24, dtype=np.int32).reshape(4, 6)
    view = base[::2, ::3]
    path = tmp_path / "v.nhar"
    write_array(path, view)
    back = read_array(path)
    np.testing.assert_array_equal(back, view.astype(float))


def test_result_is_writable(tmp_path):
    path = tmp_path / "w.nhar"
    write_array(path, np.ones(3))
    back = read_array(path)
    back[0] = 7.0
    assert back[0] == 7.0


def corrupt(tmp_path, name, mutate):
    path = tmp_path / name
    write_array(path, np.arange(6.0).reshape(2, 3))
    raw = bytearray(path.read_bytes())
    path.write_bytes(bytes(mutate(raw)))
    return path


def test_bad_magic(tmp_path):
    path = corrupt(tmp_path, "m.nhar", lambda raw: b"ZZAR" + raw[4:])
    with pytest.raises(FormatError, match="magic"):
        read_array(path)


def test_bad_version(tmp_path):
    path = corrupt(
        tmp_path, "v.nhar", lambda raw: raw[:4] + struct.pack("<I", 3) + raw[8:]
    )
    with pytest.raises(FormatError, match="version"):
        read_array(path)


def test_bad_dtype_code(tmp_path):
    def mutate(raw):
        raw[8] = 5
        return raw

    path = corrupt(tmp_path, "d.nhar", mutate)
    with pytest.raises(FormatError, match="dtype"):
        read_array(path)


@pytest.mark.parametrize("cut", [1, 8, 48, 49])
def test_truncation(tmp_path, cut):
    path = corrupt(tmp_path, "t.nhar", lambda raw: raw[:-cut])
    with pytest.raises(FormatError, match="truncated"):
        read_array(path)


@pytest.mark.parametrize("shape", [(2**61,), (2**20, 2**20)])
def test_extent_beyond_the_file_is_truncation(tmp_path, shape):
    # header of an array far larger than memory, then 16 payload bytes
    path = tmp_path / "huge.nhar"
    header = MAGIC + struct.pack("<I", VERSION) + struct.pack("<BB", 0, len(shape))
    path.write_bytes(header + struct.pack(f"<{len(shape)}Q", *shape) + bytes(16))
    with pytest.raises(FormatError, match="truncated"):
        read_array(path)


def test_trailing_bytes(tmp_path):
    path = corrupt(tmp_path, "x.nhar", lambda raw: raw + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        read_array(path)


def test_empty_file(tmp_path):
    path = tmp_path / "e.nhar"
    path.write_bytes(b"")
    with pytest.raises(FormatError, match="truncated"):
        read_array(path)


def test_writers_create_missing_directories(tmp_path):
    write_array(tmp_path / "a" / "b" / "x.nhar", np.ones(2))
    write_members(tmp_path / "c" / "d", {"y": np.zeros(3)})
    write_text(tmp_path / "e" / "f" / "z.txt", "z\n")
    assert read_array(tmp_path / "a" / "b" / "x.nhar").tolist() == [1.0, 1.0]
    assert read_member(tmp_path / "c" / "d", "y").tolist() == [0.0] * 3
    assert (tmp_path / "e" / "f" / "z.txt").read_bytes() == b"z\n"


def test_write_text_is_utf8_with_lf_line_ends(tmp_path):
    path = tmp_path / "t.csv"
    write_text(path, "a,b\nµ,1.5\n")
    assert path.read_bytes() == "a,b\nµ,1.5\n".encode("utf-8")


def test_payload_is_not_copied(tmp_path):
    array = np.arange(2**20, dtype=float)  # 8 MiB
    path = tmp_path / "big.nhar"
    tracemalloc.start()
    try:
        write_array(path, array)
        _, write_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        back = read_array(path)
        _, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert write_peak < 2**20
    assert read_peak < 1.25 * array.nbytes
    assert back.tobytes() == array.tobytes()
