"""NPY v1.0 container contract: round trips, interop, strict rejection."""

import struct

import numpy as np
import pytest

from lmhbrtf.npyio import read_tensor, write_tensor


def rng():
    return np.random.default_rng(31)


@pytest.mark.parametrize("shape,complex_", [((4, 3, 2), False), ((2, 3, 2, 2), False),
                                            ((3, 3, 2), True)])
def test_write_read_roundtrip_bitwise(tmp_path, shape, complex_):
    r = rng()
    x = r.standard_normal(shape)
    if complex_:
        x = x + 1j * r.standard_normal(shape)
    path = tmp_path / "t.npy"
    write_tensor(path, x)
    back = read_tensor(path)
    assert back.dtype == x.dtype
    assert back.shape == x.shape
    assert back.tobytes() == x.astype(back.dtype).tobytes()


def test_written_file_loads_with_numpy(tmp_path):
    x = rng().standard_normal((3, 4, 2))
    path = tmp_path / "t.npy"
    write_tensor(path, x)
    assert np.array_equal(np.load(path), x)


def test_reads_numpy_written_fortran_file(tmp_path):
    x = np.asfortranarray(rng().standard_normal((3, 4, 2)))
    path = tmp_path / "t.npy"
    np.save(path, x)
    assert np.array_equal(read_tensor(path), x)


def test_header_alignment_and_version(tmp_path):
    path = tmp_path / "t.npy"
    write_tensor(path, rng().standard_normal((5, 7, 3)))
    raw = path.read_bytes()
    assert raw[:6] == b"\x93NUMPY"
    assert raw[6:8] == bytes((1, 0))
    (hlen,) = struct.unpack("<H", raw[8:10])
    assert (10 + hlen) % 64 == 0
    header = raw[10:10 + hlen].decode("latin1")
    assert "'descr': '<f8'" in header
    assert "'fortran_order': True" in header
    assert header.endswith("\n")


def test_rejects_c_order_file(tmp_path):
    path = tmp_path / "c.npy"
    np.save(path, np.ascontiguousarray(rng().standard_normal((3, 4, 2))))
    with pytest.raises(ValueError, match="C-order"):
        read_tensor(path)


def test_rejects_unsupported_dtype(tmp_path):
    path = tmp_path / "f4.npy"
    np.save(path, np.asfortranarray(rng().standard_normal((3, 3, 2)).astype(np.float32)))
    with pytest.raises(ValueError, match="dtype"):
        read_tensor(path)


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.npy"
    path.write_bytes(b"NOTNPY" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        read_tensor(path)


def test_rejects_wrong_version(tmp_path):
    path = tmp_path / "v2.npy"
    good = tmp_path / "good.npy"
    write_tensor(good, np.zeros((2, 2, 2)))
    raw = bytearray(good.read_bytes())
    raw[6] = 2  # pretend to be format version 2.0
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        read_tensor(path)


def test_rejects_truncated_data(tmp_path):
    good = tmp_path / "good.npy"
    write_tensor(good, np.ones((2, 2, 2)))
    raw = good.read_bytes()
    bad = tmp_path / "short.npy"
    bad.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="data size"):
        read_tensor(bad)


def test_descr_parsing_maps_to_float64(tmp_path):
    path = tmp_path / "t.npy"
    write_tensor(path, np.ones((2, 2, 2)))
    arr = read_tensor(path)
    assert arr.dtype == np.float64


def test_matrix_and_vector_roundtrip(tmp_path):
    # transform matrices are plain 2-d arrays in the same container
    m = rng().standard_normal((4, 4)) + 1j * rng().standard_normal((4, 4))
    path = tmp_path / "m.npy"
    write_tensor(path, m)
    assert np.array_equal(read_tensor(path), m)


def _npy_bytes(header, data):
    """A v1.0 file: *header* text padded to a 64-byte data boundary, then *data*."""
    pad = -(10 + len(header) + 1) % 64
    text = (header + " " * pad + "\n").encode("latin1")
    return b"\x93NUMPY\x01\x00" + struct.pack("<H", len(text)) + text + data


@pytest.mark.parametrize("shape,message", [
    ("5", "shape is not valid"),               # not a tuple
    ("(2.5, 3)", "shape is not valid"),        # a float entry
    ("(-2, 3)", "nonnegative"),
    ("(True, 6)", "nonnegative"),              # a bool is no size
])
def test_rejects_shape_that_is_not_nonnegative_integers(tmp_path, shape, message):
    path = tmp_path / "bad.npy"
    header = f"{{'descr': '<f8', 'fortran_order': True, 'shape': {shape}, }}"
    path.write_bytes(_npy_bytes(header, bytes(48)))
    with pytest.raises(ValueError, match=message) as exc:
        read_tensor(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("header", [
    "{'descr': '<f8', 'fortran_order': 1, 'shape': (2, 3), }",
    "{'descr': '<f8', 'fortran_order': True, 'shape': (2, 3), 'extra': 0, }",
    "{'descr': '<f8', 'fortran_order': True, 'shape': (2, 3), ",   # unclosed
    "{[1]: 2}",                                                    # unhashable key
    "[1, 2]",
])
def test_rejects_malformed_header_naming_the_file(tmp_path, header):
    path = tmp_path / "bad.npy"
    path.write_bytes(_npy_bytes(header, bytes(48)))
    with pytest.raises(ValueError, match="not a valid NPY") as exc:
        read_tensor(path)
    assert str(path) in str(exc.value)


def test_rejects_bytes_after_the_data(tmp_path):
    good = tmp_path / "good.npy"
    write_tensor(good, np.ones((2, 2, 2)))
    bad = tmp_path / "long.npy"
    bad.write_bytes(good.read_bytes() + bytes(8))
    with pytest.raises(ValueError, match="data size") as exc:
        read_tensor(bad)
    assert str(bad) in str(exc.value)


@pytest.mark.parametrize("complex_", [False, True])
def test_reads_numpy_save_of_fortran_array_bitwise(tmp_path, complex_):
    r = rng()
    x = r.standard_normal((3, 4, 2)) + (1j * r.standard_normal((3, 4, 2)) if complex_ else 0)
    path = tmp_path / "t.npy"
    np.save(path, np.asfortranarray(x))
    back = read_tensor(path)
    assert back.dtype == x.dtype
    assert back.tobytes(order="F") == x.tobytes(order="F")


def test_reads_file_with_the_compact_64_byte_aligned_header_bitwise(tmp_path):
    # files written by earlier versions of this package carry this header
    x = rng().standard_normal((3, 4, 2))
    path = tmp_path / "old.npy"
    header = "{'descr': '<f8', 'fortran_order': True, 'shape': (3,4,2,), }"
    path.write_bytes(_npy_bytes(header, x.tobytes(order="F")))
    assert len(path.read_bytes()) == 128 + x.nbytes
    assert read_tensor(path).tobytes(order="F") == x.tobytes(order="F")


@pytest.mark.parametrize("shape", [(3, 4, 2), (5,), (4, 1, 1), (2, 0, 3)])
def test_read_returns_column_major_array(tmp_path, shape):
    x = rng().standard_normal(shape)
    path = tmp_path / "t.npy"
    write_tensor(path, x)
    # 1-d and (n, 1, 1) arrays are both C- and F-contiguous; the header
    # must still say Fortran order, or the reader rejects the file
    assert b"'fortran_order': True" in path.read_bytes()
    back = read_tensor(path)
    assert back.flags.f_contiguous
    assert np.array_equal(back, x)
