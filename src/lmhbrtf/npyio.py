"""Strict NPY v1.0 tensor files: float64/complex128, Fortran order only.

numpy's own format code (:mod:`numpy.lib.format`) writes and parses the
header: numpy's header text, with its spare growth space, padded so the
column-major data starts on a 64-byte boundary.  ``numpy.load`` reads
the files, and this module reads what ``numpy.save`` writes for a
Fortran-ordered float64 or complex128 array.  The contract is checked
here, and a file outside it fails with a ``ValueError`` that names the
path: format version (1, 0), ``descr`` of ``<f8`` or ``<c16``,
``fortran_order: True``, a shape of nonnegative integers and exactly
the header's data size after the header.
"""

from __future__ import annotations

import math
import os
import tokenize

import numpy as np
from numpy.lib import format as npy_format

__all__ = ["write_tensor", "read_tensor"]


def write_tensor(path, x: np.ndarray) -> None:
    """Write *x* as a v1.0 NPY file in column-major order."""
    x = np.asarray(x)
    x = np.asarray(x, dtype=np.complex128 if np.iscomplexobj(x) else np.float64)
    header = {"descr": x.dtype.str, "fortran_order": True, "shape": x.shape}
    with open(path, "wb") as fh:
        # not npy_format.write_array: it writes fortran_order False for arrays
        # that are both C- and F-contiguous, such as 1-d or (n, 1, 1) ones
        npy_format.write_array_header_1_0(fh, header)
        # the C-ordered transpose of a column-major array is its memory as
        # it lies, so a column-major input is written without a copy
        fh.write(memoryview(np.asfortranarray(x).T))


def read_tensor(path) -> np.ndarray:
    """Read a v1.0 NPY file written under this package's contract.

    Returns a column-major array.  Rejects other format versions, dtypes
    other than <f8/<c16, C-order files, malformed headers and a data size
    other than the header's, each with a message that names *path*.
    """
    with open(path, "rb") as fh:
        try:
            version = npy_format.read_magic(fh)
            if version != (1, 0):
                raise ValueError(f"unsupported NPY version {version}, need (1, 0)")
            shape, fortran_order, dtype = npy_format.read_array_header_1_0(fh)
        # numpy's parser lets a TypeError (an unhashable key) and a
        # TokenError (an unclosed bracket) through beside its ValueError
        except (ValueError, TypeError, tokenize.TokenError) as exc:
            raise ValueError(f"{path}: not a valid NPY v1.0 file: {exc}") from exc
        if dtype.str not in ("<f8", "<c16"):
            raise ValueError(
                f"{path}: unsupported dtype {dtype.str!r}; this tool reads only "
                "'<f8' (real64) and '<c16' (complex128)"
            )
        if not fortran_order:
            raise ValueError(
                f"{path}: C-order NPY files are not supported; rewrite the "
                "array in Fortran (column-major) order"
            )
        if any(isinstance(n, bool) or n < 0 for n in shape):
            raise ValueError(f"{path}: NPY shape {shape} must hold nonnegative integers")
        count = math.prod(shape)
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != count * dtype.itemsize:
            raise ValueError(
                f"{path}: data size {size} does not match header shape {shape}"
            )
        flat = np.fromfile(fh, dtype=dtype, count=count)
    return flat.reshape(shape, order="F")
