"""Dense order-d tensor basics: layout, slice indexing and slice stacks.

A tensor here is a plain :class:`numpy.ndarray` of ``float64`` or
``complex128`` with ``ndim >= 3`` and finite entries: the one rule that
:func:`as_tensor` checks at every public entry taking a data tensor.
The canonical flat layout is column-major (Fortran order, first index
fastest); every reshape in this package uses ``order='F'`` so that
linear indices and the slice enumeration below agree with that single
convention.

Mode-1/mode-2 slices ``X[:, :, i3, ..., id]`` are enumerated by the linear
index ``j = i3 + I3*(i4 + I4*(...))`` (0-based; the first trailing index
varies fastest).  A slice stack is the (J, I1, I2) array whose entry j is
slice j, so every per-slice kernel is one batched matrix operation on it;
for a column-major tensor it is a view of the same memory.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "as_tensor",
    "num_slices",
    "frobenius_norm",
    "linear_to_slice",
    "to_slice_stack",
    "from_slice_stack",
    "hermitian_t",
    "bdiag",
]

MIN_ORDER = 3


def as_tensor(x, name: str = "tensor", real: bool = False) -> np.ndarray:
    """*x* as a float64/complex128 tensor the library can compute on, or a
    ValueError naming *name*.

    Inputs of order below :data:`MIN_ORDER` are rejected rather than
    padded; callers that want padding (e.g. the CLI) must do it explicitly.
    With *real* a complex input is rejected.  A non-finite entry is
    rejected with its first index in column-major order.
    """
    arr = np.asarray(x)
    if arr.ndim < MIN_ORDER:
        raise ValueError(f"{name} must have order >= {MIN_ORDER}, got order {arr.ndim}")
    if real and np.iscomplexobj(arr):
        raise ValueError(f"{name} must be real, got a complex tensor")
    arr = np.asarray(arr, dtype=np.complex128 if np.iscomplexobj(arr) else np.float64)
    finite = np.isfinite(arr)
    if not finite.all():
        bad = np.flatnonzero(~finite.ravel(order="F"))
        idx = tuple(int(i) for i in np.unravel_index(bad[0], arr.shape, order="F"))
        raise ValueError(f"{name} has a non-finite entry {arr[idx]} at index "
                         f"{idx} ({bad.size} non-finite entries in all)")
    return arr


def num_slices(shape) -> int:
    """Number of mode-1/mode-2 slices, J = I3 * ... * Id."""
    return int(math.prod(shape[2:]))


def frobenius_norm(x: np.ndarray) -> float:
    """sqrt of the sum of squared entry magnitudes."""
    return float(np.linalg.norm(np.ravel(x)))


def linear_to_slice(j: int, shape) -> tuple:
    """Trailing multi-index (i3, ..., id) for a linear slice index, 0-based."""
    total = num_slices(shape)
    if not 0 <= j < total:
        raise IndexError(f"linear slice index {j} out of range [0, {total})")
    return tuple(int(i) for i in np.unravel_index(j, shape[2:], order="F"))


def to_slice_stack(x: np.ndarray) -> np.ndarray:
    """The (J, I1, I2) stack of the slices in linear order; a view of column-major *x*."""
    return x.reshape(x.shape[:2] + (num_slices(x.shape),), order="F").transpose(2, 0, 1)


def from_slice_stack(stack: np.ndarray, shape) -> np.ndarray:
    """Inverse of :func:`to_slice_stack`: the tensor of *shape* from its stack."""
    return stack.transpose(1, 2, 0).reshape(tuple(shape), order="F")


def hermitian_t(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a (J, I1, I2) stack."""
    return m.conj().transpose(0, 2, 1)


def bdiag(x: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix diag(X^0, ..., X^{J-1}) of the slices.

    Intended as a small-problem oracle, not a computational kernel: the
    t-product is the block-diagonal product of the transforms' slices.
    """
    i1, i2 = x.shape[:2]
    stack = to_slice_stack(x)
    j = stack.shape[0]
    out = np.zeros((i1 * j, i2 * j), dtype=stack.dtype)
    for k in range(j):
        out[k * i1:(k + 1) * i1, k * i2:(k + 1) * i2] = stack[k]
    return out
