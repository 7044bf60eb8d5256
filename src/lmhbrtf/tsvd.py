"""Order-d t-SVD algebra built on an invertible transform L.

All products and factorizations act slice-wise in the transform domain:
a tensor is transformed along modes 3..d, each mode-1/mode-2 slice is
treated as an ordinary complex matrix, and the result is mapped back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ImaginaryResidueError
from .tensor import (
    as_tensor,
    from_slice_stack,
    num_slices,
    to_slice_stack,
)
from .transform import Transform, mirror_map, real_if_close

__all__ = [
    "TSVDResult",
    "facewise_product",
    "t_product",
    "conj_transpose",
    "identity_tensor",
    "t_svd",
    "multi_rank",
    "tubal_rank",
    "truncate_multi_rank",
    "factorize_lemma1",
    "balanced_factors",
]

DEFAULT_RANK_TOL = 1e-8


@dataclass
class TSVDResult:
    """t-SVD factors in the original domain: x = u * s * conj_transpose(v).

    ``u`` is I1 x I1 (or I1 x r for the skinny form), ``s`` is f-diagonal
    with nonincreasing nonnegative diagonals per transform slice, ``v``
    is I2 x I2 (or I2 x r).  ``multirank`` holds the per-slice numerical
    ranks of the input.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    multirank: np.ndarray


def _stacks_compatible(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape[2:] != y.shape[2:]:
        raise ValueError(
            f"trailing shapes differ: {x.shape[2:]} vs {y.shape[2:]}"
        )
    if x.shape[1] != y.shape[0]:
        raise ValueError(
            f"inner dimensions differ: {x.shape[1]} vs {y.shape[0]}"
        )


def facewise_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Slice-wise matrix product Z^(k) = X^(k) Y^(k) for every slice k."""
    x = as_tensor(x)
    y = as_tensor(y)
    _stacks_compatible(x, y)
    xs = np.moveaxis(to_slice_stack(x), 2, 0)
    ys = np.moveaxis(to_slice_stack(y), 2, 0)
    zs = np.moveaxis(xs @ ys, 0, 2)
    return from_slice_stack(zs, (x.shape[0], y.shape[1]) + x.shape[2:])


def t_product(x: np.ndarray, y: np.ndarray, L: Transform) -> np.ndarray:
    """t-product x * y: facewise product in the transform domain.

    For real inputs under a real-safe transform (DFT, real matrices)
    the result is real; its imaginary residue is checked and dropped.
    """
    x = as_tensor(x)
    y = as_tensor(y)
    _stacks_compatible(x, y)
    zbar = facewise_product(L.forward(x), L.forward(y))
    want_real = (L.real_safe and not np.iscomplexobj(x)
                 and not np.iscomplexobj(y))
    return L.inverse(zbar, assert_real=want_real)


def conj_transpose(x: np.ndarray) -> np.ndarray:
    """Tensor conjugate transpose in the original domain.

    Conjugate-transpose every slice, then reverse the order of slices
    2..I_k along each trailing mode k.  Its forward transform equals the
    slice-wise conjugate transpose of the forward transform of *x*.
    """
    x = as_tensor(x)
    out = np.swapaxes(np.conj(x), 0, 1)
    for axis in range(2, out.ndim):
        out = np.roll(np.flip(out, axis=axis), 1, axis=axis)
    return np.ascontiguousarray(out)


def identity_tensor(size: int, trailing, L: Transform) -> np.ndarray:
    """Tensor acting as identity for the t-product: every transform slice is I."""
    trailing = tuple(int(n) for n in trailing)
    j = int(np.prod(trailing))
    eye = np.broadcast_to(np.eye(size, dtype=np.complex128)[:, :, None],
                          (size, size, j))
    ibar = from_slice_stack(np.array(eye), (size, size) + trailing)
    return L.inverse(ibar, assert_real=L.real_safe)


def _slice_svds(x: np.ndarray, L: Transform, half: bool = False, **svd_kw):
    """Forward-transform *x* and SVD all its slices in one stacked call.

    Returns the (I1, I2, J) slice stack (J kept slices with ``half``)
    and ``np.linalg.svd`` of its (J, I1, I2) view.
    """
    xbar = to_slice_stack(L.forward(as_tensor(x), half=half))
    return xbar, np.linalg.svd(np.moveaxis(xbar, 2, 0), **svd_kw)


def _ranks_from_svals(svals: np.ndarray, tol: float) -> np.ndarray:
    """Per-slice count of the singular values above tol * sigma_max.

    sigma_max is the largest singular value over all slices, so a slice
    that is zero up to roundoff has rank 0.
    """
    return np.count_nonzero(svals > tol * svals.max(initial=0.0), axis=1).astype(np.int64)


def balanced_factors(u: np.ndarray, s: np.ndarray, vh: np.ndarray, width: int):
    """Split the leading *width* singular triplets of each slice evenly.

    From stacked SVD factors (J, I1, m), (J, m) and (J, m, I2) returns
    the (J, I1, width) and (J, I2, width) stacks U0 sqrt(S0) and
    V0 sqrt(S0), whose slice products U V^H are the best rank-*width*
    approximations.
    """
    root = np.sqrt(s[:, None, :width])
    return u[:, :, :width] * root, vh[:, :width].conj().transpose(0, 2, 1) * root


def t_svd(x: np.ndarray, L: Transform, tol: float = DEFAULT_RANK_TOL,
          rank: int = None) -> TSVDResult:
    """t-SVD with square orthogonal factors per transform slice.

    With *rank* the skinny form of that uniform width is returned
    instead: I1 x rank and I2 x rank factors with orthonormal columns
    and a rank x rank f-diagonal middle whose slices zero-pad singular
    values beyond the slice rank.
    """
    x = as_tensor(x)
    i1, i2 = x.shape[:2]
    m = min(i1, i2)
    trailing = x.shape[2:]
    j = num_slices(x.shape)
    if rank is not None and not 1 <= rank <= m:
        raise ValueError(f"skinny width {rank} out of range [1, {m}]")
    if rank is None:
        wu, wv, ws1, ws2 = i1, i2, i1, i2
    else:
        wu = wv = ws1 = ws2 = rank
    _, (u, svals, vh) = _slice_svds(x, L, full_matrices=rank is None)
    diag = np.arange(m if rank is None else rank)
    sbar = np.zeros((ws1, ws2, j), dtype=np.complex128)
    sbar[diag, diag] = svals[:, :diag.size].T
    ubar = np.moveaxis(u[:, :, :wu], 0, 2)
    vbar = np.transpose(vh[:, :wv].conj(), (2, 1, 0))
    u = real_if_close(L.inverse(from_slice_stack(ubar, (i1, wu) + trailing)))
    s = real_if_close(L.inverse(from_slice_stack(sbar, (ws1, ws2) + trailing)))
    v = real_if_close(L.inverse(from_slice_stack(vbar, (i2, wv) + trailing)))
    return TSVDResult(u=u, s=s, v=v, multirank=_ranks_from_svals(svals, tol))


def multi_rank(x: np.ndarray, L: Transform, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Per-slice numerical ranks in the transform domain.

    A singular value counts toward the rank when it exceeds ``tol``
    times the largest singular value of the whole tensor (over all
    slices), so a slice that is zero up to roundoff has rank 0.
    """
    if tol < 0:
        raise ValueError("rank tolerance must be nonnegative")
    _, svals = _slice_svds(x, L, compute_uv=False)
    return _ranks_from_svals(svals, tol)


def tubal_rank(x: np.ndarray, L: Transform, tol: float = DEFAULT_RANK_TOL) -> int:
    """Largest entry of the multi-rank."""
    return int(multi_rank(x, L, tol).max())


def truncate_multi_rank(x: np.ndarray, L: Transform, target) -> np.ndarray:
    """Best per-slice rank-r_k approximation, reassembled in the original domain.

    For a real input under a real-safe transform, *target* must respect
    the transform's slice symmetry (for the DFT: equal ranks on
    conjugate-mirrored slices); otherwise the result cannot be real and
    an :class:`ImaginaryResidueError` is raised.  A real input under the
    DFT is truncated on the kept half of its slices only.
    """
    x = as_tensor(x)
    target = np.asarray(target, dtype=np.int64)
    j = num_slices(x.shape)
    m = min(x.shape[0], x.shape[1])
    if target.shape != (j,):
        raise ValueError(f"target multi-rank must have length {j}, got {target.shape}")
    if (target < 0).any() or (target > m).any():
        raise ValueError(f"target multi-rank entries must lie in [0, {m}]")
    want_real = L.real_safe and not np.iscomplexobj(x)
    half = want_real and L.kind == "dft"
    # the half spectrum holds one slice of each mirror pair, so it cannot
    # show an asymmetric target: check it here
    if half and not np.array_equal(target[mirror_map(L.trailing)], target):
        raise ImaginaryResidueError(
            "target multi-rank differs on conjugate-mirrored slices, so the "
            "truncation of a real tensor would not be real")
    xbar, (u, s, vh) = _slice_svds(x, L, half=half, full_matrices=False)
    k = xbar.shape[2]
    r = int(target[:k].max(initial=0))
    s = np.where(np.arange(r) < target[:k, None], s[:, :r], 0.0)
    out = np.empty_like(xbar)
    np.matmul(u[:, :, :r] * s[:, None, :], vh[:, :r], out=np.moveaxis(out, 2, 0))
    shape = x.shape[:2] + (L.half_trailing if half else L.trailing)
    return L.inverse(from_slice_stack(out, shape), assert_real=want_real, half=half)


def factorize_lemma1(x: np.ndarray, L: Transform, r: int,
                     tol: float = DEFAULT_RANK_TOL):
    """Split x into factors (u, v) of width r with x = u * conj_transpose(v).

    Per transform slice the skinny SVD is balanced into the two factors:
    u^(k) = U0 sqrt(S0), v^(k) = V0 sqrt(S0).  Requires r at least the
    tubal rank of x, else the product could not reproduce x.
    """
    x = as_tensor(x)
    i1, i2 = x.shape[:2]
    trailing = x.shape[2:]
    if not 0 <= r <= min(i1, i2):
        raise ValueError(f"factor width {r} out of range [0, {min(i1, i2)}]")
    _, (us, svals, vhs) = _slice_svds(x, L, full_matrices=False)
    ranks = _ranks_from_svals(svals, tol)
    if ranks.max(initial=0) > r:
        raise ValueError(
            f"factor width {r} is below the tubal rank {int(ranks.max())}"
        )
    ubar, vbar = (np.moveaxis(f, 0, 2) for f in balanced_factors(us, svals, vhs, r))
    u = real_if_close(L.inverse(from_slice_stack(ubar, (i1, r) + trailing)))
    v = real_if_close(L.inverse(from_slice_stack(vbar, (i2, r) + trailing)))
    return u, v
