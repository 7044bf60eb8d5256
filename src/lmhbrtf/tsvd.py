"""Order-d t-SVD algebra built on an invertible transform L.

All products and factorizations act slice-wise in the transform domain:
a tensor is transformed along modes 3..d, each mode-1/mode-2 slice is
treated as an ordinary complex matrix, and the result is mapped back.
For real inputs under a real-safe transform, ``t_product``, ``t_qr``,
``multi_rank`` and ``truncate_multi_rank`` work on the slices that
``forward(x, half=True)`` keeps and map back with the complex-to-real
inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ImaginaryResidueError
from .tensor import (
    as_tensor,
    from_slice_stack,
    hermitian_t,
    num_slices,
    to_slice_stack,
)
from .transform import Transform, _mode_product, real_if_close, real_part

__all__ = [
    "TSVDResult",
    "facewise_product",
    "t_product",
    "t_qr",
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
    """t-SVD factors in the original domain: x = u * s * conj_transpose(v, L).

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


def _check_trailing(x: np.ndarray, L: Transform) -> None:
    if x.shape[2:] != L.trailing:
        raise ValueError(f"tensor shape {x.shape} does not match transform "
                         f"trailing shape {L.trailing}")


def _half_spectrum(L: Transform, *tensors) -> bool:
    """Whether real *tensors* under a real-safe L are handled on their kept slices."""
    return L.real_safe and not any(np.iscomplexobj(t) for t in tensors)


def facewise_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Slice-wise matrix product Z^(k) = X^(k) Y^(k) for every slice k."""
    x = as_tensor(x)
    y = as_tensor(y)
    _stacks_compatible(x, y)
    zs = to_slice_stack(x) @ to_slice_stack(y)
    return from_slice_stack(zs, (x.shape[0], y.shape[1]) + x.shape[2:])


def t_product(x: np.ndarray, y: np.ndarray, L: Transform) -> np.ndarray:
    """t-product x * y: facewise product in the transform domain.

    For real inputs under a real-safe transform (DFT, real matrices)
    the result is real: only the kept slices of ``forward(., half=True)``
    are multiplied, and the complex-to-real inverse checks and drops the
    imaginary residue.
    """
    x = as_tensor(x)
    y = as_tensor(y)
    _stacks_compatible(x, y)
    half = _half_spectrum(L, x, y)
    zbar = facewise_product(L.forward(x, half=half), L.forward(y, half=half))
    return L.inverse(zbar, half=half)


def t_qr(x: np.ndarray, L: Transform):
    """Thin t-QR x = q * r (Kilmer & Martin, LAA 435, 2011).

    For an I1 x I2 x ... tensor with m = min(I1, I2), every transform
    slice of the I1 x m factor ``q`` has orthonormal columns and every
    slice of the m x I2 factor ``r`` is upper triangular.  A real *x*
    under a real-safe transform is factored on its kept slices and gives
    real factors.
    """
    x = as_tensor(x)
    _check_trailing(x, L)
    half = _half_spectrum(L, x)
    q, r = np.linalg.qr(to_slice_stack(L.forward(x, half=half)))
    trailing = L.half_trailing if half else L.trailing
    return tuple(L.inverse(from_slice_stack(f, f.shape[1:] + trailing), half=half)
                 for f in (q, r))


def conj_transpose(x: np.ndarray, L: Transform) -> np.ndarray:
    """Tensor conjugate transpose x^H under L: L(x^H) = L(x)^H slice by slice.

    Conjugate *x* and swap modes 1 and 2, then multiply each trailing
    mode k by C_k = M_k^-1 conj(M_k); under the DFT this reverses the
    order of slices 2..I_k.  A real *x* under a real-safe transform
    gives a real result, after its imaginary residue is checked.
    """
    x = as_tensor(x)
    _check_trailing(x, L)
    out = np.swapaxes(np.conj(x), 0, 1)
    flat, shape = np.ravel(out, order="F"), out.shape
    for axis in range(2, out.ndim):
        flat, shape = _mode_product(flat, shape, axis, L._conj_mixers[axis - 2])
    out = flat.reshape(shape, order="F")
    return real_part(out) if L.real_safe and not np.iscomplexobj(x) else out


def identity_tensor(size: int, L: Transform) -> np.ndarray:
    """Tensor acting as identity for the t-product: every transform slice is I."""
    shape = (size, size) + (L.half_trailing if L.real_safe else L.trailing)
    eye = np.eye(size, dtype=np.complex128).reshape(shape[:2] + (1,) * len(L.trailing))
    return L.inverse(np.broadcast_to(eye, shape), half=L.real_safe)


def _slice_svds(x: np.ndarray, L: Transform, half: bool = False, **svd_kw):
    """Forward-transform *x* and SVD all its slices in one stacked call.

    Returns the (J, I1, I2) slice stack (J kept slices with ``half``)
    and its ``np.linalg.svd``.
    """
    xbar = to_slice_stack(L.forward(as_tensor(x), half=half))
    return xbar, np.linalg.svd(xbar, **svd_kw)


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
    return u[:, :, :width] * root, hermitian_t(vh[:, :width]) * root


def _original_domain(stack: np.ndarray, L: Transform) -> np.ndarray:
    """Inverse transform of a (J, n1, n2) stack, real when it is real up to roundoff."""
    return real_if_close(L.inverse(from_slice_stack(stack, stack.shape[1:] + L.trailing)))


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
    if rank is not None and not 1 <= rank <= m:
        raise ValueError(f"skinny width {rank} out of range [1, {m}]")
    wu, wv = (i1, i2) if rank is None else (rank, rank)
    xbar, (u, svals, vh) = _slice_svds(x, L, full_matrices=rank is None)
    diag = np.arange(min(wu, wv))
    sbar = np.zeros((xbar.shape[0], wu, wv), dtype=np.complex128)
    sbar[:, diag, diag] = svals[:, :diag.size]
    u, s, v = (_original_domain(f, L) for f in (u[:, :, :wu], sbar, hermitian_t(vh[:, :wv])))
    return TSVDResult(u=u, s=s, v=v, multirank=_ranks_from_svals(svals, tol))


def multi_rank(x: np.ndarray, L: Transform, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Per-slice numerical ranks in the transform domain.

    A singular value counts toward the rank when it exceeds ``tol``
    times the largest singular value of the whole tensor (over all
    slices), so a slice that is zero up to roundoff has rank 0.  A real
    *x* under a real-safe transform is decomposed on its kept slices
    only; a mirrored slice has the singular values of its conjugate, so
    each of the J ranks is read through :attr:`Transform.slice_map`.
    """
    if tol < 0:
        raise ValueError("rank tolerance must be nonnegative")
    x = as_tensor(x)
    half = _half_spectrum(L, x)
    _, svals = _slice_svds(x, L, half=half, compute_uv=False)
    ranks = _ranks_from_svals(svals, tol)
    return ranks[L.slice_map[0]] if half else ranks


def tubal_rank(x: np.ndarray, L: Transform, tol: float = DEFAULT_RANK_TOL) -> int:
    """Largest entry of the multi-rank."""
    return int(multi_rank(x, L, tol).max())


def truncate_multi_rank(x: np.ndarray, L: Transform, target) -> np.ndarray:
    """Best per-slice rank-r_k approximation, reassembled in the original domain.

    For a real input under a real-safe transform, *target* must be equal
    on conjugate-mirrored slices (:attr:`Transform.mirror`); otherwise
    the result cannot be real and an :class:`ImaginaryResidueError` is
    raised before any SVD.  A real input is truncated on the slices
    ``forward(x, half=True)`` keeps only.
    """
    x = as_tensor(x)
    _check_trailing(x, L)
    target = np.asarray(target, dtype=np.int64)
    j = num_slices(x.shape)
    m = min(x.shape[0], x.shape[1])
    if target.shape != (j,):
        raise ValueError(f"target multi-rank must have length {j}, got {target.shape}")
    if (target < 0).any() or (target > m).any():
        raise ValueError(f"target multi-rank entries must lie in [0, {m}]")
    want_real = _half_spectrum(L, x)
    if want_real and not np.array_equal(target[L.mirror], target):
        raise ImaginaryResidueError(
            "target multi-rank differs on conjugate-mirrored slices, so the "
            "truncation of a real tensor would not be real")
    xbar, (u, s, vh) = _slice_svds(x, L, half=want_real, full_matrices=False)
    kept = target[L.kept_slices] if want_real else target
    r = int(kept.max(initial=0))
    s = np.where(np.arange(r) < kept[:, None], s[:, :r], 0.0)
    out = np.empty_like(xbar)  # column-major like xbar
    np.matmul(u[:, :, :r] * s[:, None, :], vh[:, :r], out=out)
    shape = x.shape[:2] + (L.half_trailing if want_real else L.trailing)
    return L.inverse(from_slice_stack(out, shape), half=want_real)


def factorize_lemma1(x: np.ndarray, L: Transform, r: int,
                     tol: float = DEFAULT_RANK_TOL):
    """Split x into factors (u, v) of width r with x = u * conj_transpose(v, L).

    Per transform slice the skinny SVD is balanced into the two factors:
    u^(k) = U0 sqrt(S0), v^(k) = V0 sqrt(S0).  Requires r at least the
    tubal rank of x, else the product could not reproduce x.
    """
    x = as_tensor(x)
    i1, i2 = x.shape[:2]
    if not 0 <= r <= min(i1, i2):
        raise ValueError(f"factor width {r} out of range [0, {min(i1, i2)}]")
    _, (us, svals, vhs) = _slice_svds(x, L, full_matrices=False)
    ranks = _ranks_from_svals(svals, tol)
    if ranks.max(initial=0) > r:
        raise ValueError(
            f"factor width {r} is below the tubal rank {int(ranks.max())}"
        )
    return tuple(_original_domain(f, L) for f in balanced_factors(us, svals, vhs, r))
