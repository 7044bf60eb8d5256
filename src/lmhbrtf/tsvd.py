"""Order-d t-SVD algebra built on an invertible transform L.

All products and factorizations act slice-wise in the transform domain:
a tensor is transformed along modes 3..d, each mode-1/mode-2 slice is
treated as an ordinary complex matrix, and the result is mapped back.
For real inputs under a real-safe transform every routine here works on
the slices that ``forward(x, half=True)`` keeps and maps back with the
complex-to-real inverse, so its results are real; complex inputs, and
any input under a transform that is not real-safe, take all J slices.
Every factorization of transform slices, here and in the model's
initialization, is one stacked SVD in :func:`_slice_svds`.
"""

from __future__ import annotations

import numpy as np

from .errors import SettingError, _check_integer_array, _check_number
from .tensor import (
    as_tensor,
    from_slice_stack,
    hermitian_t,
    num_slices,
    to_slice_stack,
)
from .transform import Transform, _mode_product, real_part

__all__ = [
    "TSVDResult",
    "facewise_product",
    "t_product",
    "t_qr",
    "conj_transpose",
    "identity_tensor",
    "t_svd",
    "multi_rank",
    "truncate_multi_rank",
    "factorize_lemma1",
    "balanced_factors",
]

DEFAULT_RANK_TOL = 1e-8


class TSVDResult:
    """t-SVD factors in the original domain: x = u * s * conj_transpose(v, L).

    ``u`` is I1 x I1 (or I1 x r for the skinny form), ``s`` is f-diagonal
    with nonincreasing nonnegative diagonals per transform slice, ``v``
    is I2 x I2 (or I2 x r).  ``multirank`` holds the per-slice numerical
    ranks of the input.
    """

    def __init__(self, u: np.ndarray, s: np.ndarray, v: np.ndarray,
                 multirank: np.ndarray):
        self.u, self.s, self.v, self.multirank = u, s, v, multirank


def _stacks_compatible(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape[2:] != y.shape[2:]:
        raise ValueError(
            f"trailing shapes differ: {x.shape[2:]} vs {y.shape[2:]}"
        )
    if x.shape[1] != y.shape[0]:
        raise ValueError(
            f"inner dimensions differ: {x.shape[1]} vs {y.shape[0]}"
        )


def _half_spectrum(L: Transform, *tensors) -> bool:
    """Whether real *tensors* under a real-safe L are handled on their kept slices."""
    return L.real_safe and not any(np.iscomplexobj(t) for t in tensors)


def _stack_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (K, n1, n2) stack of the complex products a_k b_k, a view of
    column-major memory, so :func:`_inverse_stack` reads it without a copy."""
    k, n1 = a.shape[:2]
    out = to_slice_stack(np.empty((n1, b.shape[2], k), dtype=np.complex128, order="F"))
    return np.matmul(a, b, out=out)


def _inverse_stack(stack: np.ndarray, L: Transform, half: bool) -> np.ndarray:
    """Inverse transform of a (J, n1, n2) stack, or of the K kept slices with *half*."""
    shape = stack.shape[1:] + (L.half_trailing if half else L.trailing)
    return L.inverse(from_slice_stack(stack, shape), half=half)


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
    L._check_shape(x)
    half = _half_spectrum(L, x)
    q, r = np.linalg.qr(to_slice_stack(L.forward(x, half=half)))
    return tuple(_inverse_stack(f, L, half) for f in (q, r))


def conj_transpose(x: np.ndarray, L: Transform) -> np.ndarray:
    """Tensor conjugate transpose x^H under L: L(x^H) = L(x)^H slice by slice.

    Conjugate *x* and swap modes 1 and 2, then multiply each trailing
    mode k by C_k = M_k^-1 conj(M_k); under the DFT this reverses the
    order of slices 2..I_k.  A real *x* under a real-safe transform
    gives a real result, after its imaginary residue is checked.
    """
    x = as_tensor(x)
    L._check_shape(x)
    out = np.swapaxes(np.conj(x), 0, 1)
    flat, shape = np.ravel(out, order="F"), out.shape
    for axis in range(2, out.ndim):
        flat, shape = _mode_product(flat, shape, axis, L._conj_mixers[axis - 2])
    out = flat.reshape(shape, order="F")
    return real_part(out) if L.real_safe and not np.iscomplexobj(x) else out


def identity_tensor(size: int, L: Transform) -> np.ndarray:
    """Tensor acting as identity for the t-product: every transform slice is I."""
    size = _check_number("size", size, 0, integer=True)
    shape = (size, size) + (L.half_trailing if L.real_safe else L.trailing)
    eye = np.eye(size, dtype=np.complex128).reshape(shape[:2] + (1,) * (len(shape) - 2))
    return L.inverse(np.broadcast_to(eye, shape), half=L.real_safe)


def _slice_svds(x: np.ndarray, L: Transform, **svd_kw):
    """Forward-transform *x* and SVD its slices in one stacked call.

    A real *x* under a real-safe L is decomposed on its kept slices, of
    which ``forward`` returns the self-mirrored ones exactly real.
    Returns whether the kept slices were taken, the stack and its SVD.
    """
    half = _half_spectrum(L, x)
    xbar = to_slice_stack(L.forward(x, half=half))
    return half, xbar, np.linalg.svd(xbar, **svd_kw)


def _ranks_from_svals(svals: np.ndarray, tol: float, L: Transform,
                      half: bool) -> np.ndarray:
    """Per-slice count of the singular values above tol * sigma_max.

    sigma_max is the largest singular value over all slices, so a slice
    that is zero up to roundoff has rank 0.  With *half*, the J ranks
    are read from the kept slices' through :attr:`Transform.slice_map`.
    """
    ranks = np.count_nonzero(svals > tol * svals.max(initial=0.0), axis=1).astype(np.int64)
    return ranks[L.slice_map[0]] if half else ranks


def balanced_factors(u: np.ndarray, s: np.ndarray, vh: np.ndarray, width: int):
    """Split the leading *width* singular triplets of each slice evenly.

    From stacked SVD factors (J, I1, m), (J, m) and (J, m, I2) returns
    the (J, I1, width) and (J, I2, width) stacks U0 sqrt(S0) and
    V0 sqrt(S0), whose slice products U V^H are the best rank-*width*
    approximations.
    """
    root = np.sqrt(s[:, None, :width])
    return u[:, :, :width] * root, hermitian_t(vh[:, :width]) * root


def t_svd(x: np.ndarray, L: Transform, tol: float = DEFAULT_RANK_TOL,
          rank: int = None) -> TSVDResult:
    """t-SVD with square orthogonal factors per transform slice.

    With *rank* the skinny form of that uniform width is returned
    instead: I1 x rank and I2 x rank factors with orthonormal columns
    and a rank x rank f-diagonal middle whose slices zero-pad singular
    values beyond the slice rank.
    """
    x = as_tensor(x)
    tol = _check_number("rank tolerance", tol, 0)
    i1, i2 = x.shape[:2]
    if rank is not None:
        rank = _check_number("skinny width", rank, 1, min(i1, i2), integer=True)
    wu, wv = (i1, i2) if rank is None else (rank, rank)
    half, xbar, (u, svals, vh) = _slice_svds(x, L, full_matrices=rank is None)
    diag = np.arange(min(wu, wv))
    sbar = np.zeros((xbar.shape[0], wu, wv), dtype=np.complex128)
    sbar[:, diag, diag] = svals[:, :diag.size]
    u, s, v = (_inverse_stack(f, L, half)
               for f in (u[:, :, :wu], sbar, hermitian_t(vh[:, :wv])))
    return TSVDResult(u=u, s=s, v=v, multirank=_ranks_from_svals(svals, tol, L, half))


def multi_rank(x: np.ndarray, L: Transform, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Per-slice numerical ranks in the transform domain.

    A singular value counts toward the rank when it exceeds ``tol``
    times the largest singular value of the whole tensor (over all
    slices), so a slice that is zero up to roundoff has rank 0.  A real
    *x* under a real-safe transform is decomposed on its kept slices
    only, and each of the J ranks is read through
    :attr:`Transform.slice_map`.
    """
    x = as_tensor(x)
    tol = _check_number("rank tolerance", tol, 0)
    half, _, svals = _slice_svds(x, L, compute_uv=False)
    return _ranks_from_svals(svals, tol, L, half)


def _check_mirror_symmetric(ranks: np.ndarray, L: Transform) -> None:
    """A SettingError if L is real-safe and *ranks* differ on conjugate-
    mirrored slices (:attr:`Transform.mirror`): no real tensor has such slice ranks."""
    if L.real_safe and not np.array_equal(ranks[L.mirror], ranks):
        raise SettingError("rank pattern is not symmetric across conjugate-mirrored "
                           "slices, so a tensor of these slice ranks would not be real")


def truncate_multi_rank(x: np.ndarray, L: Transform, target) -> np.ndarray:
    """Best per-slice rank-r_k approximation, reassembled in the original domain.

    For a real input under a real-safe transform, *target* must be equal
    on conjugate-mirrored slices (:attr:`Transform.mirror`); otherwise a
    SettingError is raised before any SVD.  A real input is truncated on the slices
    ``forward(x, half=True)`` keeps only.
    """
    x = as_tensor(x)
    L._check_shape(x)
    target = _check_integer_array("target multi-rank", target, num_slices(x.shape),
                                  min(x.shape[:2]))
    if not np.iscomplexobj(x):
        _check_mirror_symmetric(target, L)
    # the truncation does not depend on the choice of singular vectors
    half, _, (u, s, vh) = _slice_svds(x, L, full_matrices=False)
    kept = target[L.kept_slices] if half else target
    r = int(kept.max(initial=0))
    s = np.where(np.arange(r) < kept[:, None], s[:, :r], 0.0)
    return _inverse_stack(_stack_product(u[:, :, :r] * s[:, None, :], vh[:, :r]), L, half)


def factorize_lemma1(x: np.ndarray, L: Transform, r: int,
                     tol: float = DEFAULT_RANK_TOL):
    """Split x into factors (u, v) of width r with x = u * conj_transpose(v, L).

    Per transform slice the skinny SVD is balanced into the two factors:
    u^(k) = U0 sqrt(S0), v^(k) = V0 sqrt(S0).  Requires r at least the
    tubal rank of x, else the product could not reproduce x.
    """
    x = as_tensor(x)
    tol = _check_number("rank tolerance", tol, 0)
    r = _check_number("factor width", r, 0, min(x.shape[:2]), integer=True)
    half, _, (us, svals, vhs) = _slice_svds(x, L, full_matrices=False)
    tubal = int(_ranks_from_svals(svals, tol, L, half).max(initial=0))
    if tubal > r:
        raise ValueError(f"factor width {r} is below the tubal rank {tubal}")
    return tuple(_inverse_stack(f, L, half) for f in balanced_factors(us, svals, vhs, r))
