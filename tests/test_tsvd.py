"""t-algebra contracts checked against the block-diagonal matrix oracle."""

import math

import numpy as np
import pytest

from lmhbrtf import tsvd
from lmhbrtf.errors import SettingError
from lmhbrtf.tensor import bdiag, frobenius_norm, from_slice_stack, to_slice_stack
from lmhbrtf.transform import Transform, real_part
from lmhbrtf.tsvd import (
    conj_transpose,
    facewise_product,
    factorize_lemma1,
    identity_tensor,
    multi_rank,
    t_product,
    t_qr,
    t_svd,
    truncate_multi_rank,
)


def rng():
    return np.random.default_rng(99)


def random_multirank_tensor(shape, ranks, seed=5):
    """Planted-rank tensor: transform-domain slice products of thin factors."""
    r = np.random.default_rng(seed)
    trailing = shape[2:]
    L = Transform.dft(trailing)
    j = int(np.prod(trailing))
    stack = np.zeros((j, shape[0], shape[1]), dtype=complex)
    u = r.standard_normal((shape[0], max(ranks) or 1) + trailing)
    v = r.standard_normal((shape[1], max(ranks) or 1) + trailing)
    ub = to_slice_stack(L.forward(u))
    vb = to_slice_stack(L.forward(v))
    for k in range(j):
        rk = ranks[k]
        if rk:
            stack[k] = ub[k, :, :rk] @ vb[k, :, :rk].conj().T
    x = L.inverse(from_slice_stack(stack, shape))
    return np.real(x) if np.linalg.norm(x.imag) < 1e-8 * np.linalg.norm(x) else x


def dft_conj_transpose_reference(x):
    """DFT-only conjugate transpose: conjugate-transpose every slice, then
    reverse the order of slices 2..I_k along each trailing mode k."""
    out = np.swapaxes(np.conj(x), 0, 1)
    for axis in range(2, out.ndim):
        out = np.roll(np.flip(out, axis=axis), 1, axis=axis)
    return np.ascontiguousarray(out)


def orthogonal(n, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return q


def phased_dft(n, seed):
    """diag(e^{i theta}) F with theta_{-i} = -theta_i: real-safe, but
    C = M^-1 conj(M) is dense rather than the DFT's slice reversal."""
    theta = np.random.default_rng(seed).standard_normal(n)
    theta = (theta - theta[-np.arange(n) % n]) / 2
    return np.exp(1j * theta)[:, None] * np.fft.fft(np.eye(n))


# explicit transforms of orders 3 and 4; all real-safe except the phases
EXPLICIT = {
    "orthogonal-4": [orthogonal(4, 1)],
    "orthogonal-4x3": [orthogonal(4, 2), orthogonal(3, 3)],
    "dft-5": [np.fft.fft(np.eye(5))],
    "dft-3x4": [np.fft.fft(np.eye(3)), np.fft.fft(np.eye(4), norm="ortho")],
    "phased-dft-5": [phased_dft(5, 4)],
    "phased-dft-5x4": [phased_dft(5, 5), phased_dft(4, 6)],
    "phases-3": [np.diag(np.exp(1j * np.array([0.3, 1.1, -0.4])))],
    # row-reordered DFT matrices: the kept rows 0, 2, 3 of the last mode
    # are not a prefix
    "reordered-dft-4": [np.fft.fft(np.eye(4))[[3, 1, 2, 0]]],
    "reordered-dft-3x5": [np.fft.fft(np.eye(3)), np.fft.fft(np.eye(5))[[1, 4, 0, 2, 3]]],
}


def real_and_complex(shape, seed):
    r = np.random.default_rng(seed)
    x = r.standard_normal(shape)
    return x, x + 1j * r.standard_normal(shape)


def test_facewise_identity_case():
    x = rng().standard_normal((3, 3, 2, 2))
    eye = np.zeros((3, 3, 2, 2))
    eye[:, :, :, :] = np.eye(3)[:, :, None, None]
    assert np.allclose(facewise_product(x, eye), x, atol=0)


def test_facewise_scalar_slices():
    x = np.array([4.0, -2.0]).reshape((1, 1, 2))
    y = np.array([3.0, 1.0]).reshape((1, 1, 2))
    assert np.allclose(facewise_product(x, y).ravel(), [12.0, -2.0], atol=0)


def test_facewise_matches_bdiag_oracle():
    r = rng()
    x = r.standard_normal((3, 2, 2))
    y = r.standard_normal((2, 4, 2))
    z = facewise_product(x, y)
    assert np.linalg.norm(bdiag(z) - bdiag(x) @ bdiag(y)) <= 1e-12 * np.linalg.norm(bdiag(z))


def test_facewise_shape_errors():
    with pytest.raises(ValueError):
        facewise_product(np.zeros((3, 2, 2)), np.zeros((3, 4, 2)))
    with pytest.raises(ValueError):
        facewise_product(np.zeros((3, 2, 2)), np.zeros((2, 4, 3)))


def test_t_product_identity_law():
    L = Transform.dft((2, 3))
    x = rng().standard_normal((4, 3, 2, 3))
    eye = identity_tensor(3, L)
    assert frobenius_norm(t_product(x, eye, L) - x) <= 1e-12 * frobenius_norm(x)
    eye_left = identity_tensor(4, L)
    assert frobenius_norm(t_product(eye_left, x, L) - x) <= 1e-12 * frobenius_norm(x)


def test_t_product_is_circular_convolution_mode3():
    # 1x1xn real tensors under the DFT multiply as circular convolutions
    x = np.array([1.0, 3.0]).reshape((1, 1, 2))
    y = np.array([2.0, 1.0]).reshape((1, 1, 2))
    L = Transform.dft((2,))
    got = t_product(x, y, L).ravel()
    assert np.allclose(got, [5.0, 7.0], atol=1e-12)
    # brute-force circular convolution oracle on a longer tube
    r = rng()
    a = r.standard_normal(5)
    b = r.standard_normal(5)
    conv = np.array([sum(a[i] * b[(t - i) % 5] for i in range(5)) for t in range(5)])
    got = t_product(a.reshape((1, 1, 5)), b.reshape((1, 1, 5)), Transform.dft((5,))).ravel()
    assert np.allclose(got, conv, atol=1e-12)


def test_t_product_matches_bdiag_oracle_order4():
    r = rng()
    L = Transform.dft((2, 2))
    x = r.standard_normal((3, 2, 2, 2))
    y = r.standard_normal((2, 4, 2, 2))
    z = t_product(x, y, L)
    lhs = bdiag(L.forward(z))
    rhs = bdiag(L.forward(x)) @ bdiag(L.forward(y))
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(lhs)


@pytest.mark.parametrize("shape", [(4, 3, 5), (3, 4, 6), (4, 3, 3, 4),
                                   (3, 5, 2, 3, 4)])
def test_t_product_half_spectrum_matches_full_facewise_product(shape):
    # real inputs under the DFT multiply only the kept slices
    x, _ = real_and_complex(shape, 31)
    y, _ = real_and_complex((shape[1], 2) + shape[2:], 32)
    L = Transform.dft(shape[2:])
    got = t_product(x, y, L)
    full = real_part(L.inverse(facewise_product(L.forward(x), L.forward(y))))
    assert np.isrealobj(got) and got.shape == full.shape
    assert frobenius_norm(got - full) <= 1e-13 * frobenius_norm(full)


@pytest.mark.parametrize("name", sorted(EXPLICIT))
def test_t_product_under_explicit_transforms_matches_full_facewise_product(name):
    L = Transform.explicit(EXPLICIT[name])
    x, _ = real_and_complex((4, 3) + L.trailing, 33)
    y, _ = real_and_complex((3, 2) + L.trailing, 34)
    got = t_product(x, y, L)
    full = L.inverse(facewise_product(L.forward(x), L.forward(y)))
    assert np.isrealobj(got) == L.real_safe
    assert frobenius_norm(got - full) <= 1e-12 * frobenius_norm(full)


def _unitary(n, seed):
    r = np.random.default_rng(seed)
    q, _ = np.linalg.qr(r.standard_normal((n, n)) + 1j * r.standard_normal((n, n)))
    return q


# (shape, transform, complex input); the unitary transform is not real-safe
T_QR_CASES = {
    "dft-3": ((7, 4, 5), None, False),
    "dft-3-wide": ((3, 5, 6), None, False),
    "dft-3-complex": ((6, 4, 4), None, True),
    "dft-4": ((6, 3, 4, 3), None, False),
    "dft-5": ((5, 4, 3, 2, 4), None, False),
    "orthogonal-4": ((6, 3, 4), [orthogonal(4, 1)], False),
    "unitary-4": ((6, 3, 4), [_unitary(4, 2)], False),
}


@pytest.mark.parametrize("name", sorted(T_QR_CASES))
def test_t_qr_contract(name):
    shape, mats, complex_input = T_QR_CASES[name]
    L = Transform.dft(shape[2:]) if mats is None else Transform.explicit(mats)
    x = real_and_complex(shape, 41)[complex_input]
    q, r = t_qr(x, L)
    m = min(shape[:2])
    assert q.shape == (shape[0], m) + shape[2:]
    assert r.shape == (m, shape[1]) + shape[2:]
    assert np.isrealobj(q) == np.isrealobj(r) == (L.real_safe and not complex_input)
    assert frobenius_norm(t_product(q, r, L) - x) <= 1e-12 * frobenius_norm(x)
    eye = identity_tensor(m, L)
    gram = t_product(conj_transpose(q, L), q, L)
    assert frobenius_norm(gram - eye) <= 1e-12 * frobenius_norm(eye)
    rbar = to_slice_stack(L.forward(r))
    assert np.linalg.norm(np.tril(rbar, k=-1)) <= 1e-12 * np.linalg.norm(rbar)


def test_conj_transpose_single_slice():
    x = rng().standard_normal((3, 2, 1)) + 1j * rng().standard_normal((3, 2, 1))
    xt = conj_transpose(x, Transform.dft((1,)))
    assert xt.shape == (2, 3, 1)
    assert np.allclose(xt[:, :, 0], x[:, :, 0].conj().T, atol=0)


def test_conj_transpose_involution():
    x = rng().standard_normal((3, 4, 3, 2))
    L = Transform.dft((3, 2))
    assert np.allclose(conj_transpose(conj_transpose(x, L), L), x, atol=0)


def test_conj_transpose_transform_domain_oracle():
    # forward(x^H) slice k equals the conjugate transpose of forward(x) slice k
    for shape in [(3, 4, 5), (2, 3, 2, 4)]:
        L = Transform.dft(shape[2:])
        x = rng().standard_normal(shape)
        lhs = to_slice_stack(L.forward(conj_transpose(x, L)))
        rhs = to_slice_stack(L.forward(x))
        for k in range(lhs.shape[0]):
            err = np.linalg.norm(lhs[k] - rhs[k].conj().T)
            assert err <= 1e-12 * max(np.linalg.norm(rhs[k]), 1e-300)


@pytest.mark.parametrize("shape", [(3, 4, 5), (2, 3, 4, 3), (2, 2, 3, 2, 4), (3, 2, 1)])
def test_conj_transpose_under_the_dft_is_the_slice_reversal_bitwise(shape):
    L = Transform.dft(shape[2:])
    for x in real_and_complex(shape, sum(shape)):
        got = conj_transpose(x, L)
        want = dft_conj_transpose_reference(x)
        assert got.dtype == want.dtype
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(EXPLICIT))
def test_conj_transpose_transform_domain_oracle_explicit(name):
    # L(x^H) = L(x)^H slice by slice under any invertible transform
    L = Transform.explicit(EXPLICIT[name])
    assert L.real_safe == (name != "phases-3")
    for x in real_and_complex((3, 4) + L.trailing, 21):
        xt = conj_transpose(x, L)
        assert np.isrealobj(xt) == (L.real_safe and np.isrealobj(x))
        want = np.swapaxes(L.forward(x), 0, 1).conj()
        assert frobenius_norm(L.forward(xt) - want) <= 1e-12 * frobenius_norm(want)


def test_conj_transpose_rejects_transform_of_another_trailing_shape():
    with pytest.raises(ValueError, match="does not match"):
        conj_transpose(np.zeros((2, 3, 4)), Transform.dft((3,)))


def test_identity_tensor_small_dft():
    L = Transform.dft((2,))
    eye = identity_tensor(1, L)
    assert np.allclose(eye.ravel(), [1.0, 0.0], atol=1e-15)
    ibar = to_slice_stack(L.forward(eye))
    for k in range(2):
        assert np.allclose(ibar[k], np.eye(1), atol=1e-12)


def test_identity_tensor_conj_transpose_symmetry():
    L = Transform.dft((3, 2))
    eye = identity_tensor(3, L)
    assert np.allclose(conj_transpose(eye, L), eye, atol=1e-12)


def test_t_svd_f_diagonal_input():
    # an already f-diagonal tensor with unit factors: s recovers the slice
    # singular values
    L = Transform.dft((3,))
    diag_stack = np.zeros((3, 3, 3), dtype=complex)
    values = np.array([[5.0, 2.0, 1.0], [4.0, 3.0, 0.5], [4.0, 3.0, 0.5]])
    # conjugate-mirrored slices share values so the tensor is real
    for k in range(3):
        diag_stack[k] = np.diag(values[k])
    x = real_part(L.inverse(from_slice_stack(diag_stack, (3, 3, 3))))
    res = t_svd(x, L)
    sbar = to_slice_stack(L.forward(res.s))
    for k in range(3):
        assert np.allclose(np.diagonal(sbar[k]).real,
                           sorted(values[k], reverse=True), atol=1e-10)


def test_t_svd_zero_tensor():
    L = Transform.dft((2, 2))
    res = t_svd(np.zeros((3, 2, 2, 2)), L)
    assert frobenius_norm(res.s) == 0.0
    assert np.array_equal(res.multirank, np.zeros(4, dtype=np.int64))


def test_t_svd_reconstruction_and_identities():
    shape = (4, 3, 2, 2)
    L = Transform.dft(shape[2:])
    x = rng().standard_normal(shape)
    res = t_svd(x, L)
    recon = t_product(t_product(res.u, res.s, L), conj_transpose(res.v, L), L)
    assert frobenius_norm(np.real(recon) - x) <= 1e-10 * frobenius_norm(x)

    # first original-domain slice of s carries phi-scaled sums of the
    # transform-domain singular values, hence is nonincreasing
    sbar = to_slice_stack(L.forward(res.s))
    first = np.real(res.s[:, :, 0, 0]) if np.isrealobj(res.s) else res.s[:, :, 0, 0].real
    diag = np.diagonal(first)
    sums = np.diagonal(sbar.sum(axis=0)).real / L.phi
    m = min(shape[0], shape[1])
    assert np.allclose(diag[:m], sums[:m], rtol=1e-10, atol=1e-12)
    assert all(diag[i] >= diag[i + 1] - 1e-10 for i in range(m - 1))


def test_t_svd_slice_orthogonality():
    shape = (3, 5, 2, 2)
    L = Transform.dft(shape[2:])
    res = t_svd(rng().standard_normal(shape), L)
    ubar = to_slice_stack(L.forward(res.u))
    vbar = to_slice_stack(L.forward(res.v))
    for k in range(ubar.shape[0]):
        assert np.linalg.norm(ubar[k].conj().T @ ubar[k] - np.eye(3)) <= 1e-10
        assert np.linalg.norm(vbar[k].conj().T @ vbar[k] - np.eye(5)) <= 1e-10


def test_multi_rank_zero_and_identity():
    L = Transform.dft((2,))
    assert np.array_equal(multi_rank(np.zeros((3, 3, 2)), L), [0, 0])
    eye = identity_tensor(2, L)
    assert np.array_equal(multi_rank(eye, L), [2, 2])


def test_multi_rank_recovers_construction():
    ranks = [3, 1, 2, 2, 1]
    x = random_multirank_tensor((6, 5, 5), ranks)
    L = Transform.dft((5,))
    assert np.array_equal(multi_rank(x, L), ranks)


def test_truncate_noop_and_zero():
    L = Transform.dft((3,))
    x = random_multirank_tensor((5, 4, 3), [2, 1, 1], seed=3)
    current = multi_rank(x, L)
    kept = truncate_multi_rank(x, L, current)
    assert frobenius_norm(kept - x) <= 1e-10 * frobenius_norm(x)
    zeroed = truncate_multi_rank(x, L, np.zeros(3, dtype=int))
    assert frobenius_norm(zeroed) == 0.0


def test_truncate_recovers_mixed_pattern():
    # full-rank random input truncated to an R / 0.5R block pattern
    L = Transform.dft((6,))
    x = rng().standard_normal((8, 8, 6))
    target = np.array([4, 2, 2, 4, 2, 2])  # mirror-symmetric
    cut = truncate_multi_rank(x, L, target)
    assert np.isrealobj(cut)
    assert np.array_equal(multi_rank(cut, L), target)


def test_multi_rank_is_zero_on_slices_zero_up_to_roundoff():
    # after truncating every slice but slice 0 to rank 0, the other slices
    # hold only roundoff: the tolerance is relative to the largest singular
    # value of the whole tensor, not of each slice
    x = np.random.default_rng(11).standard_normal((5, 6, 3, 4))
    L = Transform.dft((3, 4))
    target = np.zeros(12, dtype=int)
    target[0] = 4
    assert np.array_equal(multi_rank(truncate_multi_rank(x, L, target), L), target)


def _full_spectrum_ranks(x, L, tol=tsvd.DEFAULT_RANK_TOL):
    """Per-slice rank counts over all J slices of the full transform."""
    svals = np.linalg.svd(to_slice_stack(L.forward(x)), compute_uv=False)
    return np.count_nonzero(svals > tol * svals.max(), axis=1)


@pytest.mark.parametrize("shape", [(6, 5, 7), (5, 6, 8), (5, 4, 3, 4),
                                   (4, 5, 4, 3), (4, 3, 3, 2, 5)])
def test_multi_rank_half_spectrum_matches_full_count(shape):
    # real input under the DFT: only the kept slices are decomposed, and
    # each dropped slice reads the rank of its mirror
    r = np.random.default_rng(sum(shape) + 1)
    x = r.standard_normal(shape)
    L = Transform.dft(shape[2:])
    assert np.array_equal(multi_rank(x, L), _full_spectrum_ranks(x, L))
    target = r.integers(0, min(shape[:2]) + 1, size=int(np.prod(shape[2:])))
    target = np.minimum(target, target[L.mirror])  # mirror-symmetric
    cut = truncate_multi_rank(x, L, target)
    assert np.array_equal(multi_rank(cut, L), target)
    assert np.array_equal(multi_rank(cut, L), _full_spectrum_ranks(cut, L))


@pytest.mark.parametrize("name", sorted(EXPLICIT))
def test_multi_rank_under_explicit_transforms_matches_full_count(name):
    L = Transform.explicit(EXPLICIT[name])
    r = np.random.default_rng(17)
    x = r.standard_normal((5, 4) + L.trailing)
    assert np.array_equal(multi_rank(x, L), _full_spectrum_ranks(x, L))
    target = r.integers(0, 5, size=int(np.prod(L.trailing)))
    if L.real_safe:
        target = np.minimum(target, target[L.mirror])
    cut = truncate_multi_rank(x, L, target)
    assert np.array_equal(multi_rank(cut, L), target)
    assert np.array_equal(multi_rank(cut, L), _full_spectrum_ranks(cut, L))


def _truncate_full_reference(x, L, target):
    """Per-slice truncation of the full spectrum, slice by slice."""
    xbar = to_slice_stack(L.forward(x))
    out = np.zeros_like(xbar)
    for k, r in enumerate(target):
        u, s, vh = np.linalg.svd(xbar[k], full_matrices=False)
        out[k] = (u[:, :r] * s[:r]) @ vh[:r]
    return real_part(L.inverse(from_slice_stack(out, x.shape)))


@pytest.mark.parametrize("shape", [(6, 5, 7), (6, 5, 8), (5, 6, 3, 4),
                                   (4, 5, 4, 3), (4, 3, 3, 2, 5)])
def test_truncate_half_spectrum_matches_full_reference(shape):
    # real input under the DFT: only the kept half of the slices is SVD'd
    r = np.random.default_rng(sum(shape))
    x = r.standard_normal(shape)
    L = Transform.dft(shape[2:])
    target = r.integers(0, min(shape[:2]) + 1, size=int(np.prod(shape[2:])))
    target = np.minimum(target, target[L.mirror])  # mirror-symmetric
    got = truncate_multi_rank(x, L, target)
    expected = _truncate_full_reference(x, L, target)
    assert np.isrealobj(got) and got.shape == shape
    assert frobenius_norm(got - expected) <= 1e-12 * frobenius_norm(expected)


@pytest.mark.parametrize("trailing,target", [((5,), [2, 2, 1, 2, 2]),
                                             ((3, 4), [1] * 12)])
def test_truncate_rejects_asymmetric_target(trailing, target):
    target = np.array(target)
    if len(trailing) == 2:
        target[1] = 2  # slice (1, 0); its mirror (2, 0) is kept in the half too
    x = np.random.default_rng(7).standard_normal((4, 4) + trailing)
    with pytest.raises(SettingError, match="mirrored"):
        truncate_multi_rank(x, Transform.dft(trailing), target)


def test_truncate_rejects_asymmetric_target_before_any_svd(monkeypatch):
    # explicit DFT matrices keep all slices, so only the mirror shows that
    # slice 1 and its conjugate, slice 4, would get different ranks
    def no_svd(*args, **kwargs):
        raise AssertionError("slice SVDs ran before the target check")

    L = Transform.explicit([np.fft.fft(np.eye(5))])
    x = np.random.default_rng(7).standard_normal((4, 4, 5))
    monkeypatch.setattr(tsvd.np.linalg, "svd", no_svd)
    with pytest.raises(SettingError, match="mirrored"):
        truncate_multi_rank(x, L, [2, 1, 2, 2, 2])


@pytest.mark.parametrize("tol", [math.nan, -1.0, -math.inf, True])
def test_rank_tolerance_rejected_before_any_svd(tol, monkeypatch):
    # NaN gave all-zero ranks, and a negative tol full ranks and a false
    # "below the tubal rank"
    def no_svd(*args, **kwargs):
        raise AssertionError("slice SVDs ran before the tolerance check")

    L = Transform.dft((4,))
    x = random_multirank_tensor((5, 4, 4), [2, 1, 1, 1])
    monkeypatch.setattr(tsvd.np.linalg, "svd", no_svd)
    for call in (lambda: multi_rank(x, L, tol=tol), lambda: t_svd(x, L, tol=tol),
                 lambda: factorize_lemma1(x, L, 2, tol=tol)):
        with pytest.raises(ValueError, match="rank tolerance must be finite and nonnegative"):
            call()


@pytest.mark.parametrize("L", [Transform.dft((5,)), Transform.dft((3,)),
                               Transform.explicit([np.eye(3)])])
def test_truncate_rejects_transform_of_another_trailing_shape(L):
    # the mirror check must not index the target with another shape's map
    x = rng().standard_normal((4, 4, 4))
    with pytest.raises(ValueError, match="does not match"):
        truncate_multi_rank(x, L, [2, 1, 2, 1])


def test_truncate_validates_target():
    L = Transform.dft((3,))
    x = rng().standard_normal((4, 3, 3))
    with pytest.raises(ValueError):
        truncate_multi_rank(x, L, [5, 1, 1])
    with pytest.raises(ValueError):
        truncate_multi_rank(x, L, [1, 1])


@pytest.mark.parametrize("target", [[1.7, 1.2, 1.2], [True, True, True], [1.0, 1.0, 1.0]])
def test_truncate_rejects_a_target_that_is_not_of_an_integer_dtype(target):
    # [1.7, 1.2, 1.2] ran as [1, 1, 1], and bools as ranks 1
    x = rng().standard_normal((4, 3, 3))
    with pytest.raises(ValueError, match=r"target multi-rank must hold 3 integers in \[0, 3\]"):
        truncate_multi_rank(x, Transform.dft((3,)), target)
    truncate_multi_rank(x, Transform.dft((3,)), np.array([1, 1, 1], dtype=np.uint8))


def test_factorize_lemma1_zero_and_rank_one():
    L = Transform.dft((2,))
    u, v = factorize_lemma1(np.zeros((3, 4, 2)), L, 2)
    assert u.shape == (3, 2, 2) and v.shape == (4, 2, 2)
    assert frobenius_norm(u) == 0.0 and frobenius_norm(v) == 0.0

    x = random_multirank_tensor((4, 4, 3), [1, 1, 1], seed=4)
    L = Transform.dft((3,))
    u, v = factorize_lemma1(x, L=L, r=1)
    recon = t_product(u, conj_transpose(v, L), L)
    assert frobenius_norm(np.real(recon) - x) <= 1e-10 * frobenius_norm(x)


def test_factorize_lemma1_exact_at_tubal_rank():
    L = Transform.dft((2, 2))
    ranks = [3, 2, 2, 3]
    x = random_multirank_tensor((6, 5, 2, 2), ranks, seed=12)
    r = max(ranks)
    u, v = factorize_lemma1(x, L, r)
    recon = t_product(u, conj_transpose(v, L), L)
    assert frobenius_norm(np.real(recon) - x) <= 1e-10 * frobenius_norm(x)


def test_t_svd_skinny_form():
    L = Transform.dft((2, 2))
    ranks = [3, 2, 2, 3]
    x = random_multirank_tensor((6, 5, 2, 2), ranks, seed=12)
    res = t_svd(x, L, rank=3)
    assert res.u.shape == (6, 3, 2, 2)
    assert res.s.shape == (3, 3, 2, 2)
    assert res.v.shape == (5, 3, 2, 2)
    recon = t_product(t_product(res.u, res.s, L), conj_transpose(res.v, L), L)
    assert frobenius_norm(np.real(recon) - x) <= 1e-10 * frobenius_norm(x)
    # orthonormal columns and zero-padded singular values per slice
    ubar = to_slice_stack(L.forward(res.u))
    sbar = to_slice_stack(L.forward(res.s))
    for k in range(4):
        gram = ubar[k].conj().T @ ubar[k]
        assert np.linalg.norm(gram - np.eye(3)) <= 1e-10
        diag = np.diagonal(sbar[k]).real
        assert np.count_nonzero(diag > 1e-8 * max(diag.max(), 1e-300)) == ranks[k]
    with pytest.raises(ValueError, match="skinny width"):
        t_svd(x, L, rank=9)


@pytest.mark.parametrize("name", sorted(EXPLICIT))
def test_t_svd_reconstruction_under_explicit_transforms(name):
    L = Transform.explicit(EXPLICIT[name])
    for x in real_and_complex((5, 4) + L.trailing, 31):
        res = t_svd(x, L)
        recon = t_product(t_product(res.u, res.s, L), conj_transpose(res.v, L), L)
        assert frobenius_norm(recon - x) <= 1e-12 * frobenius_norm(x)
        low = t_product(x[:, :2], x[:2], L)  # tubal rank 2 under L
        res = t_svd(low, L, rank=2)
        recon = t_product(t_product(res.u, res.s, L), conj_transpose(res.v, L), L)
        assert frobenius_norm(recon - low) <= 1e-12 * frobenius_norm(low)


@pytest.mark.parametrize("name", sorted(EXPLICIT))
def test_factorize_lemma1_under_explicit_transforms(name):
    L = Transform.explicit(EXPLICIT[name])
    for x in real_and_complex((5, 4) + L.trailing, 41):
        low = t_product(x[:, :2], x[:2], L)  # tubal rank 2 under L
        u, v = factorize_lemma1(low, L, 2)
        recon = t_product(u, conj_transpose(v, L), L)
        assert frobenius_norm(recon - low) <= 1e-12 * frobenius_norm(low)


def test_factorize_lemma1_rejects_small_width():
    L = Transform.dft((2,))
    x = random_multirank_tensor((5, 5, 2), [3, 3], seed=6)
    with pytest.raises(ValueError, match="tubal rank"):
        factorize_lemma1(x, L, 2)


@pytest.mark.parametrize("trailing", [(6,), (2, 2), (3, 4), (5, 5), (3, 10), (3, 3, 3)])
def test_t_svd_and_lemma1_factors_of_a_real_tensor_are_real(trailing):
    # both decompose the kept slices only; a slice that is its own mirror
    # has real singular vectors, even where its rank deficit leaves them
    # free (a full-spectrum SVD of the mirror pairs gave complex factors)
    L = Transform.dft(trailing)
    x = t_product(rng().standard_normal((6, 2) + trailing),
                  rng().standard_normal((2, 5) + trailing), L)
    res = t_svd(x, L)
    skinny = t_svd(x, L, rank=3)
    u, v = factorize_lemma1(x, L, 3)
    for f in (res.u, res.s, res.v, skinny.u, skinny.s, skinny.v, u, v):
        assert f.dtype == np.float64
    assert np.array_equal(res.multirank, multi_rank(x, L))
    assert np.array_equal(res.multirank, np.full(L.mirror.size, 2))
    for a, b in ((t_product(res.u, res.s, L), res.v), (t_product(skinny.u, skinny.s, L), skinny.v),
                 (u, v)):
        recon = t_product(a, conj_transpose(b, L), L)
        assert frobenius_norm(recon - x) <= 1e-12 * frobenius_norm(x)
