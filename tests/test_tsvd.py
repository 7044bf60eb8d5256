"""t-algebra contracts checked against the block-diagonal matrix oracle."""

import numpy as np
import pytest

from lmhbrtf.errors import ImaginaryResidueError
from lmhbrtf.tensor import bdiag, frobenius_norm, from_slice_stack, to_slice_stack
from lmhbrtf.transform import Transform, mirror_map
from lmhbrtf.tsvd import (
    conj_transpose,
    facewise_product,
    factorize_lemma1,
    identity_tensor,
    multi_rank,
    t_product,
    t_svd,
    truncate_multi_rank,
    tubal_rank,
)


def rng():
    return np.random.default_rng(99)


def random_multirank_tensor(shape, ranks, seed=5):
    """Planted-rank tensor: transform-domain slice products of thin factors."""
    r = np.random.default_rng(seed)
    trailing = shape[2:]
    L = Transform.dft(trailing)
    j = int(np.prod(trailing))
    stack = np.zeros((shape[0], shape[1], j), dtype=complex)
    u = r.standard_normal((shape[0], max(ranks) or 1) + trailing)
    v = r.standard_normal((shape[1], max(ranks) or 1) + trailing)
    ub = to_slice_stack(L.forward(u))
    vb = to_slice_stack(L.forward(v))
    for k in range(j):
        rk = ranks[k]
        if rk:
            stack[:, :, k] = ub[:, :rk, k] @ vb[:, :rk, k].conj().T
    x = L.inverse(from_slice_stack(stack, shape))
    return np.real(x) if np.linalg.norm(x.imag) < 1e-8 * np.linalg.norm(x) else x


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
    eye = identity_tensor(3, (2, 3), L)
    assert frobenius_norm(t_product(x, eye, L) - x) <= 1e-12 * frobenius_norm(x)
    eye_left = identity_tensor(4, (2, 3), L)
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


def test_conj_transpose_single_slice():
    x = rng().standard_normal((3, 2, 1)) + 1j * rng().standard_normal((3, 2, 1))
    xt = conj_transpose(x)
    assert xt.shape == (2, 3, 1)
    assert np.allclose(xt[:, :, 0], x[:, :, 0].conj().T, atol=0)


def test_conj_transpose_involution():
    x = rng().standard_normal((3, 4, 3, 2))
    assert np.allclose(conj_transpose(conj_transpose(x)), x, atol=0)


def test_conj_transpose_transform_domain_oracle():
    # forward(x^H) slice k equals the conjugate transpose of forward(x) slice k
    for shape in [(3, 4, 5), (2, 3, 2, 4)]:
        L = Transform.dft(shape[2:])
        x = rng().standard_normal(shape)
        lhs = to_slice_stack(L.forward(conj_transpose(x)))
        rhs = to_slice_stack(L.forward(x))
        for k in range(lhs.shape[2]):
            err = np.linalg.norm(lhs[:, :, k] - rhs[:, :, k].conj().T)
            assert err <= 1e-12 * max(np.linalg.norm(rhs[:, :, k]), 1e-300)


def test_identity_tensor_small_dft():
    L = Transform.dft((2,))
    eye = identity_tensor(1, (2,), L)
    assert np.allclose(eye.ravel(), [1.0, 0.0], atol=1e-15)
    ibar = to_slice_stack(L.forward(eye))
    for k in range(2):
        assert np.allclose(ibar[:, :, k], np.eye(1), atol=1e-12)


def test_identity_tensor_conj_transpose_symmetry():
    L = Transform.dft((3, 2))
    eye = identity_tensor(3, (3, 2), L)
    assert np.allclose(conj_transpose(eye), eye, atol=1e-12)


def test_t_svd_f_diagonal_input():
    # an already f-diagonal tensor with unit factors: s recovers the slice
    # singular values
    L = Transform.dft((3,))
    diag_stack = np.zeros((3, 3, 3), dtype=complex)
    values = np.array([[5.0, 2.0, 1.0], [4.0, 3.0, 0.5], [4.0, 3.0, 0.5]])
    # conjugate-mirrored slices share values so the tensor is real
    for k in range(3):
        diag_stack[:, :, k] = np.diag(values[k])
    x = L.inverse(from_slice_stack(diag_stack, (3, 3, 3)), assert_real=True)
    res = t_svd(x, L)
    sbar = to_slice_stack(L.forward(res.s))
    for k in range(3):
        assert np.allclose(np.diagonal(sbar[:, :, k]).real,
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
    recon = t_product(t_product(res.u, res.s, L), conj_transpose(res.v), L)
    assert frobenius_norm(np.real(recon) - x) <= 1e-10 * frobenius_norm(x)

    # first original-domain slice of s carries phi-scaled sums of the
    # transform-domain singular values, hence is nonincreasing
    sbar = to_slice_stack(L.forward(res.s))
    first = np.real(res.s[:, :, 0, 0]) if np.isrealobj(res.s) else res.s[:, :, 0, 0].real
    diag = np.diagonal(first)
    sums = np.diagonal(sbar.sum(axis=2)).real / L.phi
    m = min(shape[0], shape[1])
    assert np.allclose(diag[:m], sums[:m], rtol=1e-10, atol=1e-12)
    assert all(diag[i] >= diag[i + 1] - 1e-10 for i in range(m - 1))


def test_t_svd_slice_orthogonality():
    shape = (3, 5, 2, 2)
    L = Transform.dft(shape[2:])
    res = t_svd(rng().standard_normal(shape), L)
    ubar = to_slice_stack(L.forward(res.u))
    vbar = to_slice_stack(L.forward(res.v))
    for k in range(ubar.shape[2]):
        assert np.linalg.norm(ubar[:, :, k].conj().T @ ubar[:, :, k] - np.eye(3)) <= 1e-10
        assert np.linalg.norm(vbar[:, :, k].conj().T @ vbar[:, :, k] - np.eye(5)) <= 1e-10


def test_multi_rank_zero_and_identity():
    L = Transform.dft((2,))
    assert np.array_equal(multi_rank(np.zeros((3, 3, 2)), L), [0, 0])
    eye = identity_tensor(2, (2,), L)
    assert np.array_equal(multi_rank(eye, L), [2, 2])


def test_multi_rank_recovers_construction():
    ranks = [3, 1, 2, 2, 1]
    x = random_multirank_tensor((6, 5, 5), ranks)
    L = Transform.dft((5,))
    assert np.array_equal(multi_rank(x, L), ranks)
    assert tubal_rank(x, L) == 3


def test_tubal_rank_is_max():
    assert int(np.max([5, 3, 5, 4])) == 5  # max law, trivial
    x = random_multirank_tensor((5, 5, 2, 2), [2, 1, 1, 2], seed=8)
    L = Transform.dft((2, 2))
    assert tubal_rank(x, L) == int(multi_rank(x, L).max())
    assert tubal_rank(np.zeros((3, 3, 4)), Transform.dft((4,))) == 0


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


def _truncate_full_reference(x, L, target):
    """Per-slice truncation of the full spectrum, slice by slice."""
    xbar = to_slice_stack(L.forward(x))
    out = np.zeros_like(xbar)
    for k, r in enumerate(target):
        u, s, vh = np.linalg.svd(xbar[:, :, k], full_matrices=False)
        out[:, :, k] = (u[:, :r] * s[:r]) @ vh[:r]
    return L.inverse(from_slice_stack(out, x.shape), assert_real=True)


@pytest.mark.parametrize("shape", [(6, 5, 7), (6, 5, 8), (5, 6, 3, 4),
                                   (4, 5, 4, 3), (4, 3, 3, 2, 5)])
def test_truncate_half_spectrum_matches_full_reference(shape):
    # real input under the DFT: only the kept half of the slices is SVD'd
    r = np.random.default_rng(sum(shape))
    x = r.standard_normal(shape)
    L = Transform.dft(shape[2:])
    target = r.integers(0, min(shape[:2]) + 1, size=int(np.prod(shape[2:])))
    target = np.minimum(target, target[mirror_map(shape[2:])])  # mirror-symmetric
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
    with pytest.raises(ImaginaryResidueError, match="mirrored"):
        truncate_multi_rank(x, Transform.dft(trailing), target)


def test_truncate_validates_target():
    L = Transform.dft((3,))
    x = rng().standard_normal((4, 3, 3))
    with pytest.raises(ValueError):
        truncate_multi_rank(x, L, [5, 1, 1])
    with pytest.raises(ValueError):
        truncate_multi_rank(x, L, [1, 1])


def test_factorize_lemma1_zero_and_rank_one():
    L = Transform.dft((2,))
    u, v = factorize_lemma1(np.zeros((3, 4, 2)), L, 2)
    assert u.shape == (3, 2, 2) and v.shape == (4, 2, 2)
    assert frobenius_norm(u) == 0.0 and frobenius_norm(v) == 0.0

    x = random_multirank_tensor((4, 4, 3), [1, 1, 1], seed=4)
    u, v = factorize_lemma1(x, L=Transform.dft((3,)), r=1)
    recon = t_product(u, conj_transpose(v), Transform.dft((3,)))
    assert frobenius_norm(np.real(recon) - x) <= 1e-10 * frobenius_norm(x)


def test_factorize_lemma1_exact_at_tubal_rank():
    L = Transform.dft((2, 2))
    ranks = [3, 2, 2, 3]
    x = random_multirank_tensor((6, 5, 2, 2), ranks, seed=12)
    r = max(ranks)
    u, v = factorize_lemma1(x, L, r)
    recon = t_product(u, conj_transpose(v), L)
    assert frobenius_norm(np.real(recon) - x) <= 1e-10 * frobenius_norm(x)


def test_t_svd_skinny_form():
    L = Transform.dft((2, 2))
    ranks = [3, 2, 2, 3]
    x = random_multirank_tensor((6, 5, 2, 2), ranks, seed=12)
    res = t_svd(x, L, rank=3)
    assert res.u.shape == (6, 3, 2, 2)
    assert res.s.shape == (3, 3, 2, 2)
    assert res.v.shape == (5, 3, 2, 2)
    recon = t_product(t_product(res.u, res.s, L), conj_transpose(res.v), L)
    assert frobenius_norm(np.real(recon) - x) <= 1e-10 * frobenius_norm(x)
    # orthonormal columns and zero-padded singular values per slice
    ubar = to_slice_stack(L.forward(res.u))
    sbar = to_slice_stack(L.forward(res.s))
    for k in range(4):
        gram = ubar[:, :, k].conj().T @ ubar[:, :, k]
        assert np.linalg.norm(gram - np.eye(3)) <= 1e-10
        diag = np.diagonal(sbar[:, :, k]).real
        assert np.count_nonzero(diag > 1e-8 * max(diag.max(), 1e-300)) == ranks[k]
    with pytest.raises(ValueError, match="skinny width"):
        t_svd(x, L, rank=9)


def test_factorize_lemma1_rejects_small_width():
    L = Transform.dft((2,))
    x = random_multirank_tensor((5, 5, 2), [3, 3], seed=6)
    with pytest.raises(ValueError, match="tubal rank"):
        factorize_lemma1(x, L, 2)
