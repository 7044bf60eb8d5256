"""Layout, the mode-product kernel, slice indexing and the bdiag oracle."""

import itertools
import re
import warnings

import numpy as np
import pytest

from lmhbrtf import metrics, tsvd
from lmhbrtf.model import HyperParams, init_state, run
from lmhbrtf.synth import corrupt_tensor
from lmhbrtf.tensor import (
    as_tensor,
    bdiag,
    frobenius_norm,
    from_slice_stack,
    hermitian_t,
    linear_to_slice,
    to_slice_stack,
)
from lmhbrtf.transform import Transform, _mode_product
from lmhbrtf.tsvd import _inverse_stack, _stack_product


def rng():
    return np.random.default_rng(1234)


def random_shapes():
    return [(4, 3, 2), (2, 5, 3, 2), (3, 2, 2, 2, 2)]


def mode_product(x, u, mode):
    """The transforms' kernel on a whole tensor: fold(u @ unfold(x, mode))."""
    flat, shape = _mode_product(np.ravel(x, order="F"), x.shape, mode, u)
    return flat.reshape(shape, order="F")


def test_as_tensor_rejects_low_order():
    with pytest.raises(ValueError):
        as_tensor(np.zeros((3, 3)))
    assert as_tensor(np.zeros((3, 3, 1))).dtype == np.float64
    assert as_tensor(np.zeros((3, 3, 1), dtype=complex)).dtype == np.complex128


L4 = Transform.dft((4,))
GOOD = np.random.default_rng(77).uniform(0.5, 1.0, (8, 8, 4))

# every public entry that takes a data tensor, called with *bad* in one
# tensor argument, and the name its error gives that argument
ENTRIES = {
    "run": (lambda bad: run(bad, L4, HyperParams(2), seed=0), "observation"),
    "init_state": (lambda bad: init_state(bad, L4, HyperParams(2), seed=0), "observation"),
    **{name: (lambda bad, f=getattr(metrics, name): f(bad, GOOD), "estimate")
       for name in ("psnr", "ssim", "ergas", "sam", "compute_all")},
    "compute_all(reference)": (lambda bad: metrics.compute_all(GOOD, bad), "reference"),
    "corrupt_tensor": (lambda bad: corrupt_tensor(bad, 0.1, 0.0, 1.0, 0.0, seed=0), "input"),
    "facewise_product": (lambda bad: tsvd.facewise_product(bad, GOOD), "x"),
    "facewise_product(y)": (lambda bad: tsvd.facewise_product(GOOD, bad), "y"),
    "t_product": (lambda bad: tsvd.t_product(bad, GOOD, L4), "x"),
    "t_product(y)": (lambda bad: tsvd.t_product(GOOD, bad, L4), "y"),
    "t_qr": (lambda bad: tsvd.t_qr(bad, L4), "x"),
    "conj_transpose": (lambda bad: tsvd.conj_transpose(bad, L4), "x"),
    "t_svd": (lambda bad: tsvd.t_svd(bad, L4), "x"),
    "multi_rank": (lambda bad: tsvd.multi_rank(bad, L4), "x"),
    "truncate_multi_rank": (lambda bad: tsvd.truncate_multi_rank(bad, L4, [1] * 4), "x"),
    "factorize_lemma1": (lambda bad: tsvd.factorize_lemma1(bad, L4, 8), "x"),
}


# the entries that transform their tensors, and those that take real ones only
TRANSFORMING = ("t_product", "t_product(y)", "t_qr", "t_svd", "multi_rank",
                "truncate_multi_rank", "factorize_lemma1")
REAL_ONLY = ("run", "init_state", "psnr", "ssim", "ergas", "sam", "compute_all",
             "compute_all(reference)", "corrupt_tensor")


@pytest.mark.parametrize("entry,bad", [(e, b) for e in ENTRIES for b in ("nan", "inf", "order 2")]
                         + [(e, "overflow") for e in TRANSFORMING]
                         + [(e, "complex") for e in REAL_ONLY])
def test_every_entry_rejects_a_bad_tensor_by_name(entry, bad, capfd):
    # the t-algebra raised numpy's unnamed "SVD did not converge" on a NaN
    # and returned NaN factors on an inf, corrupt_tensor passed both
    # through, and the metrics scored an order-2 array.  A finite tensor
    # whose transform overflows gave multi-rank 0 (with a LAPACK complaint
    # on stderr), NaN t-QR factors, an unnamed LinAlgError, or a
    # non-finite entry the input does not hold
    call, name = ENTRIES[entry]
    x = GOOD.copy()
    if bad == "order 2":
        x, message = x[:, :, 0], f"{name} must have order >= 3, got order 2"
    elif bad == "overflow":
        x, message = x * 1e308, f"the transform of {name} overflows float64"
    elif bad == "complex":
        x, message = x + 1j, f"{name} must be real, got a complex tensor"
    else:
        x[1, 2, 3] = x[0, 3, 3] = float(bad)  # (0, 3, 3) is first in row-major order
        message = (f"{name} has a non-finite entry {bad} at index (1, 2, 3) "
                   "(2 non-finite entries in all)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message)):
            call(x)
    assert capfd.readouterr().err == ""


def test_mode_product_identity_and_zero():
    x = rng().standard_normal((3, 4, 2))
    assert np.array_equal(mode_product(x, np.eye(4), 1), x)
    assert np.array_equal(mode_product(x, np.zeros((2, 3)), 0),
                          np.zeros((2, 4, 2)))


def test_mode_product_matches_fiber_oracle():
    r = rng()
    x = r.standard_normal((3, 3, 2))
    u = r.standard_normal((4, 3))
    got = mode_product(x, u, 0)
    expected = np.empty((4, 3, 2))
    for j in range(3):
        for k in range(2):
            expected[:, j, k] = u @ x[:, j, k]
    assert np.allclose(got, expected, rtol=1e-14, atol=0)


def test_mode_product_composition():
    r = rng()
    x = r.standard_normal((3, 4, 2, 2))
    a = r.standard_normal((5, 4))
    b = r.standard_normal((6, 5))
    lhs = mode_product(mode_product(x, a, 1), b, 1)
    rhs = mode_product(x, b @ a, 1)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_mode_product_of_real_data_matches_the_complex_product():
    # real data take the real product with the stacked real and imaginary
    # parts of m, written straight into the complex output
    r = rng()
    x = r.standard_normal((3, 4, 6, 2))
    k = np.arange(6)
    m = np.exp(-2j * np.pi * np.outer(k, k) / 6)[:4]  # the DFT's kept rows
    got = mode_product(x, m, 2)
    ref = mode_product(x.astype(np.complex128), m, 2)
    assert got.dtype == np.complex128
    assert np.linalg.norm(got - ref) <= 1e-15 * np.linalg.norm(ref)
    q = np.linalg.qr(r.standard_normal((6, 6)))[0]
    real = mode_product(x, q, 2)
    assert np.all(real.imag == 0)
    assert np.allclose(real.real, mode_product(x, q.astype(np.complex128), 2).real,
                       rtol=1e-14, atol=0)


def test_mode_product_dimension_mismatch():
    with pytest.raises(ValueError):
        mode_product(np.zeros((3, 4, 2)), np.zeros((2, 5)), 1)


def test_frobenius_norm_cases():
    assert frobenius_norm(np.zeros((2, 2, 2))) == 0.0
    single = np.zeros((2, 2, 2))
    single[1, 0, 1] = 3.0
    assert frobenius_norm(single) == 3.0
    x = np.array([3.0, 4.0]).reshape((1, 1, 2))
    assert frobenius_norm(x) == pytest.approx(5.0, abs=0)


@pytest.mark.parametrize("shape", random_shapes())
def test_frobenius_norm_unfolding_invariant(shape):
    x = rng().standard_normal(shape)
    ref = frobenius_norm(x) ** 2
    for mode in range(len(shape)):
        other = frobenius_norm(np.moveaxis(x, mode, 0).reshape(shape[mode], -1)) ** 2
        assert abs(other - ref) <= 1e-12 * ref


def test_slice_index_paper_example():
    # shape (2,2,3,4): trailing index (2,3) one-based -> j = (3-1)*3 + 2 = 8
    # zero-based: (1,2) -> 7
    assert np.ravel_multi_index((1, 2), (3, 4), order="F") == 7
    assert linear_to_slice(7, (2, 2, 3, 4)) == (1, 2)


@pytest.mark.parametrize("shape", [(2, 2, 3), (2, 2, 3, 4), (2, 2, 2, 3, 2)])
def test_slice_index_bijection_exhaustive(shape):
    trailing = shape[2:]
    total = int(np.prod(trailing))
    seen = set()
    for tup in itertools.product(*(range(n) for n in trailing)):
        j = np.ravel_multi_index(tup, trailing, order="F")
        assert 0 <= j < total
        assert linear_to_slice(j, shape) == tup
        seen.add(j)
    assert seen == set(range(total))


def test_slice_index_out_of_range():
    with pytest.raises(IndexError):
        linear_to_slice(6, (2, 2, 3, 2))
    with pytest.raises(IndexError):
        linear_to_slice(-1, (2, 2, 3))


def test_slice_stack_order_matches_linear_index():
    x = rng().standard_normal((2, 3, 2, 2))
    stack = to_slice_stack(x)
    for j in range(4):
        i3, i4 = linear_to_slice(j, x.shape)
        assert np.array_equal(stack[j], x[:, :, i3, i4])


@pytest.mark.parametrize("shape", random_shapes())
def test_slice_stack_is_a_view_of_column_major_data(shape):
    x = np.asfortranarray(rng().standard_normal(shape))
    stack = to_slice_stack(x)
    j = int(np.prod(shape[2:]))
    assert stack.shape == (j,) + shape[:2]
    assert np.shares_memory(stack, x)
    for k in range(j):
        idx = (slice(None), slice(None)) + linear_to_slice(k, shape)
        assert np.array_equal(stack[k], x[idx])
    assert np.array_equal(from_slice_stack(stack, shape), x)
    assert np.array_equal(from_slice_stack(np.ascontiguousarray(stack), shape), x)


@pytest.mark.parametrize("trailing", [(5,), (5, 5), (3, 3, 3)])
def test_product_stack_reaches_the_inverse_without_a_copy(monkeypatch, trailing):
    # the model's x-hat: _stack_product's stack of the kept slices, whose
    # column-major memory inverse(half=True) ravels on entry without a copy
    L = Transform.dft(trailing)
    a, b = (to_slice_stack(L.forward(rng().standard_normal((6, 2) + trailing), half=True))
            for _ in range(2))
    stack = _stack_product(a, hermitian_t(b))
    ravel, copied = np.ravel, []

    def spy(x, order="C"):
        flat = ravel(x, order=order)
        copied.append(not np.shares_memory(flat, x))
        return flat

    monkeypatch.setattr(np, "ravel", spy)
    x_hat = _inverse_stack(stack, L, half=True)
    assert copied[0] is False
    # the same slices in row-major memory are copied on entry
    copied.clear()
    assert np.array_equal(_inverse_stack(stack.copy(), L, half=True), x_hat)
    assert copied[0] is True


def test_bdiag_single_slice_and_zero():
    x = rng().standard_normal((3, 2, 1))
    assert np.array_equal(bdiag(x), x[:, :, 0])
    assert np.array_equal(bdiag(np.zeros((2, 2, 3))), np.zeros((6, 6)))


def test_bdiag_definition_applied_directly():
    x = np.array([2.0, 5.0]).reshape((1, 1, 2))
    assert np.array_equal(bdiag(x), np.diag([2.0, 5.0]))
