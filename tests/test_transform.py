"""Forward/inverse transform contracts, phi, and DFT slice symmetry."""

import copy
import itertools
import pickle
import tracemalloc

import numpy as np
import pytest

from lmhbrtf.errors import ImaginaryResidueError
from lmhbrtf.tensor import (
    from_slice_stack,
    frobenius_norm,
    linear_to_slice,
    to_slice_stack,
)
from lmhbrtf.transform import RESIDUE_TOL, Transform, real_part


def rng():
    return np.random.default_rng(77)


def dft_matrix(n, normalized=False):
    k = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return w / np.sqrt(n) if normalized else w


def dft_mirror_index(index, trailing):
    """Trailing index of the DFT slice conjugate to the given one: -i mod I per mode."""
    return tuple((n - i) % n for i, n in zip(index, trailing))


def test_transform_is_frozen_but_caches():
    L = Transform.dft((4, 3))
    assert "mirror" not in vars(L)
    mirror = L.mirror
    assert L.mirror is mirror and vars(L)["mirror"] is mirror
    for name in ("trailing", "phi", "matrices", "mirror", "other"):
        with pytest.raises(AttributeError):
            setattr(L, name, None)
        with pytest.raises(AttributeError):
            delattr(L, name)
    assert L.trailing == (4, 3) and L.phi == 12.0


def _held_arrays(L):
    """Every array a real-safe transform holds, and those its properties cache."""
    return [a for a in (*L.matrices, *L._inverses, *L._conj_perms, *L._conj_mixers,
                        L.mirror, L.kept_slices, L.slice_weights, *L.slice_map)
            if a is not None]


def test_transform_arrays_are_read_only():
    # a write into L.matrices changed forward(x) but not forward(x, half=True),
    # which read the rows cached from the old matrix, and slice_weights took
    # any value that later model runs would read
    L = Transform.dft((4, 3))
    for array in _held_arrays(L):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    mine = dft_matrix(5)
    E = Transform.explicit([mine])
    assert not E.matrices[0].flags.writeable
    assert E.matrices[0] is not mine and mine.flags.writeable  # the caller's stays writable
    mine[:] = 0
    assert np.array_equal(E.matrices[0], dft_matrix(5))


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["deepcopy", "pickle"])
def test_copied_transforms_are_read_only_and_uncached(clone):
    L = Transform.dft((4, 3))
    _held_arrays(L), L._blocks, L._c2r  # fill the caches
    C = clone(L)
    assert type(C) is Transform
    assert set(vars(C)) == {"phi", "matrices", "_inverses", "_conj_perms", "_conj_mixers"}
    assert C.phi == L.phi and all(np.array_equal(a, b) for a, b in
                                  zip(_held_arrays(C), _held_arrays(L)))
    for array in _held_arrays(C):
        assert not array.flags.writeable
    x = rng().standard_normal((2, 3, 4, 3))
    assert np.array_equal(C.forward(x, half=True), L.forward(x, half=True))


def test_two_point_dft_example():
    x = np.array([1.0, 3.0]).reshape((1, 1, 2))
    L = Transform.dft((2,))
    xbar = L.forward(x)
    assert np.allclose(xbar.ravel(), [4.0, -2.0], atol=1e-14)
    back = real_part(L.inverse(xbar))
    assert np.allclose(back, x, atol=1e-14)


def test_forward_zero_and_identity_transform():
    L = Transform.dft((3, 2))
    assert np.all(L.forward(np.zeros((2, 2, 3, 2))) == 0)
    Li = Transform.explicit([np.eye(3), np.eye(2)])
    x = rng().standard_normal((2, 2, 3, 2))
    assert np.allclose(Li.forward(x), x, atol=0)
    assert Li.phi == pytest.approx(1.0)


@pytest.mark.parametrize("shape", [(4, 3, 5), (3, 3, 2, 4), (2, 3, 2, 2, 3)])
def test_roundtrip_and_linearity(shape):
    r = rng()
    L = Transform.dft(shape[2:])
    x = r.standard_normal(shape)
    y = r.standard_normal(shape)
    back = real_part(L.inverse(L.forward(x)))
    assert frobenius_norm(back - x) <= 1e-12 * frobenius_norm(x)
    a, b = 0.3, -1.7
    lin = L.forward(a * x + b * y) - (a * L.forward(x) + b * L.forward(y))
    assert frobenius_norm(lin) <= 1e-12 * frobenius_norm(L.forward(x))


def test_dft_conjugate_symmetric_slices():
    shape = (3, 4, 4, 3)
    trailing = shape[2:]
    x = rng().standard_normal(shape)
    xbar = Transform.dft(trailing).forward(x)
    for idx in itertools.product(*(range(n) for n in trailing)):
        a = xbar[(slice(None), slice(None)) + idx]
        b = xbar[(slice(None), slice(None)) + dft_mirror_index(idx, trailing)]
        assert np.linalg.norm(a - b.conj()) <= 1e-12 * np.linalg.norm(a)


def test_parseval_identity():
    shape = (4, 4, 5, 3)
    L = Transform.dft(shape[2:])
    x = rng().standard_normal(shape)
    lhs = frobenius_norm(L.forward(x)) ** 2
    rhs = L.phi * frobenius_norm(x) ** 2
    assert abs(lhs - rhs) <= 1e-10 * rhs


def test_phi_values():
    assert Transform.dft((10, 10)).phi == pytest.approx(100.0)
    assert Transform.dft((5,)).phi == pytest.approx(5.0)
    # normalized DFT matrices are unitary, so phi collapses to 1
    L = Transform.explicit([dft_matrix(4, normalized=True),
                            dft_matrix(3, normalized=True)])
    assert L.phi == pytest.approx(1.0, abs=1e-12)


def test_explicit_unnormalized_dft_matches_builtin():
    shape = (3, 2, 4, 3)
    Lfft = Transform.dft(shape[2:])
    Lmat = Transform.explicit([dft_matrix(4), dft_matrix(3)])
    assert Lmat.phi == pytest.approx(Lfft.phi, rel=1e-12)
    x = rng().standard_normal(shape)
    a = Lfft.forward(x)
    b = Lmat.forward(x)
    assert frobenius_norm(a - b) <= 1e-10 * frobenius_norm(a)


@pytest.mark.parametrize("trailing", [(4, 3), (5, 5), (3, 3, 3)])
def test_explicit_dft_matrices_give_the_builtin_transform(trailing):
    # both constructors derive every field from the matrices in one place;
    # np.linalg.inv and a dense mixer made the explicit fields differ
    L = Transform.dft(trailing)
    E = Transform.explicit(L.matrices)
    assert vars(E).keys() == vars(L).keys() and E.phi == L.phi
    for name in ("matrices", "_inverses", "_conj_perms", "_conj_mixers"):
        for a, b in zip(getattr(E, name), getattr(L, name), strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("scale", [1.0, 3.0])
def test_explicit_orthogonal_transform_round_trips(scale):
    # the inverse is U^H / c, exact to roundoff for a matrix unitary up to scale c
    r = rng()
    L = Transform.explicit([scale * np.linalg.qr(r.standard_normal((n, n)))[0]
                            for n in (4, 3)])
    assert L.phi == pytest.approx(scale ** 4, rel=1e-14)
    x = r.standard_normal((3, 2, 4, 3))
    for half in (False, True):
        back = L.inverse(L.forward(x, half=half), half=half)
        assert frobenius_norm(back - x) <= 1e-13 * frobenius_norm(x)


def test_explicit_rejects_singular_matrix():
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(ValueError, match="singular"):
        Transform.explicit([singular])


@pytest.mark.parametrize("bad", [np.diag([1.0, np.inf, 1.0]), np.full((3, 3), np.nan)])
def test_explicit_rejects_non_finite_matrix(bad):
    # diag(1, inf, 1) was accepted with phi = nan; all-NaN failed in the SVD
    with pytest.raises(ValueError, match="matrix of mode 4 has non-finite entries"):
        Transform.explicit([np.eye(2), bad])


def test_explicit_rejects_empty_matrix():
    with pytest.raises(ValueError, match="transform matrix of mode 4 is empty"):
        Transform.explicit([np.eye(2), np.zeros((0, 0))])


def test_explicit_rejects_non_scaled_unitary():
    with pytest.raises(ValueError, match="unitary up to scale"):
        Transform.explicit([np.diag([1.0, 2.0])])


def test_shape_mismatch_errors():
    L = Transform.dft((4,))
    with pytest.raises(ValueError):
        L.forward(np.zeros((2, 2, 5)))
    with pytest.raises(ValueError):
        L.inverse(np.zeros((2, 2, 5), dtype=complex))


def test_inverse_flags_inconsistent_input():
    # a transform-domain tensor without conjugate symmetry cannot be real
    L = Transform.dft((3,))
    bad = rng().standard_normal((2, 2, 3)) + 1j * rng().standard_normal((2, 2, 3))
    with pytest.raises(ImaginaryResidueError):
        real_part(L.inverse(bad))


def test_real_part_threshold():
    x = np.ones((2, 2, 2)) + 1e-12j
    assert real_part(x).dtype == np.float64
    with pytest.raises(ImaginaryResidueError):
        real_part(np.ones((2, 2, 2)) + 1e-4j)


def test_real_part_of_a_real_array_is_the_array_as_float64():
    x = np.asfortranarray(np.arange(8, dtype=np.float32).reshape(2, 2, 2))
    got = real_part(x)
    assert got.dtype == np.float64 and got.flags.f_contiguous
    assert np.array_equal(got, x)
    y = np.asfortranarray(rng().standard_normal((2, 3, 2)))
    assert real_part(y) is y  # nothing to drop: no copy


# half-spectrum form: the kept slices of a real tensor's DFT

HALF_SHAPES = [(3, 4, 5), (3, 4, 6), (3, 4, 1), (3, 4, 2),
               (2, 3, 4, 5), (2, 3, 3, 6), (2, 3, 5, 1), (2, 3, 3, 2),
               (2, 2, 3, 2, 5), (2, 2, 2, 3, 4), (2, 2, 3, 3, 1), (2, 2, 4, 3, 2),
               # mode 3 block by block: a partly kept block, a wholly dropped
               # block and an even last mode whose Nyquist row is its own mirror
               (2, 2, 3, 3, 3), (2, 2, 4, 4)]


@pytest.mark.parametrize("shape", HALF_SHAPES)
def test_half_forward_matches_rfftn(shape):
    # order 3 keeps the slices of rfftn; higher orders keep one slice per
    # conjugate pair, so compare with fftn at the kept slices
    x = rng().standard_normal(shape)
    L = Transform.dft(shape[2:])
    half = L.forward(x, half=True)
    axes = tuple(range(2, x.ndim))
    ref = to_slice_stack(np.fft.fftn(x, axes=axes))[L.kept_slices]
    assert half.shape == shape[:2] + L.half_trailing
    assert frobenius_norm(to_slice_stack(half) - ref) <= 1e-13 * frobenius_norm(ref)
    if x.ndim == 3:
        rfft = np.fft.rfftn(x, axes=axes)
        assert half.shape == rfft.shape
        assert frobenius_norm(half - rfft) <= 1e-13 * frobenius_norm(rfft)
    back = L.inverse(half, half=True)
    assert back.dtype == np.float64
    assert frobenius_norm(back - x) <= 1e-12 * frobenius_norm(x)


def check_weighted_parseval_and_slice_map(L, x):
    stack = to_slice_stack(L.forward(x, half=True))
    full = to_slice_stack(L.forward(x))
    w = L.slice_weights
    assert w.shape == (stack.shape[0],) and w.sum() == full.shape[0]
    lhs = float(w @ (np.abs(stack) ** 2).sum(axis=(1, 2)))
    rhs = L.phi * frobenius_norm(x) ** 2
    assert abs(lhs - rhs) <= 1e-12 * rhs
    # every one of the J slices is a kept slice or the conjugate of one
    source, conj = L.slice_map
    assert source.shape == conj.shape == (full.shape[0],)
    assert set(source) == set(range(stack.shape[0]))
    mapped = np.where(conj[:, None, None], stack[source].conj(), stack[source])
    assert frobenius_norm(mapped - full) <= 1e-13 * frobenius_norm(full)
    # a kept slice stands for two slices exactly when its mirror is dropped
    counts = np.bincount(source, minlength=stack.shape[0])
    assert np.array_equal(counts, w)


@pytest.mark.parametrize("shape", HALF_SHAPES)
def test_half_weighted_parseval_and_slice_map(shape):
    check_weighted_parseval_and_slice_map(Transform.dft(shape[2:]),
                                          rng().standard_normal(shape))


# row-reordered DFT matrices: real-safe, but the kept slices (the smaller
# index of each conjugation orbit) are not a prefix
REORDERED = {
    "dft-4[0,1,3,2]": ((3, 2, 4), [dft_matrix(4)[[0, 1, 3, 2]]], [0, 1, 3]),
    "dft-4[3,1,2,0]": ((3, 2, 4), [dft_matrix(4)[[3, 1, 2, 0]]], [0, 2, 3]),
    # last-mode rows 0 <-> 1 and 3 <-> 4 pair up and row 2 is its own
    # mirror; on row 2 the DFT-3 pairs slices 1 <-> 2, so slice 8 is dropped
    "dft-3,dft-5[1,4,0,2,3]": ((2, 3, 3, 5), [dft_matrix(3), dft_matrix(5)[[1, 4, 0, 2, 3]]],
                               [0, 1, 2, 6, 7, 9, 10, 11]),
}


@pytest.mark.parametrize("name", sorted(REORDERED))
def test_half_spectrum_under_reordered_dft_matrices(name):
    shape, mats, kept = REORDERED[name]
    L = Transform.explicit(mats)
    x = rng().standard_normal(shape)
    assert L.half_trailing == (len(kept),)
    assert np.array_equal(L.kept_slices, kept)
    half = L.forward(x, half=True)
    full = to_slice_stack(L.forward(x))[kept]
    assert frobenius_norm(to_slice_stack(half) - full) <= 1e-13 * frobenius_norm(full)
    back = L.inverse(half, half=True)
    assert back.dtype == np.float64
    assert frobenius_norm(back - x) <= 1e-12 * frobenius_norm(x)
    check_weighted_parseval_and_slice_map(L, x)


def test_half_inverse_checks_the_self_mirrored_rows_of_a_reordered_dft():
    # kept rows 0, 2, 3: row 0 pairs with the dropped row 1, rows 2 and 3
    # are their own mirror and must stay real
    L = Transform.explicit([dft_matrix(4)[[3, 1, 2, 0]]])
    assert np.array_equal(L.slice_weights, [2, 1, 1])
    xbar = L.forward(rng().standard_normal((3, 2, 4)), half=True)
    for k in (1, 2):
        bad = xbar.copy()
        bad[:, :, k] += 0.5j
        with pytest.raises(ImaginaryResidueError):
            L.inverse(bad, half=True)
    xbar[:, :, 0] += 0.5j
    back = L.inverse(xbar, half=True)
    assert np.allclose(L.forward(back, half=True), xbar, atol=1e-12)


def test_explicit_transform_half_spectrum_follows_conjugation_orbits():
    # explicit DFT matrices pair their slices as the DFT does
    x = rng().standard_normal((3, 2, 4, 3))
    L = Transform.explicit([dft_matrix(4), dft_matrix(3)])
    dft = Transform.dft((4, 3))
    assert L.half_trailing == dft.half_trailing == (7,)
    assert np.array_equal(L.kept_slices, dft.kept_slices)
    assert np.array_equal(L.slice_weights, dft.slice_weights)
    ref = dft.forward(x, half=True)
    assert frobenius_norm(L.forward(x, half=True) - ref) <= 1e-13 * frobenius_norm(ref)
    back = L.inverse(L.forward(x, half=True), half=True)
    assert back.dtype == np.float64
    assert frobenius_norm(back - x) <= 1e-12 * frobenius_norm(x)
    # every row of a real matrix is its own mirror: all J slices are kept
    # at weight 1, and the imaginary residue is checked on all of them
    q, _ = np.linalg.qr(rng().standard_normal((3, 3)))
    R = Transform.explicit([np.array([[1.0, 1.0], [1.0, -1.0]]), q])
    assert R.half_trailing == (6,)
    assert np.array_equal(R.kept_slices, np.arange(6))
    assert np.array_equal(R.slice_weights, np.ones(6))
    source, conj = R.slice_map
    assert np.array_equal(source, np.arange(6)) and not conj.any()
    x = rng().standard_normal((3, 2, 2, 3))
    assert np.array_equal(to_slice_stack(R.forward(x, half=True)),
                          to_slice_stack(R.forward(x)))
    back = R.inverse(R.forward(x, half=True), half=True)
    assert back.dtype == np.float64
    assert frobenius_norm(back - x) <= 1e-12 * frobenius_norm(x)
    with pytest.raises(ImaginaryResidueError):
        R.inverse(R.forward(x, half=True) + 0.5j, half=True)


@pytest.mark.parametrize("mats", [
    [np.eye(3), np.diag([1.0, 1j])],   # last mode not real-safe
    [np.diag([1.0, 1j]), np.eye(3)],   # an earlier mode not real-safe
])
def test_half_spectrum_rejects_transform_that_is_not_real_safe(mats):
    L = Transform.explicit(mats)
    x = rng().standard_normal((2, 2) + L.trailing)
    for half_form in (lambda: L.forward(x, half=True), lambda: L.half_trailing,
                      lambda: L.slice_weights, lambda: L.kept_slices,
                      lambda: L.inverse(L.forward(x), half=True)):
        with pytest.raises(ValueError, match="real-safe"):
            half_form()


def test_explicit_real_safe_means_conjugation_permutes_rows():
    assert Transform.explicit([dft_matrix(5)]).real_safe
    assert Transform.explicit([dft_matrix(4, normalized=True)]).real_safe
    assert Transform.explicit([np.array([[1.0, 1.0], [1.0, -1.0]])]).real_safe
    # a unitary phase matrix: conjugation is not a row permutation
    assert not Transform.explicit([np.diag([1.0, 1j])]).real_safe
    assert not Transform.explicit([np.eye(3), np.diag([1.0, 1j])]).real_safe


@pytest.mark.parametrize("trailing", [(5,), (6,), (3, 4), (4, 5), (2, 3, 4), (3, 2, 5)])
def test_mirror_is_the_dft_mirror_slice(trailing):
    L = Transform.dft(trailing)
    shape = (1, 1) + trailing
    expected = [np.ravel_multi_index(dft_mirror_index(linear_to_slice(j, shape), trailing),
                                     trailing, order="F")
                for j in range(int(np.prod(trailing)))]
    assert np.array_equal(L.mirror, expected)


def test_explicit_mirror_pairs_the_conjugate_slices():
    x = rng().standard_normal((3, 2, 3, 4))
    L = Transform.explicit([dft_matrix(3), dft_matrix(4, normalized=True)])
    assert np.array_equal(L.mirror, Transform.dft((3, 4)).mirror)
    full = to_slice_stack(L.forward(x))
    assert frobenius_norm(full[L.mirror] - full.conj()) <= 1e-13 * frobenius_norm(full)
    # conjugating a real matrix permutes nothing: every slice is its own mirror
    q, _ = np.linalg.qr(rng().standard_normal((4, 4)))
    real = Transform.explicit([np.array([[1.0, 1.0], [1.0, -1.0]]), q])
    assert np.array_equal(real.mirror, np.arange(8))
    with pytest.raises(ValueError, match="real-safe"):
        Transform.explicit([np.diag([1.0, 1j])]).mirror


@pytest.mark.parametrize("trailing,pair", [
    ((5,), [(0,)]),                      # the real DC slice
    ((6,), [(3,)]),                      # the real Nyquist slice
    ((3, 4), [(1, 0), (2, 0)]),          # mirror pair, i4 = 0 plane
    ((3, 4), [(1, 2), (2, 2)]),          # mirror pair, i4 = I4/2 plane
])
def test_half_inverse_checks_stored_mirror_pairs(trailing, pair):
    # only a slice that is its own mirror can break the symmetry: of a
    # mirror pair one slice is stored, and the inverse conjugates it into
    # the other, so any change to it is the transform of some real tensor
    shape = (3, 2) + trailing
    L = Transform.dft(trailing)
    slices = [np.ravel_multi_index(i, trailing, order="F") for i in pair]
    k = int(np.searchsorted(L.kept_slices, slices[0]))
    assert L.kept_slices[k] == slices[0]
    xbar = L.forward(rng().standard_normal(shape), half=True)
    xbar[:, :, k] += 0.5j
    if len(pair) == 1:
        with pytest.raises(ImaginaryResidueError):
            L.inverse(xbar, half=True)
        return
    assert slices[1] not in L.kept_slices
    full = to_slice_stack(L.forward(L.inverse(xbar, half=True)))
    assert np.allclose(full[slices[0]], xbar[:, :, k], atol=1e-12)
    assert np.allclose(full[slices[1]], xbar[:, :, k].conj(), atol=1e-12)


def test_half_inverse_unchecked_on_slices_with_dropped_mirror():
    # a slice whose mirror is dropped is real by construction: any value is
    # the transform of some real tensor
    shape = (3, 2, 3, 4)
    L = Transform.dft(shape[2:])
    xbar = L.forward(rng().standard_normal(shape), half=True)
    unchecked = np.flatnonzero(L.slice_weights == 2)
    assert unchecked.size == 5
    xbar[:, :, unchecked] += 0.5j
    back = L.inverse(xbar, half=True)
    assert np.allclose(L.forward(back, half=True), xbar, atol=1e-12)


def orthogonal(n, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return q


def phased_dft(n, seed):
    """diag(e^{i theta}) F with theta_{-i} = -theta_i: real-safe."""
    theta = np.random.default_rng(seed).standard_normal(n)
    theta = (theta - theta[-np.arange(n) % n]) / 2
    return np.exp(1j * theta)[:, None] * dft_matrix(n)


# every real-safe kind of transform: the DFT, row-reordered and phased DFT
# matrices, real orthogonal matrices and mixtures of them
ORBIT_TRANSFORMS = {
    **{"dft-" + "x".join(map(str, s[2:])): Transform.dft(s[2:]) for s in HALF_SHAPES},
    **{name: Transform.explicit(mats) for name, (_, mats, _) in REORDERED.items()},
    "phased-5x4": Transform.explicit([phased_dft(5, 1), phased_dft(4, 2)]),
    "phased-3x2x4": Transform.explicit([phased_dft(3, 3), phased_dft(2, 4), phased_dft(4, 5)]),
    "orthogonal-4x3": Transform.explicit([orthogonal(4, 6), orthogonal(3, 7)]),
    "dft-4,orthogonal-3": Transform.explicit([dft_matrix(4), orthogonal(3, 8)]),
    "orthogonal-2,dft-5": Transform.explicit([orthogonal(2, 9), dft_matrix(5)]),
}


@pytest.mark.parametrize("name", ORBIT_TRANSFORMS)
def test_one_kept_slice_per_conjugation_orbit(name):
    L = ORBIT_TRANSFORMS[name]
    j = int(np.prod(L.trailing))
    kept, mirror = L.kept_slices, L.mirror
    # one slice of each orbit: never a slice together with its mirror
    assert np.array_equal(np.union1d(kept, mirror[kept]), np.arange(j))
    assert np.array_equal(np.intersect1d(kept, mirror[kept]), kept[mirror[kept] == kept])
    assert L.slice_weights.sum() == j
    x = rng().standard_normal((3, 2) + L.trailing)
    half = L.forward(x, half=True)
    full = to_slice_stack(L.forward(x))
    assert frobenius_norm(to_slice_stack(half) - full[kept]) <= 1e-13 * frobenius_norm(full)
    assert frobenius_norm(L.inverse(half, half=True) - x) <= 1e-12 * frobenius_norm(x)
    # an imaginary part on a slice that is its own mirror is no transform
    # of a real tensor
    own = np.flatnonzero(L.slice_weights == 1)
    assert own.size
    for k in own[[0, -1]]:
        bad = half.copy()
        bad[:, :, k] += 0.5j
        with pytest.raises(ImaginaryResidueError):
            L.inverse(bad, half=True)


def _raises_residue(call, *args, **kwargs) -> bool:
    try:
        call(*args, **kwargs)
    except ImaginaryResidueError:
        return True
    return False


@pytest.mark.parametrize("name", ORBIT_TRANSFORMS)
def test_half_inverse_weighs_a_self_mirrored_residue_by_one_over_phi(name):
    # every accepted matrix is unitary up to scale, so the inverse column of
    # a self-mirrored slice has squared norm 1/phi: an imaginary part sized
    # at half and at twice the residue threshold of the full inverse must
    # fail the half inverse exactly when it fails the full one
    L = ORBIT_TRANSFORMS[name]
    shape = (3, 2) + L.trailing
    x = rng().standard_normal(shape)
    source, conj = L.slice_map
    own = np.flatnonzero(L.slice_weights == 1)
    # an imaginary part that puts RESIDUE_TOL * ||x|| into the full inverse
    noise = rng().standard_normal(shape[:2])
    noise *= RESIDUE_TOL * np.sqrt(L.phi) * frobenius_norm(x) / np.linalg.norm(noise)
    for k in own[[0, -1]]:
        for factor, raises in ((0.5, False), (2.0, True)):
            half = L.forward(x, half=True)
            half[:, :, k] += 1j * factor * noise
            stack = to_slice_stack(half)[source]
            stack[conj] = stack[conj].conj()
            full = L.inverse(from_slice_stack(stack, shape))
            outcomes = [_raises_residue(real_part, full),
                        _raises_residue(L.inverse, half, half=True)]
            assert outcomes == [raises, raises], (k, factor)


@pytest.mark.parametrize("name", ORBIT_TRANSFORMS)
def test_half_inverse_takes_no_norm_of_an_exactly_real_residue(monkeypatch, name):
    # a residue of exactly 0 passes against any norm, so the half inverse
    # skips the output's norm; any nonzero residue, however small, is still
    # weighed against it (the test above: rejected above RESIDUE_TOL only)
    L = ORBIT_TRANSFORMS[name]
    x = rng().standard_normal((3, 2) + L.trailing)
    half = L.forward(x, half=True)
    tiny = half.copy()
    tiny[:, :, np.flatnonzero(L.slice_weights == 1)[0]] += 1e-3j * RESIDUE_TOL

    def no_norm(*args, **kwargs):
        raise AssertionError("norm taken")

    monkeypatch.setattr(np.linalg, "norm", no_norm)
    assert np.allclose(L.inverse(half, half=True), x, rtol=0, atol=1e-12)
    with pytest.raises(AssertionError, match="norm taken"):
        L.inverse(tiny, half=True)
    monkeypatch.undo()
    assert np.allclose(L.inverse(tiny, half=True), x, rtol=0, atol=1e-12)


# DFT trailing shapes with an even mode, whose self-mirrored slices pick up
# imaginary roundoff in the mode products, and DFT matrices in other row
# orders or with phases
EXACTLY_REAL = {
    **{"dft-" + "x".join(map(str, t)): Transform.dft(t)
       for t in [(6,), (3, 10), (4, 4), (2, 3, 4)]},
    **{name: Transform.explicit(mats) for name, (_, mats, _) in REORDERED.items()
       if name.startswith("dft-4")},
    "dft-3,dft-4[3,1,2,0]": Transform.explicit([dft_matrix(3), dft_matrix(4)[[3, 1, 2, 0]]]),
    "phased-5x4": ORBIT_TRANSFORMS["phased-5x4"],
    "phased-3x2x4": ORBIT_TRANSFORMS["phased-3x2x4"],
}


@pytest.mark.parametrize("name", EXACTLY_REAL)
def test_half_forward_self_mirrored_slices_exactly_real(name):
    # a slice that is its own mirror is a real matrix: forward drops the
    # imaginary roundoff, and only that, and leaves its input alone
    L = EXACTLY_REAL[name]
    x = rng().standard_normal((4, 3) + L.trailing)
    before = x.copy()
    half = to_slice_stack(L.forward(x, half=True))
    full = to_slice_stack(L.forward(x))[L.kept_slices]
    own = L.slice_weights == 1
    assert own.any() and np.all(half[own].imag == 0)
    assert np.linalg.norm(half - full) <= 1e-13 * np.linalg.norm(full)
    assert np.array_equal(x, before)


@pytest.mark.parametrize("trailing", [(4,), (5, 5), (3, 3, 3)])
@pytest.mark.parametrize("sides", [(0, 3), (3, 0), (0, 0)])
def test_half_transforms_of_an_empty_first_or_second_mode(sides, trailing):
    # a reshape to -1 columns failed on these: "cannot reshape array of size 0"
    L = Transform.dft(trailing)
    x = np.zeros(sides + trailing)
    half = L.forward(x, half=True)
    assert half.shape == sides + L.half_trailing
    back = L.inverse(half, half=True)
    assert back.dtype == np.float64 and back.shape == x.shape


def test_half_form_rejects_complex_input_and_full_shape():
    with pytest.raises(ValueError, match="real"):
        Transform.dft((4,)).forward(np.ones((2, 2, 4), dtype=complex), half=True)
    with pytest.raises(ValueError):
        Transform.dft((4,)).inverse(np.zeros((2, 2, 4), dtype=complex), half=True)


def test_half_forward_allocates_little_beyond_its_output():
    # the real product is written straight into the complex output and mode
    # 3 straight into the kept slices: no parts array, no gather
    x = np.asfortranarray(rng().standard_normal((50, 50, 50)))
    L = Transform.dft((50,))
    L.forward(x, half=True)  # caches the kept-slice tables
    tracemalloc.start()
    try:
        out = L.forward(x, half=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * out.nbytes
