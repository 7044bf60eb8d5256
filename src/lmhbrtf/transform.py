"""Invertible linear transforms along modes 3..d and their energy constant.

The default transform is the unnormalized DFT applied along every mode
beyond the first two (forward has no scaling, the inverse carries the
1/N factor per mode), for which the energy constant phi equals
I3 * ... * Id.  Explicit matrix transforms are supported but restricted
to scaled-unitary matrices so that phi is well defined.

Both kinds run on one kernel: a product with one small dense matrix per
trailing mode, done as a BLAS matrix product on a reshaped view of the
column-major data.  A sweep over all trailing modes costs
O(I1 * I2 * J * (I3 + ... + Id)) operations, where J = I3 * ... * Id,
and O(I3^2 + ... + Id^2) memory for the matrices; no J x J matrix is
ever formed.

The slices of a real tensor's DFT come in conjugate-mirrored pairs, so
only the first floor(Id / 2) + 1 indices of the last trailing mode (the
slice set of ``numpy.fft.rfftn``) are independent.  ``forward(x,
half=True)`` returns just these and ``inverse(..., half=True)`` is the
exact complex-to-real inverse; :attr:`Transform.slice_weights` counts
how many of the J slices each kept slice stands for and
:attr:`Transform.slice_map` says where each of the J slices is kept.
An explicit transform keeps all J slices at weight 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ImaginaryResidueError

__all__ = ["Transform", "real_part", "real_if_close", "mirror_slice", "mirror_map"]

_RCOND_MIN = 1e-10
_SCALE_TOL = 1e-8


def _check_residue(residue: float, real_norm: float, rel_tol: float) -> None:
    total = math.hypot(real_norm, residue)
    if residue > rel_tol * total:
        raise ImaginaryResidueError(
            f"imaginary residue {residue:.3e} exceeds {rel_tol:g} * {total:.3e}"
        )


def real_part(x: np.ndarray, rel_tol: float = 1e-8) -> np.ndarray:
    """Drop the imaginary part after checking it is negligible.

    The check is relative in the Frobenius norm; failure signals an
    inconsistent input (for a DFT-domain tensor: broken conjugate
    symmetry) rather than roundoff.  The result keeps the memory
    layout of *x*.
    """
    if not np.iscomplexobj(x):
        return np.asarray(x, dtype=np.float64)
    out = x.real.copy(order="K")
    _check_residue(float(np.linalg.norm(x.imag)), float(np.linalg.norm(out)),
                   rel_tol)
    return out


def real_if_close(x: np.ndarray, rel_tol: float = 1e-8) -> np.ndarray:
    """Like :func:`real_part` but returns *x* unchanged when it is genuinely complex."""
    try:
        return real_part(x, rel_tol)
    except ImaginaryResidueError:
        return x


def _dft_matrix(n: int) -> np.ndarray:
    k = np.arange(n)
    # reduce the exponent mod n first: exact integers keep the angles accurate
    return np.exp(-2j * np.pi * (np.outer(k, k) % n) / n)


def _mode_product(flat: np.ndarray, shape: tuple, axis: int, m: np.ndarray):
    """Multiply mode *axis* of a column-major tensor by the matrix *m*.

    *flat* holds the tensor of the given *shape* in column-major order.
    Viewed as a C-ordered (after, I_axis, before) array, the product is
    one batched matrix product with *m* on the left.  Returns the flat
    complex128 result and its shape.
    """
    rows = m.shape[0]
    x = flat.reshape(math.prod(shape[axis + 1:]), shape[axis],
                     math.prod(shape[:axis]))
    if np.iscomplexobj(x):
        out = np.matmul(m, x)
    else:
        # real data: one real product with the stacked real and imaginary
        # parts of m does the work of a complex product at half the cost
        parts = np.matmul(np.concatenate([m.real, m.imag]), x)
        out = np.empty((x.shape[0], rows, x.shape[2]), dtype=np.complex128)
        out.real = parts[:, :rows]
        out.imag = parts[:, rows:]
    return out.reshape(-1), shape[:axis] + (rows,) + shape[axis + 1:]


@dataclass(frozen=True, eq=False)  # array fields: compare by identity
class Transform:
    """The invertible linear transform L applied along modes 3..d.

    Attributes:
        kind: "dft" or "explicit".
        trailing: sizes (I3, ..., Id) the transform acts on.
        matrices: one matrix per trailing mode (for "dft" the
            unnormalized DFT matrices).
        phi: energy constant relating original- and transform-domain
            squared Frobenius norms.
        real_safe: True when L maps real tensors to transforms whose
            round trips (and products of transforms of real tensors)
            are real again, i.e. when conjugating each matrix only
            permutes its rows.
    """

    kind: str
    trailing: tuple
    phi: float
    real_safe: bool
    matrices: tuple = field(default=(), repr=False)
    _inverses: tuple = field(default=(), repr=False)

    @classmethod
    def dft(cls, trailing) -> "Transform":
        """Unnormalized DFT along each trailing mode; phi = prod(trailing)."""
        trailing = tuple(int(n) for n in trailing)
        if len(trailing) < 1 or any(n < 1 for n in trailing):
            raise ValueError(f"invalid trailing shape {trailing}")
        mats = tuple(_dft_matrix(n) for n in trailing)
        return cls(kind="dft", trailing=trailing,
                   phi=float(np.prod(trailing)), real_safe=True,
                   matrices=mats,
                   _inverses=tuple(m.conj() / m.shape[0] for m in mats))

    @classmethod
    def explicit(cls, matrices) -> "Transform":
        """Transform given by one invertible matrix per trailing mode.

        Each matrix must be square, numerically invertible (reciprocal
        condition number above 1e-10) and unitary up to a positive
        scale c (U^H U = c I); the product of the scales is phi.
        """
        mats = tuple(np.asarray(m, dtype=np.complex128) for m in matrices)
        if not mats:
            raise ValueError("explicit transform needs at least one matrix")
        phi = 1.0
        inverses = []
        real_safe = True
        for m in mats:
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"transform matrix must be square, got {m.shape}")
            n = m.shape[0]
            sv = np.linalg.svd(m, compute_uv=False)
            if sv[0] == 0 or sv[-1] / sv[0] < _RCOND_MIN:
                raise ValueError(
                    f"transform matrix is numerically singular "
                    f"(rcond {0.0 if sv[0] == 0 else sv[-1] / sv[0]:.2e})"
                )
            gram = m.conj().T @ m
            c = float(np.trace(gram).real) / n
            if c <= 0 or np.linalg.norm(gram - c * np.eye(n)) > _SCALE_TOL * c * np.sqrt(n):
                raise ValueError(
                    "transform matrix is not unitary up to scale; "
                    "the energy constant phi would be undefined"
                )
            phi *= c
            inverses.append(np.linalg.inv(m))
            # conj(m) = q m; real results need q to be a permutation
            q = m.conj() @ m.conj().T / c
            p = np.abs(q).argmax(axis=1)
            real_safe = (real_safe
                         and np.array_equal(np.sort(p), np.arange(n))
                         and np.linalg.norm(q - np.eye(n)[p]) <= _SCALE_TOL * np.sqrt(n))
        return cls(kind="explicit", trailing=tuple(m.shape[0] for m in mats),
                   phi=phi, real_safe=bool(real_safe), matrices=mats,
                   _inverses=tuple(inverses))

    @property
    def _kept(self) -> int:
        """How many indices of the last trailing mode the half-spectrum form keeps."""
        n = self.trailing[-1]
        return n // 2 + 1 if self.kind == "dft" else n

    @property
    def half_trailing(self) -> tuple:
        """Trailing shape of ``forward(x, half=True)``."""
        return self.trailing[:-1] + (self._kept,)

    @property
    def _last_weights(self) -> np.ndarray:
        # a kept DFT index stands for itself and its dropped mirror n - i,
        # unless it is its own mirror (i = 0 or i = n/2)
        i = np.arange(self._kept)
        if self.kind != "dft":
            return np.ones(i.size)
        return np.where((2 * i) % self.trailing[-1] == 0, 1.0, 2.0)

    @cached_property
    def slice_weights(self) -> np.ndarray:
        """How many of the J slices each kept slice stands for (1 or 2).

        With these, sum_k w_k ||Xbar_k||_F^2 = phi * ||X||_F^2 for a
        real X, where Xbar = forward(X, half=True).
        """
        return np.repeat(self._last_weights, math.prod(self.trailing[:-1]))

    @cached_property
    def slice_map(self) -> tuple:
        """Where each of the J slices of a real tensor's transform is kept.

        Returns ``(source, conj)``: slice j (linear index) equals kept
        slice ``source[j]``, conjugated where ``conj[j]`` is True.
        """
        idx = np.indices(self.trailing).reshape(len(self.trailing), -1, order="F")
        dropped = idx[-1] >= self._kept
        if self.kind == "dft":
            mirror = -idx % np.array(self.trailing)[:, None]
            idx = np.where(dropped, mirror, idx)
        source = np.ravel_multi_index(tuple(idx), self.half_trailing, order="F")
        return source, dropped

    @cached_property
    def _c2r(self) -> np.ndarray:
        # x = Re(G z) over the kept rows z of the last mode, with G the
        # inverse DFT's kept columns times their weights; as one real
        # product with the stacked parts [Re z; Im z] this is [Re G, -Im G]
        g = self._inverses[-1][:, :self._kept] * self._last_weights
        return np.concatenate([g.real, -g.imag], axis=1)

    def _check_shape(self, x: np.ndarray, trailing: tuple) -> None:
        if x.ndim != 2 + len(trailing) or x.shape[2:] != trailing:
            raise ValueError(
                f"tensor shape {x.shape} does not match transform trailing "
                f"shape {trailing}"
            )

    def forward(self, x: np.ndarray, half: bool = False) -> np.ndarray:
        """Apply L along modes 3..d; the result is complex128.

        With ``half`` the input must be real and only the kept indices
        of the last trailing mode are computed (shape
        :attr:`half_trailing` beyond the first two modes).
        """
        x = np.asarray(x)
        self._check_shape(x, self.trailing)
        if half and np.iscomplexobj(x):
            raise ValueError("the half-spectrum transform needs a real tensor")
        dtype = np.complex128 if np.iscomplexobj(x) else np.float64
        flat, shape = np.ravel(x, order="F").astype(dtype, copy=False), x.shape
        last = x.ndim - 1
        for axis in range(last, 1, -1):
            m = self.matrices[axis - 2]
            if half and axis == last:
                m = m[:self._kept]
            flat, shape = _mode_product(flat, shape, axis, m)
        return flat.reshape(shape, order="F")

    def inverse(self, xbar: np.ndarray, assert_real: bool = False,
                rel_tol: float = 1e-8, half: bool = False) -> np.ndarray:
        """Apply L^-1 along modes 3..d.

        With ``assert_real`` the imaginary residue is checked against
        *rel_tol* (relative Frobenius) and dropped; a residue above the
        threshold raises :class:`ImaginaryResidueError`.

        With ``half`` the input holds the kept slices of a real tensor's
        transform, as returned by ``forward(x, half=True)``, and the
        result is real: the exact complex-to-real inverse.  Slices kept
        together with their mirror (the planes id = 0 and id = Id/2) are
        not conjugate-symmetric by construction, so ``assert_real`` still
        checks the imaginary residue the full inverse would have there.
        """
        xbar = np.asarray(xbar)
        self._check_shape(xbar, self.half_trailing if half else self.trailing)
        flat = np.ravel(xbar, order="F").astype(np.complex128, copy=False)
        shape = xbar.shape
        last = xbar.ndim - 1
        for axis in range(2, last):
            flat, shape = _mode_product(flat, shape, axis, self._inverses[axis - 2])
        if half and self.kind == "dft":
            z = flat.reshape(self._kept, -1)
            out = (self._c2r @ np.concatenate([z.real, z.imag])).reshape(-1)
            out = out.reshape(shape[:last] + self.trailing[-1:], order="F")
            if assert_real:
                # only self-paired rows (weight 1) add an imaginary part to
                # the full inverse: (Im z_0 + (-1)^t Im z_{n/2}) / n; the
                # strided dot products copy no row
                sq = sum(float(np.dot(z[i].imag, z[i].imag))
                         for i in np.flatnonzero(self._last_weights == 1))
                residue = math.sqrt(sq / self.trailing[-1])
                _check_residue(residue, float(np.linalg.norm(out)), rel_tol)
            return out
        flat, shape = _mode_product(flat, shape, last, self._inverses[-1])
        out = flat.reshape(shape, order="F")
        if assert_real:
            return real_part(out, rel_tol)
        return out.real.copy(order="K") if half else out


def mirror_slice(index, trailing) -> tuple:
    """Trailing index whose DFT slice is the conjugate of the given one.

    Per mode, index 0 maps to itself and i > 0 maps to I - i.
    """
    return tuple((n - i) % n for i, n in zip(index, trailing))


def mirror_map(trailing) -> np.ndarray:
    """Linear index of the mirror (:func:`mirror_slice`) of each of the J slices."""
    trailing = tuple(int(n) for n in trailing)
    idx = np.indices(trailing).reshape(len(trailing), -1, order="F")
    mirror = -idx % np.array(trailing)[:, None]
    return np.ravel_multi_index(tuple(mirror), trailing, order="F")
