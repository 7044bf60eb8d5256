"""Invertible linear transforms along modes 3..d and their energy constant.

The default transform is the unnormalized DFT applied along every mode
beyond the first two (forward has no scaling, the inverse carries the
1/N factor per mode), for which the energy constant phi equals
I3 * ... * Id.  Explicit matrix transforms are supported but restricted
to scaled-unitary matrices so that phi is well defined.

Every transform is derived from its matrices alone, in ``Transform.__init__``
(:meth:`Transform.dft` passes the DFT matrices, :meth:`Transform.explicit`
the caller's): each matrix M is unitary up to a scale c, phi is the
product of the scales, M^-1 = M^H / c, p has conj(M) = M[p] (or is None),
and the mixer M^-1 conj(M) is p's permutation matrix where M[p] = M[:, p]
exactly (p is an involution), else M^H conj(M) / c.

Every transform runs on one kernel: a product with one small dense matrix per
trailing mode, done as a BLAS matrix product on a reshaped view of the
column-major data.  A sweep over all trailing modes costs
O(I1 * I2 * J * (I3 + ... + Id)) operations, where J = I3 * ... * Id,
and O(I3^2 + ... + Id^2) memory for the matrices; no J x J matrix is
ever formed.

Under a real-safe transform the slices of a real tensor's transform
pair up under conjugation.  The transform stores one conjugation
permutation p per trailing mode (i -> -i mod I_k for the DFT, the row
permutation that conjugation applies to an explicit matrix), and
:attr:`Transform.mirror` combines them into the conjugate of each of the
J slices; every per-slice rank of a real tensor is checked against it.

The half spectrum keeps one slice per orbit of the mirror, the one with
the smaller linear index (:attr:`Transform.kept_slices`), so a real
tensor's kept slices determine all J and conjugate symmetry holds by
construction.  ``forward(x, half=True)`` computes the last mode on its
kept rows (the i with i <= p[i]), then mode 3 by blocks of I3 slices
straight into the kept slices, never computing a dropped one;
``inverse(xbar, half=True)`` reads mode 3's blocks where they lie in the
kept slices, assembling with conjugates only the blocks that hold a
dropped slice, and ends with the exact complex-to-real inverse of the
last mode.  :attr:`Transform.slice_weights` (1 for a slice that is its
own mirror, else 2) and :attr:`Transform.slice_map` relate the kept
slices to the J slices.  A slice that is its own mirror is a real
matrix, and ``forward(x, half=True)`` returns it with an imaginary part
of exactly 0: only then are its singular vectors real where they are not
unique (a repeated or zero singular value), and every product of such
slices stays exactly real.

For every invertible transform, real-safe or not, the transform also
stores the mixer C_k = M_k^-1 conj(M_k) per trailing mode.  Sweeping these
over the conjugated, mode-1/2-swapped tensor gives its tensor conjugate
transpose (``tsvd.conj_transpose``): L(x^H) = L(x)^H slice by slice.
Under the DFT each C_k is the permutation i -> -i mod I_k.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import ImaginaryResidueError, SettingError, _check_number

__all__ = ["Transform", "real_part"]

_SCALE_TOL = 1e-8
# largest imaginary residue, relative in the Frobenius norm, dropped as roundoff
RESIDUE_TOL = 1e-8


def _check_residue(residue: float, real_norm: float) -> None:
    total = math.hypot(real_norm, residue)
    if residue > RESIDUE_TOL * total:
        raise ImaginaryResidueError(
            f"imaginary residue {residue:.3e} exceeds {RESIDUE_TOL:g} * {total:.3e}"
        )


def real_part(x: np.ndarray) -> np.ndarray:
    """Drop the imaginary part after checking it is negligible.

    The check is relative in the Frobenius norm (:data:`RESIDUE_TOL`);
    failure signals an inconsistent input (for a DFT-domain tensor:
    broken conjugate symmetry) rather than roundoff.  The result keeps
    the memory layout of *x*.
    """
    if not np.iscomplexobj(x):
        return np.asarray(x, dtype=np.float64)
    out = x.real.copy(order="K")
    _check_residue(float(np.linalg.norm(x.imag)), float(np.linalg.norm(out)))
    return out


def _check_trailing(trailing) -> tuple:
    """*trailing* as a tuple of plain ints, each the size of a trailing mode
    and at least 1, or a SettingError naming the mode."""
    return tuple(_check_number(f"size of trailing mode {mode}", n, 1, integer=True)
                 for mode, n in enumerate(trailing, 3))


def _dft_matrix(n: int) -> np.ndarray:
    k = np.arange(n)
    # reduce the exponent mod n first: exact integers keep the angles accurate
    return np.exp(-2j * np.pi * (np.outer(k, k) % n) / n)


def _product(m: np.ndarray, x: np.ndarray, out: np.ndarray):
    """Write the stacked product ``m @ x`` into the complex128 array *out*.

    A real *x* takes one real product with the real and imaginary parts
    of each row of *m*, half the cost of a complex product, written
    straight into the parts of *out* (whose last axis is contiguous).
    """
    if np.iscomplexobj(x):
        return np.matmul(m, x, out=out)
    parts = out.view(np.float64).reshape(out.shape + (2,)).swapaxes(-1, -2)
    return np.matmul(np.stack([m.real, m.imag], axis=1), x[..., None, :, :], out=parts)


def _mode_product(flat: np.ndarray, shape: tuple, axis: int, m: np.ndarray):
    """Multiply mode *axis* of a column-major tensor by the matrix *m*.

    *flat* holds the tensor of the given *shape* in column-major order.
    Viewed as a C-ordered (after, I_axis, before) array, the product is
    one batched matrix product with *m* on the left.  Returns the flat
    complex128 result and its shape.
    """
    x = flat.reshape(math.prod(shape[axis + 1:]), shape[axis],
                     math.prod(shape[:axis]))
    out = np.empty((x.shape[0], m.shape[0], x.shape[2]), dtype=np.complex128)
    _product(m, x, out)
    return out.reshape(-1), shape[:axis] + m.shape[:1] + shape[axis + 1:]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Frozen:
    """Base of immutable objects: ``__init__`` sets every attribute once,
    through ``vars(self)``; ``functools.cached_property`` still caches."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Transform(_Frozen):
    """The invertible linear transform L applied along modes 3..d.

    Attributes:
        matrices: one matrix per trailing mode (for :meth:`dft` the
            unnormalized DFT matrices).
        phi: energy constant relating original- and transform-domain
            squared Frobenius norms.

    A transform is immutable: no field can be reassigned and every array it
    holds or exposes is read-only, so nothing it caches can go stale.
    Build one with :meth:`dft` or :meth:`explicit`.
    """

    def __init__(self, matrices):
        # the one derivation of every field (see the module docstring)
        matrices = tuple(matrices)
        if not matrices:
            raise SettingError("a transform needs at least one trailing mode")
        phi, inverses, perms, mixers = 1.0, [], [], []
        for mode, m in enumerate(matrices, 3):
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise SettingError(f"transform matrix must be square, got {m.shape}")
            if not np.isfinite(m).all():
                raise SettingError(f"transform matrix of mode {mode} has non-finite "
                                   "entries")
            n = m.shape[0]
            if n == 0:
                raise SettingError(f"transform matrix of mode {mode} is empty")
            # passing puts every squared singular value within
            # c (1 +- 1e-8 sqrt(n)), so a matrix that passes is far from singular
            mh = m.conj().T
            gram = mh @ m
            c = float(np.trace(gram).real) / n
            if c <= 0 or np.linalg.norm(gram - c * np.eye(n)) > _SCALE_TOL * c * np.sqrt(n):
                raise SettingError(
                    f"transform matrix of mode {mode} is singular or not unitary "
                    "up to scale; the energy constant phi would be undefined"
                )
            phi *= c
            inverses.append(np.ascontiguousarray(mh) / c)
            # conj(m) = q m; real results need q to be a permutation
            q = m.conj() @ mh / c
            p = np.abs(q).argmax(axis=1)
            permutes = (np.array_equal(np.sort(p), np.arange(n))
                        and np.linalg.norm(q - np.eye(n)[p]) <= _SCALE_TOL * np.sqrt(n))
            perms.append(p if permutes else None)
            mixers.append(np.eye(n)[p] if permutes and np.array_equal(m[p], m[:, p])
                          else inverses[-1] @ m.conj())
        vars(self).update(phi=phi, matrices=matrices, _inverses=tuple(inverses),
                          _conj_perms=tuple(perms), _conj_mixers=tuple(mixers))
        for a in (*matrices, *inverses, *perms, *mixers):
            if a is not None:
                _read_only(a)

    def __reduce__(self):  # copies and unpickled objects are read-only, uncached
        return Transform, (self.matrices,)

    @classmethod
    def dft(cls, trailing) -> "Transform":
        """Unnormalized DFT along each trailing mode; phi = prod(trailing)."""
        return cls(_dft_matrix(n) for n in _check_trailing(trailing))

    @classmethod
    def explicit(cls, matrices) -> "Transform":
        """Transform given by one invertible matrix per trailing mode.

        Each matrix must be square, nonempty, finite and unitary up to a
        positive scale c (U^H U = c I, which makes it invertible); the
        product of the scales is phi, and the inverse is U^H / c.
        """
        # copies: the transform freezes its matrices, not the caller's
        return cls(np.array(m, dtype=np.complex128) for m in matrices)

    @cached_property
    def trailing(self) -> tuple:
        """Sizes (I3, ..., Id) the transform acts on."""
        return tuple(m.shape[0] for m in self.matrices)

    @property
    def real_safe(self) -> bool:
        """True when L maps real tensors to transforms whose round trips
        (and products of transforms of real tensors) are real again, i.e.
        when conjugating each matrix only permutes its rows."""
        return all(p is not None for p in self._conj_perms)

    @cached_property
    def mirror(self) -> np.ndarray:
        """Linear index of the conjugate of each of the J slices.

        For a real X, slice ``mirror[j]`` of L(X) is the conjugate of
        slice j.  Under the DFT each trailing index i maps to -i mod I_k;
        under a real matrix every slice is its own mirror.  A per-slice
        rank of a real tensor's transform must be equal on j and
        ``mirror[j]``.
        """
        if not self.real_safe:
            raise ValueError("conjugation does not permute the slices of a "
                             "transform that is not real-safe")
        idx = np.indices(self.trailing).reshape(len(self.trailing), -1, order="F")
        conj = tuple(p[i] for p, i in zip(self._conj_perms, idx))
        return _read_only(np.ravel_multi_index(conj, self.trailing, order="F"))

    @cached_property
    def _kept_rows(self) -> np.ndarray:
        # the smaller index of each conjugation orbit of the last mode
        if not self.real_safe:
            raise ValueError("the half spectrum needs a real-safe transform")
        p = self._conj_perms[-1]
        return np.flatnonzero(np.arange(p.size) <= p)

    @cached_property
    def kept_slices(self) -> np.ndarray:
        """Linear index among the J slices of each kept slice, ascending:
        the smaller index of each orbit of :attr:`mirror`, in the order
        ``forward(x, half=True)`` stores them."""
        return _read_only(np.flatnonzero(np.arange(self.mirror.size) <= self.mirror))

    @property
    def half_trailing(self) -> tuple:
        """Trailing shape ``(K,)`` of ``forward(x, half=True)``, K kept slices."""
        return (self.kept_slices.size,)

    @cached_property
    def slice_weights(self) -> np.ndarray:
        """How many of the J slices each kept slice stands for (1 or 2).

        With these, sum_k w_k ||Xbar_k||_F^2 = phi * ||X||_F^2 for a
        real X, where Xbar = forward(X, half=True).
        """
        kept = self.kept_slices
        return _read_only(np.where(self.mirror[kept] == kept, 1.0, 2.0))

    @cached_property
    def slice_map(self) -> tuple:
        """Where each of the J slices of a real tensor's transform is kept.

        Returns ``(source, conj)``: slice j (linear index) equals kept
        slice ``source[j]``, conjugated where ``conj[j]`` is True.  A
        dropped slice is held by its mirror, which is always kept.
        """
        position = np.full(math.prod(self.trailing), -1)
        position[self.kept_slices] = np.arange(self.kept_slices.size)
        dropped = position < 0
        return tuple(map(_read_only, (np.where(dropped, position[self.mirror], position),
                                      dropped)))

    @cached_property
    def _blocks(self) -> tuple:
        # Mode 3 of the half transforms runs by blocks of I3 consecutive slices
        # on the last mode's kept rows (the whole input under an order-3
        # transform); the kept slices lie among them in order.  Per run of
        # blocks that keep the same slices: the blocks, the rows of M3 for
        # them, where they lie, and the kept sources of all the run's slices
        # (a view when all are kept) with the positions to conjugate.
        n3 = self.trailing[0]
        j = np.arange(self.mirror.size).reshape(-1, n3)
        if len(self.trailing) > 1:
            last = j[:, 0] // math.prod(self.trailing[:-1])
            j = j[last <= self._conj_perms[-1][last]]
        kept = j <= self.mirror[j]
        source, conj = self.slice_map
        edges = [0, *np.flatnonzero((kept[1:] != kept[:-1]).any(axis=1)) + 1, len(j)]
        runs, pos = [], 0
        for start, stop in zip(edges[:-1], edges[1:]):
            sel, run = np.flatnonzero(kept[start]), j[start:stop].reshape(-1)
            dest = slice(pos, pos + (stop - start) * sel.size)
            runs.append((slice(start, stop), self.matrices[0][sel], dest,
                         dest if sel.size == n3 else source[run], np.flatnonzero(conj[run])))
            pos = dest.stop
        return tuple(runs)

    @cached_property
    def _own_mirror(self) -> np.ndarray:
        # positions among the kept slices of the slices that are their own mirror
        return np.flatnonzero(self.slice_weights == 1)

    @cached_property
    def _c2r(self) -> np.ndarray:
        # x = Re(G z) over the kept rows z of the last mode, G the inverse's
        # kept columns times their weights (2 where the mirror row is
        # dropped), in C order (the last bits depend on it); as one real
        # product with [Re z; Im z] this is [Re G, -Im G]
        rows = self._kept_rows
        weights = np.where(self._conj_perms[-1][rows] == rows, 1.0, 2.0)
        g = np.take(self._inverses[-1], rows, axis=1) * weights
        return np.concatenate([g.real, -g.imag], axis=1)

    def _check_shape(self, x: np.ndarray, half: bool = False) -> None:
        trailing = self.half_trailing if half else self.trailing
        if x.ndim != 2 + len(trailing) or x.shape[2:] != trailing:
            raise ValueError(
                f"tensor shape {x.shape} does not match transform trailing "
                f"shape {trailing}"
            )

    def forward(self, x: np.ndarray, half: bool = False) -> np.ndarray:
        """Apply L along modes 3..d; the result is complex128.

        With ``half`` the input must be real and only the kept slices are
        returned, as an (I1, I2, K) tensor (:attr:`half_trailing`): the
        last mode is computed on its kept rows, then mode 3 block by block
        straight into the kept slices, so no dropped slice is computed.
        The kept slices that are their own mirror are real in exact
        arithmetic; their imaginary roundoff is set to exactly 0.
        """
        x = np.asarray(x)
        self._check_shape(x)
        if half and np.iscomplexobj(x):
            raise ValueError("the half-spectrum transform needs a real tensor")
        dtype = np.complex128 if np.iscomplexobj(x) else np.float64
        flat, shape = np.ravel(x, order="F").astype(dtype, copy=False), x.shape
        last = x.ndim - 1
        for axis in range(last, 2 if half else 1, -1):
            m = self.matrices[axis - 2]
            if half and axis == last:
                m = m[self._kept_rows]
            flat, shape = _mode_product(flat, shape, axis, m)
        if not half:
            return flat.reshape(shape, order="F")
        blocks = flat.reshape(math.prod(shape[3:]), shape[2], shape[0] * shape[1])
        stack = np.empty((self.kept_slices.size, blocks.shape[2]), dtype=np.complex128)
        for run, m, dest, _, _ in self._blocks:
            block = blocks[run]
            _product(m, block, stack[dest].reshape(len(block), m.shape[0], block.shape[2]))
        stack.imag[self._own_mirror] = 0.0
        return stack.reshape(-1).reshape(shape[:2] + self.half_trailing, order="F")

    def inverse(self, xbar: np.ndarray, half: bool = False) -> np.ndarray:
        """Apply L^-1 along modes 3..d; the result is complex128.

        With ``half`` the input holds the kept slices of a real tensor's
        transform, as returned by ``forward(x, half=True)``, and the
        result is real: mode 3 reads its blocks where they lie among the
        kept slices, filling in dropped mirrors as conjugates only in the
        blocks that hold one, then the exact complex-to-real inverse of
        the last mode is applied.  Only the kept slices that are their own
        mirror (every trailing index 0 or I_k/2 under the DFT) can be other
        than the transform of a real tensor, so the imaginary residue the
        full inverse would have on them is checked as :func:`real_part`
        checks it; a residue of exactly 0, the only one the model's
        stacks have, passes without the output's norm being taken.
        ``real_part(L.inverse(xbar))`` checks the full inverse.
        """
        xbar = np.asarray(xbar)
        self._check_shape(xbar, half)
        flat = np.ravel(xbar, order="F").astype(np.complex128, copy=False)
        shape, first = xbar.shape, 2
        if half:
            stack = flat.reshape(shape[2], shape[0] * shape[1])
            # Mirror pairs are conjugate by construction; a kept slice that is
            # its own mirror adds its imaginary part to the full inverse through
            # a real inverse column, orthogonal to every other, of squared norm
            # 1/phi (every accepted matrix is unitary up to scale).  The strided
            # dot products copy no slice
            sq = sum(float(np.dot(stack[k].imag, stack[k].imag))
                     for k in self._own_mirror.tolist()) / self.phi
            shape = shape[:2] + self.trailing[:-1] + self._kept_rows.shape
            if len(shape) > 3:
                out = np.empty((math.prod(shape[3:]), shape[2], stack.shape[1]), np.complex128)
                for run, _, _, source, conj in self._blocks:
                    block, dest = stack[source], out[run]
                    if conj.size:  # a copy: some slice of the run is dropped
                        block.imag[conj] *= -1
                    _product(self._inverses[0], block.reshape(dest.shape), dest)
                flat, first = out.reshape(-1), 3
        last = len(shape) - 1
        for axis in range(first, last):
            flat, shape = _mode_product(flat, shape, axis, self._inverses[axis - 2])
        if not half:
            flat, shape = _mode_product(flat, shape, last, self._inverses[-1])
            return flat.reshape(shape, order="F")
        z = flat.reshape(self._kept_rows.size, math.prod(shape[:last]))
        out = (self._c2r @ np.concatenate([z.real, z.imag])).reshape(-1)
        out = out.reshape(shape[:last] + self.trailing[-1:], order="F")
        if sq:  # a zero residue passes against any norm
            _check_residue(math.sqrt(sq), float(np.linalg.norm(out)))
        return out
