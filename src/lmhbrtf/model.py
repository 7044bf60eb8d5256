"""Bayesian robust tensor factorization with automatic multi-rank detection.

The observed tensor is modeled as Y = X + S + E where X = U * V^H is
low-multi-rank under the t-product, S is elementwise sparse and E is
dense Gaussian noise.  Factor slices live in the transform domain and
carry column-wise Gaussian-Gamma (ARD) priors whose learned precisions
drive unneeded columns to zero; S and E are modeled in the original
domain.  All posteriors are updated in closed form by coordinate ascent
on the mean-field objective, with a refinement weight that delays the
ARD regularization until the reconstruction fits the data.

The observation is real, so under the DFT its transform-domain slices
come in conjugate-mirrored pairs whose posteriors are conjugates of each
other.  The model stores and updates only the slices the transform keeps
(``Transform.forward(y, half=True)``) and counts each with its weight
(``Transform.slice_weights``) in the expected residual and the fit;
multi-ranks are reported for all J slices through ``Transform.slice_map``.

The slice posteriors are independent given the shared scalars, so every
phase updates all K kept slices at once on stacked, zero-padded arrays
(see :class:`FactorState`): one batched numpy expression per phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import NumericalBreakdownError
from .tensor import (
    as_tensor,
    from_slice_stack,
    linear_to_slice,
    num_slices,
    to_slice_stack,
)
from .transform import Transform
from .tsvd import balanced_factors

__all__ = [
    "HyperParams",
    "FactorState",
    "SparseState",
    "NoiseState",
    "ModelState",
    "IterationRecord",
    "RunTrace",
    "RunResult",
    "init_state",
    "update_u",
    "update_v",
    "update_lambda",
    "update_s",
    "update_beta",
    "update_tau",
    "expected_residual_sq",
    "compute_fit",
    "prune_columns",
    "reconstruct_x",
    "run",
]

# fixed sub-stream labels so every draw is reproducible from one user seed
SPARSE_INIT_STREAM = 3


@dataclass
class HyperParams:
    """Model and loop configuration.

    ``init_rank`` is the starting column count per slice (an int for a
    uniform start or one value per slice).  ``gamma`` is the refinement
    divisor; None selects the transform constant phi.  ``sigma0_sq`` is
    the initial variance of the sparse component.
    """

    init_rank: Union[int, Sequence[int]]
    a0_lambda: float = 1e-6
    b0_lambda: float = 1e-6
    a0_beta: float = 1e-6
    b0_beta: float = 1e-6
    a0_tau: float = 1e-6
    b0_tau: float = 1e-6
    sigma0_sq: float = 1.0
    gamma: Optional[float] = None
    tol: float = 1e-4
    max_iter: int = 200
    prune_threshold: float = 1e-4

    def __post_init__(self):
        for name in ("a0_lambda", "b0_lambda", "a0_beta", "b0_beta",
                     "a0_tau", "b0_tau", "sigma0_sq", "tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be strictly positive")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        if not 0 < self.prune_threshold < 1:
            raise ValueError("prune_threshold must lie in (0, 1)")


@dataclass
class FactorState:
    """Posterior factors of the K kept slices, stacked and zero-padded.

    ``u_mean`` is (K, I1, R), ``v_mean`` (K, I2, R) and ``sigma_u``/
    ``sigma_v`` (K, R, R), where R is the largest entry of ``ranks``.
    Slice k's active columns are its first ``ranks[k]``; its other
    columns of the means and rows/columns of the covariances are
    exactly zero.
    """

    u_mean: np.ndarray
    v_mean: np.ndarray
    sigma_u: np.ndarray
    sigma_v: np.ndarray
    ranks: np.ndarray

    @property
    def active(self) -> np.ndarray:
        """(K, R) mask of the active columns."""
        return np.arange(self.u_mean.shape[2]) < self.ranks[:, None]


@dataclass
class SparseState:
    """Posterior of the sparse component and its per-element Gamma precisions.

    The Gamma shape ``beta_a`` is the same for every element.
    """

    s_mean: np.ndarray
    s_var: np.ndarray
    beta_a: float
    beta_b: np.ndarray

    @property
    def beta_mean(self) -> np.ndarray:
        return self.beta_a / self.beta_b


@dataclass
class NoiseState:
    """Noise precision, ARD precisions and the fit statistic.

    The ARD Gamma shape ``lambda_a`` is the same for every column;
    ``lambda_b`` is (K, R), laid out like the factor columns.
    """

    tau_a: float
    tau_b: float
    lambda_a: float
    lambda_b: np.ndarray
    fit: float = 0.0

    @property
    def tau_mean(self) -> float:
        return self.tau_a / self.tau_b

    def lambda_mean(self, k: int) -> np.ndarray:
        return self.lambda_a / self.lambda_b[k]


@dataclass
class ModelState:
    """Everything one inference iteration reads and writes.

    The sparse component enters the factor updates only through the
    residual ``resid`` = L(Y - S), the (K, I1, I2) view of an (I1, I2, K)
    stack laid out like ``ybar``.  ``sbar`` = Ybar - resid is derived
    from it: assigning ``sbar`` sets resid = Ybar - sbar, and assigning
    ``ybar`` holds ``sbar`` fixed and refreshes ``ynorm`` (the weighted
    norm of Ybar over all J slices).  ``xbar`` is the (I1, I2, K) stack
    of slice products U V^H that ``x_hat`` was reconstructed from.
    """

    y: np.ndarray
    transform: Transform
    ybar: np.ndarray          # (I1, I2, K) stack of the K kept transform slices
    resid: np.ndarray
    hp: HyperParams
    phi: float
    gamma: float
    factors: FactorState
    sparse: SparseState
    noise: NoiseState
    x_hat: Optional[np.ndarray] = None
    xbar: Optional[np.ndarray] = field(default=None, repr=False)
    ynorm: float = field(init=False)

    def __setattr__(self, name, value):
        if name == "ybar" and "resid" in vars(self):
            sbar = self.sbar
            super().__setattr__(name, value)
            self.sbar = sbar
        else:
            super().__setattr__(name, value)
        if name == "ybar":
            weights = self.transform.slice_weights
            super().__setattr__("ynorm", math.sqrt(float(
                weights @ (value.real ** 2 + value.imag ** 2).sum(axis=(0, 1)))))

    @property
    def sbar(self) -> np.ndarray:
        """(I1, I2, K) stack of the kept slices of L(S): Ybar - resid."""
        return self.ybar - self.resid.transpose(1, 2, 0)

    @sbar.setter
    def sbar(self, value: np.ndarray) -> None:
        self.resid = (self.ybar - value).transpose(2, 0, 1)

    @property
    def shape(self) -> tuple:
        return self.y.shape

    @property
    def n_slices(self) -> int:
        """Number of stored (kept) transform-domain slices."""
        return self.ybar.shape[2]

    @property
    def multirank(self) -> np.ndarray:
        """Current rank of each of the J slices."""
        return self.factors.ranks[self.transform.slice_map[0]]


class IterationRecord(NamedTuple):
    iteration: int
    fit: float
    rel_change: float
    multirank: list
    tau_mean: float


@dataclass
class RunTrace:
    """Per-iteration history plus the final convergence verdict."""

    records: list = field(default_factory=list)
    converged: bool = False
    message: str = ""

    def as_dicts(self) -> list:
        return [r._asdict() for r in self.records]


class RunResult(NamedTuple):
    x_hat: np.ndarray
    s_hat: np.ndarray
    multirank: np.ndarray
    trace: RunTrace


def _sub_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream]))


def _check_observation(y) -> np.ndarray:
    """The observation as a real float64 tensor, or a ValueError.

    Rejects complex and non-finite entries (naming the first bad index
    in column-major order) and a nonzero tensor whose sum of squares
    underflows to 0 or overflows to inf in float64.
    """
    y = as_tensor(y)
    if np.iscomplexobj(y):
        raise ValueError("observation tensor must be real")
    finite = np.isfinite(y)
    if not finite.all():
        bad = np.flatnonzero(~finite.ravel(order="F"))
        idx = tuple(int(i) for i in np.unravel_index(bad[0], y.shape, order="F"))
        raise ValueError(f"observation has a non-finite entry {y[idx]} at index "
                         f"{idx} ({bad.size} non-finite entries in all)")
    if y.any():
        flat = y.ravel(order="K")
        with np.errstate(over="ignore", under="ignore"):
            sq = float(flat @ flat)
        if sq == 0.0 or math.isinf(sq):
            raise ValueError(
                f"observation scale out of range: max|y| = {np.abs(flat).max():.3e}, "
                f"so its sum of squares {'underflows to 0' if sq == 0 else 'overflows'}"
                " in float64; rescale the input")
    return y


def _pair_mask(active: np.ndarray) -> np.ndarray:
    """(K, R, R) mask of the covariance entries between active columns."""
    return active[:, :, None] & active[:, None, :]


def _residual_stack(y: np.ndarray, s_mean: np.ndarray, L: Transform) -> np.ndarray:
    """The (K, I1, I2) residual stack L(Y - S) of the kept slices."""
    return to_slice_stack(L.forward(y - s_mean, half=True)).transpose(2, 0, 1)


def init_state(y: np.ndarray, L: Transform, hp: HyperParams, seed: int) -> ModelState:
    """Build the starting posterior state from the observation.

    Factor means come from the per-slice skinny SVD of the transformed
    observation, split evenly between the two factors; covariances start
    at phi * I, the sparse means are drawn uniformly on [0, sigma0) and
    all Gamma means start at their prior values (tau at 1, ARD
    precisions at 1/phi, beta at 1/sigma0^2).  Deterministic given seed.

    Only the slices the transform keeps for a real tensor are stored; a
    per-slice ``init_rank`` must therefore give conjugate-mirrored slices
    equal ranks.
    """
    y = np.asfortranarray(_check_observation(y))
    if not L.real_safe:
        raise ValueError(
            "transform is not real-safe: its inverse does not map products of "
            "transforms of real tensors back to real tensors, which the model "
            "of a real observation needs")
    i1, i2 = y.shape[:2]
    j = num_slices(y.shape)
    ranks = np.asarray(hp.init_rank, dtype=np.int64)
    if ranks.ndim == 0:
        ranks = np.full(j, int(ranks))
    if ranks.shape != (j,):
        raise ValueError(f"init_rank must be scalar or length {j}")
    if (ranks < 1).any() or (ranks > min(i1, i2)).any():
        raise ValueError(
            f"init_rank entries must lie in [1, {min(i1, i2)}], got "
            f"[{ranks.min()}, {ranks.max()}]"
        )

    phi = L.phi
    gamma = phi if hp.gamma is None else float(hp.gamma)
    ybar = to_slice_stack(L.forward(y, half=True))
    k_kept = ybar.shape[2]
    if not np.array_equal(ranks[L.slice_map[0]], ranks):
        raise ValueError("per-slice init_rank must be equal on "
                         "conjugate-mirrored slices")
    ranks = ranks[:k_kept]  # the kept slices are the first K: id varies slowest
    r_max = int(ranks.max())

    active = np.arange(r_max) < ranks[:, None]
    u, s, vh = np.linalg.svd(ybar.transpose(2, 0, 1), full_matrices=False)
    u_mean, v_mean = balanced_factors(u, s, vh, r_max)
    cov = np.where(_pair_mask(active), phi * np.eye(r_max, dtype=np.complex128), 0)

    rng = _sub_rng(seed, SPARSE_INIT_STREAM)
    s_mean = np.asfortranarray(
        rng.uniform(0.0, math.sqrt(hp.sigma0_sq), size=y.shape))
    state = ModelState(
        y=y, transform=L, ybar=ybar, resid=_residual_stack(y, s_mean, L),
        hp=hp, phi=phi, gamma=gamma,
        factors=FactorState(
            u_mean=np.where(active[:, None, :], u_mean, 0),
            v_mean=np.where(active[:, None, :], v_mean, 0),
            sigma_u=cov, sigma_v=cov.copy(), ranks=ranks.copy()),
        sparse=SparseState(
            s_mean=s_mean, s_var=np.full(y.shape, hp.sigma0_sq, order="F"),
            beta_a=1.0, beta_b=np.full(y.shape, hp.sigma0_sq, order="F"),
        ),
        noise=NoiseState(tau_a=hp.a0_tau, tau_b=hp.b0_tau,
                         lambda_a=1.0, lambda_b=np.full(active.shape, phi)),
    )
    if y.any():
        compute_fit(state)
    return state


def _hermitian_t(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack."""
    return m.conj().transpose(0, 2, 1)


def _refinement_weight(state: ModelState) -> float:
    # The ARD term enters the posterior precision, which must stay PSD;
    # the fit statistic can dip below zero while the artificial initial
    # covariances dominate the expected residual, so the weight floors at 0.
    return max(state.noise.fit, 0.0) / state.gamma


def _slice_name(state: ModelState, k: int) -> str:
    # the kept slices are the first K of the J slices in linear order
    return f"slice {k} (trailing index {linear_to_slice(k, state.shape)})"


def _posterior_cov(state: ModelState, prec: np.ndarray, side: str) -> np.ndarray:
    """Stacked inverse of the posterior precisions, Hermitian and zero-padded.

    Inactive entries are pinned to the identity for the inverse (so a
    padded slice is not singular) and zeroed again afterwards.
    """
    pairs = _pair_mask(state.factors.active)
    prec = np.where(pairs, prec, np.eye(prec.shape[-1]))
    try:
        cov = np.linalg.inv(prec)
    except np.linalg.LinAlgError as exc:
        singular = np.flatnonzero(np.linalg.slogdet(prec)[0] == 0)
        where = _slice_name(state, int(singular[0])) if singular.size else "a slice"
        raise NumericalBreakdownError(
            f"singular posterior precision of {side} on {where}: {exc}") from exc
    return np.where(pairs, 0.5 * (cov + _hermitian_t(cov)), 0)


def _update_factor(state: ModelState, side: str) -> FactorState:
    """Closed-form update of one factor's posterior on every slice.

    For U the precision is scale * <V^H V> + w * diag(lambda) and the
    mean scale * R V Sigma_u, R = L(Y - S) the residual stack; V
    mirrors it with R^H, read as (U^H R)^H so that R is not copied,
    and the roles of U and V swapped.
    """
    scale = state.noise.tau_mean / state.phi
    w = _refinement_weight(state)
    f = state.factors
    if side == "u":
        other, other_cov, rows = f.v_mean, f.sigma_v, state.shape[1]
        proj = scale * state.resid @ other
    else:
        other, other_cov, rows = f.u_mean, f.sigma_u, state.shape[0]
        proj = scale * _hermitian_t(_hermitian_t(other) @ state.resid)
    prec = scale * (rows * other_cov + _hermitian_t(other) @ other)
    diag = np.arange(prec.shape[-1])
    prec[:, diag, diag] += w * (state.noise.lambda_a / state.noise.lambda_b)
    cov = _posterior_cov(state, prec, side.upper())
    mean = proj @ cov
    if side == "u":
        f.sigma_u, f.u_mean = cov, mean
    else:
        f.sigma_v, f.v_mean = cov, mean
    return f


def update_u(state: ModelState) -> FactorState:
    """Closed-form update of the left factor posterior."""
    return _update_factor(state, "u")


def update_v(state: ModelState) -> FactorState:
    """Closed-form update of the right factor posterior."""
    return _update_factor(state, "v")


def _column_sq_norms(m: np.ndarray) -> np.ndarray:
    """(K, R) squared norms of the columns of a (K, I, R) complex stack."""
    # real and imaginary parts interleave in the last axis of the float view
    parts = np.ascontiguousarray(m, dtype=np.complex128).view(np.float64)
    return np.einsum("kir,kir->kr", parts, parts).reshape(m.shape[0], -1, 2).sum(axis=2)


def _column_energy(state: ModelState) -> np.ndarray:
    """(K, R) expected column energies, the diagonal of <U^H U> + <V^H V>."""
    i1, i2 = state.shape[:2]
    f = state.factors
    return (i1 * np.diagonal(f.sigma_u, axis1=1, axis2=2).real + _column_sq_norms(f.u_mean)
            + i2 * np.diagonal(f.sigma_v, axis1=1, axis2=2).real + _column_sq_norms(f.v_mean))


def update_lambda(state: ModelState) -> NoiseState:
    """Gamma update of the per-column ARD precisions."""
    i1, i2 = state.shape[:2]
    hp = state.hp
    noise = state.noise
    noise.lambda_a = hp.a0_lambda + (i1 + i2) / 2
    noise.lambda_b = hp.b0_lambda + _column_energy(state) / 2
    return noise


def _factor_products(state: ModelState) -> np.ndarray:
    """U V^H of every kept slice, as an (I1, I2, K) stack laid out like ybar."""
    f = state.factors
    out = np.empty_like(state.ybar)
    np.matmul(f.u_mean, _hermitian_t(f.v_mean), out=out.transpose(2, 0, 1))
    return out


def reconstruct_x(state: ModelState, products: Optional[np.ndarray] = None) -> np.ndarray:
    """Mean low-rank reconstruction, mapped back to the original domain.

    *products* is the (I1, I2, K) stack of slice products U V^H, such
    as ``state.xbar``; it is computed from the factors when not given.
    """
    if products is None:
        products = _factor_products(state)
    L = state.transform
    half = from_slice_stack(products, state.shape[:2] + L.half_trailing)
    return L.inverse(half, assert_real=True, half=True)


def update_s(state: ModelState) -> SparseState:
    """Gaussian update of the sparse component from the current residual.

    Writes ``s_mean`` and ``s_var`` in place, then sets the residual
    stack to L(Y - S) and keeps the slice products behind ``x_hat`` in
    ``state.xbar``.
    """
    state.xbar = _factor_products(state)
    state.x_hat = reconstruct_x(state, state.xbar)
    tau = state.noise.tau_mean
    sp = state.sparse
    # s_var holds denom = <beta> + tau until the last step
    denom = np.divide(sp.beta_a, sp.beta_b, out=sp.s_var)
    denom += tau
    np.subtract(state.y, state.x_hat, out=sp.s_mean)
    sp.s_mean *= tau
    sp.s_mean /= denom
    np.divide(1.0, denom, out=sp.s_var)
    state.resid = _residual_stack(state.y, sp.s_mean, state.transform)
    return sp


def update_beta(state: ModelState) -> SparseState:
    """Gamma update of the per-element sparsity precisions (``beta_b`` in place)."""
    hp = state.hp
    sp = state.sparse
    sp.beta_a = hp.a0_beta + 0.5
    np.square(sp.s_mean, out=sp.beta_b)
    sp.beta_b += sp.s_var
    sp.beta_b *= 0.5
    sp.beta_b += hp.b0_beta
    return sp


def expected_residual_sq(state: ModelState, products: Optional[np.ndarray] = None) -> float:
    """Expected squared transform-domain residual <||Ybar - U V^H - Sbar||^2>.

    Expands into the squared mean residual plus the factor-covariance
    cross terms and the transform-scaled sparse variances.  The sum runs
    over all J slices: each kept slice counts with its weight.
    *products* is the stack of slice products U V^H of the current
    factors (``state.xbar`` right after :func:`update_s`); it is
    computed from the factors when not given.
    """
    i1, i2 = state.shape[:2]
    f = state.factors
    mu, mv = f.u_mean, f.v_mean
    su, sv = f.sigma_u, f.sigma_v
    if products is None:
        products = res = _factor_products(state)  # a fresh stack: subtract in place
    else:
        res = np.empty_like(products)
    np.subtract(state.resid, products.transpose(2, 0, 1), out=res.transpose(2, 0, 1))
    # each slice is contiguous in the column-major stack: as floats, one row
    parts = res.reshape(-1, order="F").view(np.float64).reshape(state.n_slices, -1)
    t = np.einsum("ki,ki->k", parts, parts)
    t += i1 * i2 * np.einsum("kij,kji->k", sv, su).real
    t += i1 * np.einsum("kij,kji->k", su, _hermitian_t(mv) @ mv).real
    t += i2 * np.einsum("kij,kji->k", sv, _hermitian_t(mu) @ mu).real
    return float(t @ state.transform.slice_weights
                 + state.phi * state.sparse.s_var.sum())


def update_tau(state: ModelState, resid_sq: Optional[float] = None) -> NoiseState:
    """Gamma update of the shared noise precision."""
    if resid_sq is None:
        resid_sq = expected_residual_sq(state)
    hp = state.hp
    state.noise.tau_a = hp.a0_tau + state.y.size / 2
    state.noise.tau_b = hp.b0_tau + resid_sq / (2 * state.phi)
    return state.noise


def compute_fit(state: ModelState, resid_sq: Optional[float] = None) -> float:
    """Fit statistic 1 - sqrt(<residual^2>) / ||Ybar||, stored on the state.

    ||Ybar|| is the norm over all J slices, from the kept ones and their
    weights (``state.ynorm``).
    """
    if state.ynorm == 0:
        raise ValueError("fit is undefined for an identically zero observation")
    if resid_sq is None:
        resid_sq = expected_residual_sq(state)
    state.noise.fit = 1.0 - math.sqrt(resid_sq) / state.ynorm
    return state.noise.fit


def prune_columns(state: ModelState, threshold: Optional[float] = None) -> np.ndarray:
    """Drop factor columns whose relative energy fell below *threshold*.

    Column r of slice k is removed when its mean-plus-covariance energy
    (<U^H U> + <V^H V>)_rr / (I1 + I2) drops below threshold times the
    largest column energy of that slice.  The strongest column survives
    unless the whole slice is exactly zero.  Survivors move to the front
    in their original order and the stacks shrink to the new largest
    rank.  Returns the new multi-rank, one rank for each of the J slices.
    """
    if threshold is None:
        threshold = state.hp.prune_threshold
    i1, i2 = state.shape[:2]
    f = state.factors
    noise = state.noise
    energy = _column_energy(state) / (i1 + i2)
    top = energy.max(axis=1, initial=0.0)[:, None]
    # padding has zero energy, so it never passes a positive threshold; an
    # all-zero slice keeps no column
    keep = (energy >= threshold * top) & (top > 0.0)
    if np.array_equal(keep, f.active):
        return state.multirank
    f.ranks = np.count_nonzero(keep, axis=1)
    order = np.argsort(~keep, axis=1, kind="stable")[:, :f.ranks.max(initial=0)]
    active = np.arange(order.shape[1]) < f.ranks[:, None]
    cols = order[:, None, :]
    f.u_mean = np.where(active[:, None, :], np.take_along_axis(f.u_mean, cols, 2), 0)
    f.v_mean = np.where(active[:, None, :], np.take_along_axis(f.v_mean, cols, 2), 0)
    pairs = _pair_mask(active)
    for name in ("sigma_u", "sigma_v"):
        cov = np.take_along_axis(getattr(f, name), order[:, :, None], 1)
        setattr(f, name, np.where(pairs, np.take_along_axis(cov, cols, 2), 0))
    noise.lambda_b = np.take_along_axis(noise.lambda_b, order, 1)
    return state.multirank


def _check_state_positive(state: ModelState) -> None:
    """Raise NumericalBreakdownError naming the first non-positive
    Gamma parameter or posterior variance and where it is."""
    noise, sp, f = state.noise, state.sparse, state.factors
    if not noise.tau_b > 0:
        raise NumericalBreakdownError(f"noise Gamma rate tau_b = {noise.tau_b:g} "
                                      "is not positive")
    active = f.active
    for name, values in (
            ("ARD Gamma rate lambda_b", noise.lambda_b),
            ("posterior variance diag(Sigma_u)",
             np.diagonal(f.sigma_u, axis1=1, axis2=2).real),
            ("posterior variance diag(Sigma_v)",
             np.diagonal(f.sigma_v, axis1=1, axis2=2).real)):
        bad = np.flatnonzero((active & ~(values > 0)).any(axis=1))
        if bad.size:
            raise NumericalBreakdownError(
                f"{name} is not positive on {_slice_name(state, int(bad[0]))}")
    for name, values in (("sparse Gamma rate beta_b", sp.beta_b),
                         ("sparse variance s_var", sp.s_var)):
        if not values.min() > 0:  # a NaN minimum fails too
            bad = np.flatnonzero(~(values > 0).ravel(order="F"))
            idx = tuple(int(i) for i in np.unravel_index(bad[0], state.shape, order="F"))
            raise NumericalBreakdownError(f"{name} is not positive at index {idx}")


def run(y: np.ndarray, L: Transform, hp: HyperParams, seed: int) -> RunResult:
    """Full inference loop: iterate the posterior updates until the
    reconstruction stabilizes.

    Per iteration the factors, ARD precisions, sparse component, its
    precisions and the noise precision are updated in that order, then
    dead factor columns are pruned.  The loop stops when the relative
    change of the reconstruction drops below ``hp.tol`` or after
    ``hp.max_iter`` iterations; non-convergence is reported in the
    trace, not raised.  A numerical breakdown raises
    :class:`NumericalBreakdownError` naming the iteration.
    """
    y = _check_observation(y)
    trace = RunTrace()
    if not y.any():
        trace.converged = True
        trace.message = "input tensor is identically zero; returning zeros"
        zeros = np.zeros(y.shape)
        return RunResult(zeros, zeros.copy(),
                         np.zeros(num_slices(y.shape), dtype=np.int64), trace)

    state = init_state(y, L, hp, seed)
    x_prev = reconstruct_x(state)
    if hp.max_iter == 0:
        trace.message = "iteration budget is zero; returning initialization"
        return RunResult(x_prev, state.sparse.s_mean.copy(),
                         state.multirank, trace)

    for it in range(1, hp.max_iter + 1):
        try:
            update_u(state)
            update_v(state)
            update_lambda(state)
            update_s(state)
            update_beta(state)
            resid_sq = expected_residual_sq(state, products=state.xbar)
            update_tau(state, resid_sq=resid_sq)
            compute_fit(state, resid_sq=resid_sq)
            prune_columns(state)
            _check_state_positive(state)
        except NumericalBreakdownError as exc:
            raise NumericalBreakdownError(f"iteration {it}: {exc}") from exc

        x_hat = state.x_hat
        prev_norm = np.linalg.norm(x_prev)
        diff_norm = np.linalg.norm(x_hat - x_prev)
        if prev_norm > 0:
            rel_change = diff_norm / prev_norm
        else:
            rel_change = 0.0 if diff_norm == 0 else math.inf
        trace.records.append(IterationRecord(
            iteration=it, fit=state.noise.fit, rel_change=float(rel_change),
            multirank=[int(r) for r in state.multirank],
            tau_mean=state.noise.tau_mean,
        ))
        # stop only on consecutive update-produced iterates: iteration 1 is
        # compared against the initialization, which the first update can
        # reproduce almost exactly before the noise precision has adapted
        if rel_change < hp.tol and it >= 2:
            trace.converged = True
            break
        x_prev = x_hat

    if not trace.converged:
        trace.message = (
            f"relative change still {trace.records[-1].rel_change:.3e} "
            f"after {hp.max_iter} iterations (tol {hp.tol:g})"
        )
    return RunResult(state.x_hat, state.sparse.s_mean,
                     state.multirank, trace)
