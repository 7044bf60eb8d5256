"""Bayesian robust tensor factorization with automatic multi-rank detection.

The observed tensor is modeled as Y = X + S + E where X = U * V^H is
low-multi-rank under the t-product, S is elementwise sparse and E is
dense Gaussian noise.  Factor slices live in the transform domain and
carry column-wise Gaussian-Gamma (ARD) priors whose learned precisions
drive unneeded columns to zero; S and E are modeled in the original
domain.  All posteriors are updated in closed form by coordinate ascent
on the mean-field objective, with a refinement weight that delays the
ARD regularization until the reconstruction fits the data.

The observation is real, so under a real-safe transform its slices
come in conjugate-mirrored pairs whose posteriors are conjugates of each
other.  The model stores and updates one slice of each pair, the slices
the transform keeps (``Transform.forward(y, half=True)``), so the
posteriors of a pair cannot drift apart: conjugate symmetry holds by
construction.  Each kept slice counts with its weight
(``Transform.slice_weights``) in the expected residual and the fit;
multi-ranks are reported for all J slices through ``Transform.slice_map``.

The slice posteriors are independent given the shared scalars, so every
phase updates all K kept slices at once on stacked, zero-padded arrays
(see :class:`FactorState`): one batched numpy expression per phase.  The
factors are immutable: a phase that changes one builds a new
:class:`Factor`, so the statistics the other phases read from them (the
Gram matrices, the column energy and the slice products) are each
computed once per factor object and cannot go stale.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import ImaginaryResidueError, NumericalBreakdownError, SettingError, _check_number
from .tensor import as_tensor, hermitian_t, linear_to_slice, num_slices, to_slice_stack
from .transform import Transform, _Frozen, _read_only
from .tsvd import _inverse_stack, _slice_stacks, _stack_product, balanced_factors

__all__ = [
    "GAMMA_PRIOR",
    "PRUNE_THRESHOLD",
    "HyperParams",
    "Factor",
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

# Shape and rate of every Gamma hyper-prior (ARD lambda, sparse beta, noise
# tau): the non-informative setting of Bayesian CP with automatic rank
# determination (Zhao, Zhang & Cichocki, TPAMI 2015).
GAMMA_PRIOR = 1e-6
# A column is pruned when its energy falls below this fraction of the
# strongest column energy of its slice.
PRUNE_THRESHOLD = 1e-4


class HyperParams(_Frozen):
    """Model and loop configuration; its fields cannot be reassigned.

    ``init_rank`` is the starting column count of every slice, one
    integer of at least 1; the ARD updates prune each slice down from
    it.  ``sigma0_sq`` is the initial variance of the sparse component.
    ``gamma`` is the refinement divisor; None selects the transform
    constant phi.  The loop stops when the relative change falls below
    ``tol`` or after ``max_iter`` iterations.  The Gamma hyper-priors and
    the prune threshold are the module constants :data:`GAMMA_PRIOR` and
    :data:`PRUNE_THRESHOLD`.  The settings are stored as plain ``int``
    and ``float`` values, so a report echo of them is JSON.
    """

    def __init__(self, init_rank: int, sigma0_sq: float = 1.0,
                 gamma: Optional[float] = None, tol: float = 1e-4, max_iter: int = 200):
        vars(self).update(
            init_rank=_check_number("init_rank", init_rank, 1, integer=True),
            sigma0_sq=_check_number("sigma0_sq", sigma0_sq, 0, open_low=True),
            gamma=None if gamma is None else _check_number("gamma", gamma, 0, open_low=True),
            tol=_check_number("tol", tol, 0, open_low=True),
            max_iter=_check_number("max_iter", max_iter, 0, integer=True))

    def as_dict(self) -> dict:
        """The settings as a report echo."""
        return dict(vars(self))


def _diag(m: np.ndarray) -> np.ndarray:
    """(K, R) real diagonals of a (K, R, R) stack."""
    return np.diagonal(m, axis1=1, axis2=2).real


class Factor(_Frozen):
    """Posterior of one factor on the K kept slices.

    ``mean`` is (K, I, R) and ``cov`` (K, R, R); both are read-only, and
    ``gram`` = mean^H mean is formed on first use and kept.
    """

    def __init__(self, mean: np.ndarray, cov: np.ndarray):
        vars(self).update(mean=_read_only(mean), cov=_read_only(cov))

    @cached_property
    def gram(self) -> np.ndarray:
        """(K, R, R) stack of the mean Gram matrices."""
        return _read_only(hermitian_t(self.mean) @ self.mean)


class FactorState(_Frozen):
    """Posterior factors ``u`` and ``v`` of the K kept slices, stacked and
    zero-padded, and the read-only ``ranks``.

    ``u.mean`` is (K, I1, R), ``v.mean`` (K, I2, R) and ``u.cov``/
    ``v.cov`` (K, R, R), where R is the largest entry of ``ranks``.
    Slice k's active columns are its first ``ranks[k]``; its other
    columns of the means and rows/columns of the covariances are
    exactly zero.  The statistics derived from both factors (``energy``
    and ``products``) are formed on first use and kept: a phase that
    changes a factor builds a new FactorState.
    """

    def __init__(self, u: Factor, v: Factor, ranks: np.ndarray):
        vars(self).update(u=u, v=v, ranks=_read_only(ranks))

    @property
    def active(self) -> np.ndarray:
        """(K, R) mask of the active columns."""
        return np.arange(self.u.mean.shape[2]) < self.ranks[:, None]

    @cached_property
    def energy(self) -> np.ndarray:
        """(K, R) expected column energies, the diagonal of <U^H U> + <V^H V>."""
        u, v = self.u, self.v
        return _read_only(u.mean.shape[1] * _diag(u.cov) + _diag(u.gram)
                          + v.mean.shape[1] * _diag(v.cov) + _diag(v.gram))

    @cached_property
    def products(self) -> np.ndarray:
        """(K, I1, I2) stack of the slice products U V^H."""
        return _read_only(_stack_product(self.u.mean, hermitian_t(self.v.mean)))


class SparseState:
    """Posterior of the sparse component and its per-element Gamma precisions.

    The Gamma shape ``beta_a`` is the same for every element.
    """

    def __init__(self, s_mean: np.ndarray, s_var: np.ndarray, beta_a: float,
                 beta_b: np.ndarray):
        self.s_mean, self.s_var, self.beta_a, self.beta_b = s_mean, s_var, beta_a, beta_b


class NoiseState:
    """Noise precision, ARD precisions and the fit statistic (0 until
    :func:`compute_fit` sets it).

    The ARD Gamma shape ``lambda_a`` is the same for every column;
    ``lambda_b`` is (K, R), laid out like the factor columns.
    """

    def __init__(self, tau_a: float, tau_b: float, lambda_a: float, lambda_b: np.ndarray):
        self.tau_a, self.tau_b, self.lambda_a, self.lambda_b = tau_a, tau_b, lambda_a, lambda_b
        self.fit = 0.0

    @property
    def tau_mean(self) -> float:
        return self.tau_a / self.tau_b

    @property
    def lambda_mean(self) -> np.ndarray:
        return self.lambda_a / self.lambda_b


class ModelState:
    """Everything one inference iteration reads and writes.

    The sparse component enters the factor updates only through the
    residual ``resid`` = L(Y - S), the (K, I1, I2) slice stack of the K
    kept transform slices.  ``ynorm`` is the weighted norm of Ybar over
    all J slices.  ``x_hat`` is the reconstruction from the slice
    products of the factors current at the last :func:`update_s`, None
    before the first.
    Statistics of the factors live on ``factors``, not here.
    """

    def __init__(self, y: np.ndarray, transform: Transform, resid: np.ndarray,
                 hp: HyperParams, factors: FactorState, sparse: SparseState,
                 noise: NoiseState, ynorm: float):
        self.y, self.transform, self.resid, self.hp = y, transform, resid, hp
        self.factors, self.sparse, self.noise = factors, sparse, noise
        self.ynorm, self.x_hat = ynorm, None

    @property
    def shape(self) -> tuple:
        return self.y.shape

    @property
    def n_slices(self) -> int:
        """Number of stored (kept) transform-domain slices."""
        return self.resid.shape[0]

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


class RunTrace:
    """Per-iteration history plus the final convergence verdict; starts
    with no records, not converged and with an empty message."""

    def __init__(self):
        self.records, self.converged, self.message = [], False, ""


class RunResult(NamedTuple):
    x_hat: np.ndarray
    s_hat: np.ndarray
    multirank: np.ndarray
    trace: RunTrace

    def report_fields(self) -> dict:
        """The run as report fields: multi-rank, iterations, verdict, message,
        the noise variance 1/tau of the last record (or None) and the records."""
        records = self.trace.records
        return {"multirank": [int(r) for r in self.multirank], "iterations": len(records),
                "converged": self.trace.converged, "message": self.trace.message,
                "noise_var": 1.0 / records[-1].tau_mean if records else None,
                "trace": [r._asdict() for r in records]}


def _check_init_rank(hp: HyperParams, shape) -> None:
    """A SettingError unless ``hp.init_rank`` fits the slices of a tensor of *shape*."""
    if hp.init_rank > min(shape[:2]):
        raise SettingError(f"init_rank {hp.init_rank} exceeds the smaller slice side "
                           f"{min(shape[:2])}")


def _check_inputs(y, L: Transform, hp: HyperParams, seed) -> tuple:
    """The observation as a real, column-major float64 tensor and the
    seed as an int, or a ValueError; no slice is decomposed.

    Rejects slices with one row or one column (every such slice has full
    rank 1, so the low-rank part is not identifiable), complex and
    non-finite entries (naming the first bad index in column-major
    order), a nonzero tensor whose sum of squares underflows to 0 or
    overflows to inf in float64, a transform that is not real-safe, and
    an ``init_rank`` above the smaller slice side (a SettingError); the
    transform domain's entry (``tsvd._slice_stacks``) checks the shape.
    """
    seed = _check_number("seed", seed, 0, integer=True)
    y = as_tensor(y, "observation", real=True)
    if min(y.shape[:2]) < 2:
        raise ValueError(
            f"observation of shape {y.shape} has {y.shape[0]} x {y.shape[1]} "
            "slices, each full rank at rank 1, so the low-rank part is not "
            "identifiable; I1 and I2 must be at least 2")
    if y.any():
        flat = y.ravel(order="K")
        with np.errstate(over="ignore", under="ignore"):
            sq = float(flat @ flat)
        if sq == 0.0 or math.isinf(sq):
            raise ValueError(
                f"observation scale out of range: max|y| = {np.abs(flat).max():.3e}, "
                f"so its sum of squares {'underflows to 0' if sq == 0 else 'overflows'}"
                " in float64; rescale the input")
    if not L.real_safe:
        raise ValueError(
            "transform is not real-safe: its inverse does not map products of "
            "transforms of real tensors back to real tensors, which the model "
            "of a real observation needs")
    _check_init_rank(hp, y.shape)
    return np.asfortranarray(y), seed


def _pair_mask(active: np.ndarray) -> np.ndarray:
    """(K, R, R) mask of the covariance entries between active columns."""
    return active[:, :, None] & active[:, None, :]


def _residual_stack(y: np.ndarray, s_mean: np.ndarray, L: Transform) -> np.ndarray:
    """The (K, I1, I2) residual stack L(Y - S) of the kept slices."""
    return to_slice_stack(L.forward(y - s_mean, half=True))


def init_state(y: np.ndarray, L: Transform, hp: HyperParams, seed: int) -> ModelState:
    """Build the starting posterior state from the observation.

    Every kept slice starts at rank ``hp.init_rank``: its factor means
    are the balanced factors of the slice's skinny SVD, split evenly
    between U and V, and both covariances start at phi * I.  The sparse
    means are drawn uniformly on [0, sigma0) and all Gamma means start
    at their prior values (tau at 1, ARD precisions at 1/phi, beta at
    1/sigma0^2).  Deterministic given seed.
    """
    y, seed = _check_inputs(y, L, hp, seed)
    r, phi = hp.init_rank, L.phi
    _, (ybar,) = _slice_stacks(L, observation=y)
    u_mean, v_mean = balanced_factors(*np.linalg.svd(ybar, full_matrices=False), r)
    k = ybar.shape[0]
    cov = phi * np.broadcast_to(np.eye(r, dtype=np.complex128), (k, r, r))

    rng = np.random.default_rng(np.random.SeedSequence([seed, SPARSE_INIT_STREAM]))
    s_mean = np.asfortranarray(
        rng.uniform(0.0, math.sqrt(hp.sigma0_sq), size=y.shape))
    state = ModelState(
        y=y, transform=L, resid=_residual_stack(y, s_mean, L), hp=hp,
        factors=FactorState(
            u=Factor(u_mean, cov), v=Factor(v_mean, cov.copy()),
            ranks=np.full(k, r)),
        sparse=SparseState(
            s_mean=s_mean, s_var=np.full(y.shape, hp.sigma0_sq, order="F"),
            beta_a=1.0, beta_b=np.full(y.shape, hp.sigma0_sq, order="F"),
        ),
        noise=NoiseState(tau_a=GAMMA_PRIOR, tau_b=GAMMA_PRIOR,
                         lambda_a=1.0, lambda_b=np.full((k, r), phi)),
        ynorm=math.sqrt(float(L.slice_weights
                              @ (ybar.real ** 2 + ybar.imag ** 2).sum(axis=(1, 2)))),
    )
    if y.any():
        compute_fit(state, expected_residual_sq(state))
    return state


def _refinement_weight(state: ModelState) -> float:
    # The ARD term enters the posterior precision, which must stay PSD;
    # the fit statistic can dip below zero while the artificial initial
    # covariances dominate the expected residual, so the weight floors at 0.
    gamma = state.transform.phi if state.hp.gamma is None else state.hp.gamma
    return max(state.noise.fit, 0.0) / gamma


def _slice_name(state: ModelState, k: int) -> str:
    j = int(state.transform.kept_slices[k])
    return f"slice {j} (trailing index {linear_to_slice(j, state.shape)})"


def _first_not_positive_definite(prec: np.ndarray) -> Optional[int]:
    """Index of the first matrix in the stack without a Cholesky factor."""
    for k, p in enumerate(prec):
        try:
            np.linalg.cholesky(p)
        except np.linalg.LinAlgError:
            return k
    return None


def _posterior_cov(state: ModelState, prec: np.ndarray, side: str) -> np.ndarray:
    """Stacked inverse of the posterior precisions, from their Cholesky factors.

    With prec = C C^H, X = C^-1 comes from forward substitution, one row
    per step for all slices at once, and the covariance is X^H X:
    Hermitian positive semidefinite by construction.  Inactive entries
    are pinned to the identity for the factorization (so a padded slice
    is not singular) and their rows of X are zero, so the padding of the
    covariance is exactly zero.
    """
    active = state.factors.active
    if not active.all():
        prec = np.where(_pair_mask(active), prec, np.eye(prec.shape[-1]))
    try:
        chol = np.linalg.cholesky(prec)
    except np.linalg.LinAlgError as exc:
        k = _first_not_positive_definite(prec)
        where = "a slice" if k is None else _slice_name(state, k)
        raise NumericalBreakdownError(
            f"singular posterior precision of {side} on {where}: {exc}") from exc
    # reciprocal pivots; zero on padded rows keeps those rows of X zero
    dinv = active / _diag(chol)
    x = np.zeros_like(chol)
    diag = np.arange(chol.shape[-1])
    x[:, diag, diag] = dinv
    neg = -dinv[:, :, None]
    for i in range(1, diag.size):
        np.multiply(chol[:, i:i + 1, :i] @ x[:, :i, :i], neg[:, i:i + 1],
                    out=x[:, i:i + 1, :i])
    return hermitian_t(x) @ x


def _update_factor(state: ModelState, side: str) -> FactorState:
    """Closed-form update of one factor's posterior on every slice.

    For U the precision is scale * <V^H V> + w * diag(lambda) and the
    mean scale * (R V) Sigma_u, R = L(Y - S) the residual stack; V
    mirrors it with R^H, read as (U^H R)^H, and the roles of U and V
    swapped.  The scale multiplies the (K, I, R) product, so the
    residual stack is never copied.  Only the updated side is replaced:
    the other keeps its Gram matrix.
    """
    scale = state.noise.tau_mean / state.transform.phi
    w = _refinement_weight(state)
    f = state.factors
    if side == "u":
        other, rows = f.v, state.shape[1]
        proj = state.resid @ other.mean
    else:
        other, rows = f.u, state.shape[0]
        proj = hermitian_t(other.mean) @ state.resid
        proj = np.conjugate(proj, out=proj).transpose(0, 2, 1)
    proj *= scale
    prec = scale * (rows * other.cov + other.gram)
    diag = np.arange(prec.shape[-1])
    prec[:, diag, diag] += w * state.noise.lambda_mean
    cov = _posterior_cov(state, prec, side.upper())
    new = Factor(proj @ cov, cov)
    state.factors = (FactorState(new, f.v, f.ranks) if side == "u"
                     else FactorState(f.u, new, f.ranks))
    return state.factors


def update_u(state: ModelState) -> FactorState:
    """Closed-form update of the left factor posterior."""
    return _update_factor(state, "u")


def update_v(state: ModelState) -> FactorState:
    """Closed-form update of the right factor posterior."""
    return _update_factor(state, "v")


def update_lambda(state: ModelState) -> NoiseState:
    """Gamma update of the per-column ARD precisions."""
    i1, i2 = state.shape[:2]
    noise = state.noise
    noise.lambda_a = GAMMA_PRIOR + (i1 + i2) / 2
    noise.lambda_b = GAMMA_PRIOR + state.factors.energy / 2
    return noise


def reconstruct_x(state: ModelState) -> np.ndarray:
    """Mean low-rank reconstruction from the slice products of the
    factors, mapped back to the original domain."""
    return _inverse_stack(state.factors.products, state.transform, True)


def update_s(state: ModelState) -> SparseState:
    """Gaussian update of the sparse component from the current residual.

    Sets ``x_hat`` from the current factors, writes ``s_mean`` and
    ``s_var`` in place, then sets the residual stack to L(Y - S).
    """
    state.x_hat = reconstruct_x(state)
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
    sp = state.sparse
    sp.beta_a = GAMMA_PRIOR + 0.5
    np.square(sp.s_mean, out=sp.beta_b)
    sp.beta_b += sp.s_var
    sp.beta_b *= 0.5
    sp.beta_b += GAMMA_PRIOR
    return sp


def expected_residual_sq(state: ModelState) -> float:
    """Expected squared transform-domain residual <||Ybar - U V^H - Sbar||^2>.

    Expands into the squared mean residual plus the factor-covariance
    cross terms and the transform-scaled sparse variances.  The sum runs
    over all J slices: each kept slice counts with its weight.
    """
    i1, i2 = state.shape[:2]
    f = state.factors
    su, sv = f.u.cov, f.v.cov
    res = np.empty_like(f.products)
    np.subtract(state.resid, f.products, out=res)
    # one row of floats per slice, column by column (a view if column-major)
    rows = np.ascontiguousarray(res.transpose(0, 2, 1)).reshape(state.n_slices, -1)
    parts = rows.view(np.float64)
    t = np.einsum("ki,ki->k", parts, parts)
    t += i1 * i2 * np.einsum("kij,kji->k", sv, su).real
    t += i1 * np.einsum("kij,kji->k", su, f.v.gram).real
    t += i2 * np.einsum("kij,kji->k", sv, f.u.gram).real
    return float(t @ state.transform.slice_weights
                 + state.transform.phi * state.sparse.s_var.sum())


def update_tau(state: ModelState, resid_sq: float) -> NoiseState:
    """Gamma update of the shared noise precision."""
    state.noise.tau_a = GAMMA_PRIOR + state.y.size / 2
    state.noise.tau_b = GAMMA_PRIOR + resid_sq / (2 * state.transform.phi)
    return state.noise


def compute_fit(state: ModelState, resid_sq: float) -> float:
    """Fit statistic 1 - sqrt(<residual^2>) / ||Ybar||, stored on the state.

    ||Ybar|| is the norm over all J slices, from the kept ones and their
    weights (``state.ynorm``).
    """
    if state.ynorm == 0:
        raise ValueError("fit is undefined for an identically zero observation")
    state.noise.fit = 1.0 - math.sqrt(resid_sq) / state.ynorm
    return state.noise.fit


def prune_columns(state: ModelState) -> np.ndarray:
    """Drop factor columns whose relative energy fell below the threshold.

    Column r of slice k is removed when its mean-plus-covariance energy
    (<U^H U> + <V^H V>)_rr / (I1 + I2) drops below :data:`PRUNE_THRESHOLD`
    times the largest column energy of that slice.  The strongest column
    survives unless the whole slice is exactly zero.  Survivors move to
    the front in their original order and the stacks shrink to the new
    largest rank.  Returns the new multi-rank, one rank for each of the
    J slices.
    """
    i1, i2 = state.shape[:2]
    f = state.factors
    noise = state.noise
    energy = f.energy / (i1 + i2)
    top = energy.max(axis=1, initial=0.0)[:, None]
    # padding has zero energy, so it never passes a positive threshold; an
    # all-zero slice keeps no column
    keep = (energy >= PRUNE_THRESHOLD * top) & (top > 0.0)
    if np.array_equal(keep, f.active):
        return state.multirank
    ranks = np.count_nonzero(keep, axis=1)
    order = np.argsort(~keep, axis=1, kind="stable")[:, :ranks.max(initial=0)]
    active = np.arange(order.shape[1]) < ranks[:, None]
    cols = order[:, None, :]
    pairs = _pair_mask(active)

    def compact(factor: Factor) -> Factor:
        cov = np.take_along_axis(factor.cov, order[:, :, None], 1)
        return Factor(np.where(active[:, None, :], np.take_along_axis(factor.mean, cols, 2), 0),
                      np.where(pairs, np.take_along_axis(cov, cols, 2), 0))

    state.factors = FactorState(compact(f.u), compact(f.v), ranks)
    noise.lambda_b = np.take_along_axis(noise.lambda_b, order, 1)
    return state.multirank


def _check_state_positive(state: ModelState) -> None:
    """Raise NumericalBreakdownError naming the first non-positive ARD rate
    or variance of an active column, sparse rate or sparse variance, and
    where it is; :func:`run` scans only once its residual fails its test."""
    noise, sp, f = state.noise, state.sparse, state.factors
    for name, values in (
            ("ARD Gamma rate lambda_b", noise.lambda_b),
            ("posterior variance diag(Sigma_u)", _diag(f.u.cov)),
            ("posterior variance diag(Sigma_v)", _diag(f.v.cov))):
        bad = np.flatnonzero((f.active & ~(values > 0)).any(axis=1))
        if bad.size:
            raise NumericalBreakdownError(
                f"{name} is not positive on {_slice_name(state, int(bad[0]))}")
    for name, values in (("sparse Gamma rate beta_b", sp.beta_b),
                         ("sparse variance s_var", sp.s_var)):
        bad = np.flatnonzero(~(values > 0).ravel(order="F"))  # a NaN fails too
        if bad.size:
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
    trace, not raised.  A stop on the relative change whose final fit
    is negative or whose reconstruction has norm 0 is degenerate and
    reported as not converged.  An all-zero observation returns zeros
    after the checks of :func:`init_state`.

    The updates keep every Gamma rate and posterior variance positive,
    and the self-mirrored slices exactly real, by construction; a NaN
    anywhere reaches the expected squared residual within one iteration.
    So the loop tests that one scalar before tau is rebuilt from it; if
    it is not finite and positive, :func:`_check_state_positive` names
    the first non-positive quantity with its slice or index, or else the
    residual.  :class:`NumericalBreakdownError` and
    :class:`ImaginaryResidueError` name the iteration.
    """
    state = init_state(y, L, hp, seed)
    trace = RunTrace()
    if not state.y.any():
        trace.converged = True
        trace.message = "input tensor is identically zero; returning zeros"
        zeros = np.zeros(state.shape)
        return RunResult(zeros, zeros.copy(),
                         np.zeros(num_slices(state.shape), dtype=np.int64), trace)

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
            resid_sq = expected_residual_sq(state)
            if not 0 < resid_sq < math.inf:  # a NaN fails too
                _check_state_positive(state)
                raise NumericalBreakdownError(f"expected squared residual {resid_sq:g} "
                                              "is not finite and positive")
            update_tau(state, resid_sq=resid_sq)
            compute_fit(state, resid_sq=resid_sq)
            prune_columns(state)
        except (NumericalBreakdownError, ImaginaryResidueError) as exc:
            raise type(exc)(f"iteration {it}: {exc}") from exc

        x_hat = state.x_hat
        prev_norm = np.linalg.norm(x_prev)
        # the previous iterate is not read again: its change overwrites it
        diff_norm = np.linalg.norm(np.subtract(x_hat, x_prev, out=x_prev))
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

    if trace.converged:
        fit = state.noise.fit
        degenerate = [f"the final fit {fit:.6g} is negative"] if fit < 0 else []
        if np.linalg.norm(state.x_hat) == 0:
            degenerate.append("the reconstruction has norm 0")
        if degenerate:
            trace.converged = False
            trace.message = f"degenerate stop at iteration {it}: " + " and ".join(degenerate)
    else:
        trace.message = (
            f"relative change still {trace.records[-1].rel_change:.3e} "
            f"after {hp.max_iter} iterations (tol {hp.tol:g})"
        )
    return RunResult(state.x_hat, state.sparse.s_mean,
                     state.multirank, trace)
