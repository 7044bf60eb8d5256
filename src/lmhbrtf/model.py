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
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import NumericalBreakdownError
from .tensor import as_tensor, from_slice_stack, num_slices, to_slice_stack
from .transform import Transform

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
    """Per-slice posterior factors: means, covariances and retained ranks."""

    u_mean: list
    v_mean: list
    sigma_u: list
    sigma_v: list
    ranks: np.ndarray


@dataclass
class SparseState:
    """Posterior of the sparse component and its per-element Gamma precisions."""

    s_mean: np.ndarray
    s_var: np.ndarray
    beta_a: np.ndarray
    beta_b: np.ndarray

    @property
    def beta_mean(self) -> np.ndarray:
        return self.beta_a / self.beta_b


@dataclass
class NoiseState:
    """Noise precision, per-slice ARD precisions and the fit statistic."""

    tau_a: float
    tau_b: float
    lambda_a: list
    lambda_b: list
    fit: float = 0.0

    @property
    def tau_mean(self) -> float:
        return self.tau_a / self.tau_b

    def lambda_mean(self, k: int) -> np.ndarray:
        return self.lambda_a[k] / self.lambda_b[k]


@dataclass
class ModelState:
    """Everything one inference iteration reads and writes."""

    y: np.ndarray
    ybar: np.ndarray          # (I1, I2, K) stack of the K kept transform slices
    sbar: np.ndarray
    hp: HyperParams
    transform: Transform
    phi: float
    gamma: float
    factors: FactorState
    sparse: SparseState
    noise: NoiseState
    x_hat: Optional[np.ndarray] = None
    threads: int = 1

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


def _slice_map(state: ModelState, fn) -> None:
    """Run fn(k) for every slice, optionally on a thread pool.

    Slice updates write disjoint state, so the result is identical for
    any worker count or completion order.
    """
    ks = range(state.n_slices)
    if state.threads <= 1:
        for k in ks:
            fn(k)
        return
    with concurrent.futures.ThreadPoolExecutor(max_workers=state.threads) as pool:
        list(pool.map(fn, ks))


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


def init_state(y: np.ndarray, L: Transform, hp: HyperParams, seed: int,
               threads: int = 1) -> ModelState:
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

    u_mean = [np.empty(0)] * k_kept
    v_mean = [np.empty(0)] * k_kept
    sigma_u = [np.empty(0)] * k_kept
    sigma_v = [np.empty(0)] * k_kept
    lambda_a = [np.empty(0)] * k_kept
    lambda_b = [np.empty(0)] * k_kept

    def init_slice(k):
        r = int(ranks[k])
        u, s, vh = np.linalg.svd(ybar[:, :, k], full_matrices=False)
        root = np.sqrt(s[:r])
        u_mean[k] = u[:, :r] * root
        v_mean[k] = vh[:r].conj().T * root
        sigma_u[k] = phi * np.eye(r, dtype=np.complex128)
        sigma_v[k] = phi * np.eye(r, dtype=np.complex128)
        lambda_a[k] = np.ones(r)
        lambda_b[k] = np.full(r, phi)

    state = ModelState(
        y=y, ybar=ybar, sbar=np.empty(0), hp=hp, transform=L,
        phi=phi, gamma=gamma,
        factors=FactorState(u_mean, v_mean, sigma_u, sigma_v, ranks.copy()),
        sparse=SparseState(
            s_mean=np.empty(0), s_var=np.full(y.shape, hp.sigma0_sq, order="F"),
            beta_a=np.ones(y.shape, order="F"),
            beta_b=np.full(y.shape, hp.sigma0_sq, order="F"),
        ),
        noise=NoiseState(tau_a=hp.a0_tau, tau_b=hp.b0_tau,
                         lambda_a=lambda_a, lambda_b=lambda_b),
        threads=threads,
    )
    _slice_map(state, init_slice)

    rng = _sub_rng(seed, SPARSE_INIT_STREAM)
    state.sparse.s_mean = np.asfortranarray(
        rng.uniform(0.0, math.sqrt(hp.sigma0_sq), size=y.shape))
    state.sbar = to_slice_stack(L.forward(state.sparse.s_mean, half=True))
    if y.any():
        compute_fit(state)
    return state


def _vtv(state: ModelState, k: int) -> np.ndarray:
    """<V^H V> for slice k: I2 * Sigma_v + M_v^H M_v."""
    f = state.factors
    return state.shape[1] * f.sigma_v[k] + f.v_mean[k].conj().T @ f.v_mean[k]


def _utu(state: ModelState, k: int) -> np.ndarray:
    """<U^H U> for slice k: I1 * Sigma_u + M_u^H M_u."""
    f = state.factors
    return state.shape[0] * f.sigma_u[k] + f.u_mean[k].conj().T @ f.u_mean[k]


def _refinement_weight(state: ModelState) -> float:
    # The ARD term enters the posterior precision, which must stay PSD;
    # the fit statistic can dip below zero while the artificial initial
    # covariances dominate the expected residual, so the weight floors at 0.
    return max(state.noise.fit, 0.0) / state.gamma


def _posterior_cov(data_term: np.ndarray, ard_diag: np.ndarray) -> np.ndarray:
    try:
        cov = np.linalg.inv(data_term + np.diag(ard_diag))
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdownError(
            f"singular posterior precision matrix: {exc}"
        ) from exc
    return 0.5 * (cov + cov.conj().T)


def update_u(state: ModelState) -> FactorState:
    """Closed-form update of the left factor posterior, slice by slice."""
    tau = state.noise.tau_mean
    scale = tau / state.phi
    w = _refinement_weight(state)
    f = state.factors

    def step(k):
        cov = _posterior_cov(scale * _vtv(state, k),
                             w * state.noise.lambda_mean(k))
        f.sigma_u[k] = cov
        resid = state.ybar[:, :, k] - state.sbar[:, :, k]
        f.u_mean[k] = scale * resid @ f.v_mean[k] @ cov

    _slice_map(state, step)
    return f


def update_v(state: ModelState) -> FactorState:
    """Mirror of :func:`update_u` for the right factor (conjugated residual)."""
    tau = state.noise.tau_mean
    scale = tau / state.phi
    w = _refinement_weight(state)
    f = state.factors

    def step(k):
        cov = _posterior_cov(scale * _utu(state, k),
                             w * state.noise.lambda_mean(k))
        f.sigma_v[k] = cov
        resid = state.ybar[:, :, k] - state.sbar[:, :, k]
        f.v_mean[k] = scale * resid.conj().T @ f.u_mean[k] @ cov

    _slice_map(state, step)
    return f


def update_lambda(state: ModelState) -> NoiseState:
    """Gamma update of the per-column ARD precisions."""
    i1, i2 = state.shape[:2]
    hp = state.hp
    noise = state.noise

    def step(k):
        energy = (np.diagonal(_utu(state, k)) + np.diagonal(_vtv(state, k))).real
        noise.lambda_a[k] = np.full(energy.shape, hp.a0_lambda + (i1 + i2) / 2)
        noise.lambda_b[k] = hp.b0_lambda + energy / 2

    _slice_map(state, step)
    return noise


def reconstruct_x(state: ModelState) -> np.ndarray:
    """Mean low-rank reconstruction, mapped back to the original domain."""
    f = state.factors
    L = state.transform
    xbar = np.empty_like(state.ybar)

    def step(k):
        xbar[:, :, k] = f.u_mean[k] @ f.v_mean[k].conj().T

    _slice_map(state, step)
    half = from_slice_stack(xbar, state.shape[:2] + L.half_trailing)
    return L.inverse(half, assert_real=True, half=True)


def update_s(state: ModelState) -> SparseState:
    """Gaussian update of the sparse component from the current residual."""
    state.x_hat = reconstruct_x(state)
    z = state.y - state.x_hat
    tau = state.noise.tau_mean
    sp = state.sparse
    denom = sp.beta_mean + tau
    sp.s_var = 1.0 / denom
    sp.s_mean = tau * z / denom
    state.sbar = to_slice_stack(state.transform.forward(sp.s_mean, half=True))
    return sp


def update_beta(state: ModelState) -> SparseState:
    """Gamma update of the per-element sparsity precisions."""
    hp = state.hp
    sp = state.sparse
    s_sq = sp.s_mean ** 2 + sp.s_var
    sp.beta_a = np.full(state.shape, hp.a0_beta + 0.5, order="F")
    sp.beta_b = hp.b0_beta + 0.5 * s_sq
    return sp


def expected_residual_sq(state: ModelState) -> float:
    """Expected squared transform-domain residual <||Ybar - U V^H - Sbar||^2>.

    Expands into the squared mean residual plus the factor-covariance
    cross terms and the transform-scaled sparse variances.  The sum runs
    over all J slices: each kept slice counts with its weight.
    """
    i1, i2 = state.shape[:2]
    f = state.factors
    terms = np.zeros(state.n_slices)

    def step(k):
        mu, mv = f.u_mean[k], f.v_mean[k]
        su, sv = f.sigma_u[k], f.sigma_v[k]
        res = state.ybar[:, :, k] - mu @ mv.conj().T - state.sbar[:, :, k]
        t = np.sum(np.abs(res) ** 2)
        t += i1 * i2 * np.einsum("ij,ji->", sv, su).real
        t += i1 * np.einsum("ij,ji->", su, mv.conj().T @ mv).real
        t += i2 * np.einsum("ij,ji->", sv, mu.conj().T @ mu).real
        terms[k] = t

    _slice_map(state, step)
    return float(terms @ state.transform.slice_weights
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
    weights.
    """
    ybar = state.ybar
    ynorm = math.sqrt(float(state.transform.slice_weights
                            @ (ybar.real ** 2 + ybar.imag ** 2).sum(axis=(0, 1))))
    if ynorm == 0:
        raise ValueError("fit is undefined for an identically zero observation")
    if resid_sq is None:
        resid_sq = expected_residual_sq(state)
    state.noise.fit = 1.0 - math.sqrt(resid_sq) / ynorm
    return state.noise.fit


def prune_columns(state: ModelState, threshold: Optional[float] = None) -> np.ndarray:
    """Drop factor columns whose relative energy fell below *threshold*.

    Column r of slice k is removed when its mean-plus-covariance energy
    (<U^H U> + <V^H V>)_rr / (I1 + I2) drops below threshold times the
    largest column energy of that slice.  The strongest column survives
    unless the whole slice is exactly zero.  Returns the new multi-rank,
    one rank for each of the J slices.
    """
    if threshold is None:
        threshold = state.hp.prune_threshold
    i1, i2 = state.shape[:2]
    f = state.factors
    noise = state.noise

    def step(k):
        energy = (np.diagonal(_utu(state, k)) + np.diagonal(_vtv(state, k))).real
        energy = energy / (i1 + i2)
        top = energy.max(initial=0.0)
        if top <= 0.0:
            keep = np.zeros(energy.shape, dtype=bool)
        else:
            keep = energy >= threshold * top
        if keep.all():
            return
        f.u_mean[k] = f.u_mean[k][:, keep]
        f.v_mean[k] = f.v_mean[k][:, keep]
        f.sigma_u[k] = f.sigma_u[k][np.ix_(keep, keep)]
        f.sigma_v[k] = f.sigma_v[k][np.ix_(keep, keep)]
        noise.lambda_a[k] = noise.lambda_a[k][keep]
        noise.lambda_b[k] = noise.lambda_b[k][keep]
        f.ranks[k] = int(np.count_nonzero(keep))

    _slice_map(state, step)
    return state.multirank


def _check_state_positive(state: ModelState) -> None:
    noise, sp = state.noise, state.sparse
    ok = (noise.tau_b > 0
          and all((b > 0).all() for b in noise.lambda_b)
          and (sp.beta_b > 0).all()
          and (sp.s_var > 0).all()
          and all(np.diagonal(c).real.min(initial=1.0) > 0
                  for c in state.factors.sigma_u)
          and all(np.diagonal(c).real.min(initial=1.0) > 0
                  for c in state.factors.sigma_v))
    if not ok:
        raise NumericalBreakdownError(
            "a Gamma parameter or posterior variance became non-positive"
        )


def run(y: np.ndarray, L: Transform, hp: HyperParams, seed: int,
        threads: int = 1) -> RunResult:
    """Full inference loop: iterate the posterior updates until the
    reconstruction stabilizes.

    Per iteration the factors, ARD precisions, sparse component, its
    precisions and the noise precision are updated in that order, then
    dead factor columns are pruned.  The loop stops when the relative
    change of the reconstruction drops below ``hp.tol`` or after
    ``hp.max_iter`` iterations; non-convergence is reported in the
    trace, not raised.
    """
    y = _check_observation(y)
    trace = RunTrace()
    if not y.any():
        trace.converged = True
        trace.message = "input tensor is identically zero; returning zeros"
        zeros = np.zeros(y.shape)
        return RunResult(zeros, zeros.copy(),
                         np.zeros(num_slices(y.shape), dtype=np.int64), trace)

    state = init_state(y, L, hp, seed, threads=threads)
    x_prev = reconstruct_x(state)
    if hp.max_iter == 0:
        trace.message = "iteration budget is zero; returning initialization"
        return RunResult(x_prev, state.sparse.s_mean.copy(),
                         state.multirank, trace)

    for it in range(1, hp.max_iter + 1):
        update_u(state)
        update_v(state)
        update_lambda(state)
        update_s(state)
        update_beta(state)
        resid_sq = expected_residual_sq(state)
        update_tau(state, resid_sq=resid_sq)
        compute_fit(state, resid_sq=resid_sq)
        prune_columns(state)
        _check_state_positive(state)

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
