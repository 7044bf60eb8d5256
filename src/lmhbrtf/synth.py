"""Synthetic corrupted-tensor generator, recovery scoring and benchmark grid.

An instance is built as Y = X_gt + S_gt + E_gt: a low-multi-rank part
from the t-product of standard-Gaussian factor tensors truncated to a
prescribed per-slice rank pattern, a sparse part with a fixed count of
uniform outliers, and dense Gaussian noise.  The truncation runs on the
R x R cores of the factors' thin t-QRs, never on an I1 x I2 slice.
Recovery quality is scored by the mean absolute per-slice rank
deviation (rank error) and the relative Frobenius error of the
recovered low-rank part.
"""

from __future__ import annotations

import math
import time
from typing import Optional

import numpy as np

from .model import HyperParams, _check_seed, run
from .report import RunReport
from .tensor import num_slices
from .transform import Transform
from .tsvd import conj_transpose, t_product, t_qr, truncate_multi_rank

__all__ = [
    "SynthConfig",
    "SynthInstance",
    "uniform_multirank",
    "desk_multirank",
    "generate",
    "r_err",
    "x_err",
    "protocol_hyperparams",
    "run_benchmark",
    "corrupt_tensor",
    "check_corruption",
]

# sub-stream labels under the user seed; fixed so runs are reproducible
_FACTOR_STREAM = 0
_SPARSE_STREAM = 1
_NOISE_STREAM = 2
_CORRUPT_STREAM = 4


def check_corruption(rho: float, sigma_sq: float, low: float = -10.0,
                     high: float = 10.0) -> None:
    """Reject corruption levels that are out of range or not finite.

    ``rho`` (the outlier fraction) must lie in [0, 1], ``sigma_sq`` (the
    noise variance) must be finite and nonnegative, and the outlier range
    [``low``, ``high``) must be finite and nonempty; by default it is the
    generator's [-10, 10).
    """
    if not 0.0 <= rho <= 1.0:  # NaN fails too
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    if not 0.0 <= sigma_sq < math.inf:
        raise ValueError(f"sigma_sq must be finite and nonnegative, got {sigma_sq}")
    if not -math.inf < low < high < math.inf:
        raise ValueError(f"corruption range [{low}, {high}] must be finite "
                         "and satisfy high > low")


class SynthConfig:
    """One synthetic scenario: shape, planted ranks and corruption levels.

    Outliers are drawn from Uniform[-10, 10]; slices must be at least
    2 x 2, because a 1 x n or n x 1 slice is full rank at rank 1.
    """

    def __init__(self, shape: tuple, base_rank: int, multirank: np.ndarray,
                 rho: float, sigma_sq: float, seed: int):
        self.shape = tuple(int(n) for n in shape)
        self.base_rank = base_rank
        self.multirank = np.asarray(multirank, dtype=np.int64)
        self.rho, self.sigma_sq, self.seed = rho, sigma_sq, seed
        if len(self.shape) < 3:
            raise ValueError("synthetic tensors must have order >= 3")
        if min(self.shape[:2]) < 2:
            raise ValueError(f"shape {self.shape} has {self.shape[0]} x {self.shape[1]} "
                             "slices; the low-rank part needs I1 and I2 >= 2")
        if not isinstance(self.base_rank, (int, np.integer)) or self.base_rank < 1:
            raise ValueError(f"base_rank must be an integer of at least 1, got "
                             f"{self.base_rank!r}")
        _check_seed(seed)
        j = num_slices(self.shape)
        if self.multirank.shape != (j,):
            raise ValueError(f"multirank pattern must have length {j}")
        if (self.multirank < 0).any() or (self.multirank > self.base_rank).any():
            raise ValueError("pattern entries must lie in [0, base_rank]")
        if self.base_rank > min(self.shape[:2]):
            raise ValueError("base_rank must not exceed min(I1, I2)")
        check_corruption(rho, sigma_sq)

    def __repr__(self) -> str:
        return f"SynthConfig({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def as_dict(self) -> dict:
        return {
            "shape": list(self.shape),
            "base_rank": int(self.base_rank),
            "multirank": [int(r) for r in self.multirank],
            "rho": float(self.rho),
            "sigma_sq": float(self.sigma_sq),
            "seed": int(self.seed),
        }


class SynthInstance:
    """Generated tensors: y = x_gt + s_gt + e_gt."""

    def __init__(self, y: np.ndarray, x_gt: np.ndarray, s_gt: np.ndarray,
                 e_gt: np.ndarray, multirank_gt: np.ndarray):
        self.y, self.x_gt, self.s_gt, self.e_gt = y, x_gt, s_gt, e_gt
        self.multirank_gt = multirank_gt


def uniform_multirank(trailing, rank: int) -> np.ndarray:
    """Constant rank pattern over all slices."""
    return np.full(int(np.prod(tuple(trailing))), int(rank), dtype=np.int64)


def desk_multirank(trailing, base_rank: int) -> np.ndarray:
    """Mixed full/half-rank patterns for the benchmark shapes.

    Patterns alternate blocks of the base rank R and max(1, R // 2),
    chosen mirror-symmetric per trailing mode (conjugate-paired DFT
    slices get equal ranks) so that the planted tensor is real.
    Supported trailing shapes: (n,) with n >= 5, (5, 5) and (3, 3, 3).
    """
    trailing = tuple(int(n) for n in trailing)
    r = int(base_rank)
    h = max(1, r // 2)
    if len(trailing) == 1:
        j = trailing[0]
        if j < 5:
            raise ValueError("order-3 desk pattern needs at least 5 slices")
        edge = int(round(0.2 * j))
        pattern = np.full(j, r, dtype=np.int64)
        pattern[1:1 + edge] = h
        pattern[j - edge:] = h
        return pattern
    if trailing == (5, 5):
        big = {0, 2, 3}  # mirror-closed: 2 <-> 3, 0 fixed
        return np.array(
            [r if (i3 in big and i4 in big) else h
             for i4 in range(5) for i3 in range(5)], dtype=np.int64)
    if trailing == (3, 3, 3):
        big = {1, 2}  # mirror-closed pair
        return np.array(
            [r if (i3 in big and i4 in big) else h
             for i5 in range(3) for i4 in range(3) for i3 in range(3)],
            dtype=np.int64)
    raise ValueError(
        f"no desk pattern defined for trailing shape {trailing}; "
        "pass an explicit pattern instead"
    )


def generate(cfg: SynthConfig, L: Optional[Transform] = None) -> SynthInstance:
    """Draw one synthetic instance; deterministic given cfg.seed.

    Factor tensors u (I1 x R) and v (I2 x R) are sampled i.i.d. standard
    normal in the original domain; X_gt is u * v^H truncated to the rank
    pattern.  With the thin t-QRs u = q_u * r_u and v = q_v * r_v, every
    slice of u * v^H is Q_u (R_u R_v^H) Q_v^H with orthonormal Q_u, Q_v,
    so only the R x R core r_u * r_v^H is truncated.  Exactly
    floor(rho * numel) entries of the sparse part are set to
    Uniform[-10, 10]; the noise part is i.i.d. N(0, sigma_sq).
    """
    if L is None:
        L = Transform.dft(cfg.shape[2:])
    if L.trailing != cfg.shape[2:]:
        raise ValueError(f"transform trailing shape {L.trailing} does not match "
                         f"the tensor shape {cfg.shape}")
    if L.real_safe and not np.array_equal(cfg.multirank[L.mirror], cfg.multirank):
        raise ValueError(
            "rank pattern is not symmetric across conjugate-mirrored slices; "
            "the planted low-rank tensor would not be real"
        )
    shape = cfg.shape
    trailing = shape[2:]

    rng_f = np.random.default_rng(np.random.SeedSequence([cfg.seed, _FACTOR_STREAM]))
    u = rng_f.standard_normal((shape[0], cfg.base_rank) + trailing)
    v = rng_f.standard_normal((shape[1], cfg.base_rank) + trailing)
    (qu, ru), (qv, rv) = t_qr(u, L), t_qr(v, L)
    core = truncate_multi_rank(t_product(ru, conj_transpose(rv, L), L), L, cfg.multirank)
    x_gt = t_product(t_product(qu, core, L), conj_transpose(qv, L), L)

    rng_s = np.random.default_rng(np.random.SeedSequence([cfg.seed, _SPARSE_STREAM]))
    n = int(np.prod(shape))
    count = int(math.floor(cfg.rho * n))
    s_flat = np.zeros(n)
    if count:
        where = rng_s.choice(n, size=count, replace=False)
        s_flat[where] = rng_s.uniform(-10.0, 10.0, size=count)
    s_gt = s_flat.reshape(shape, order="F")

    rng_e = np.random.default_rng(np.random.SeedSequence([cfg.seed, _NOISE_STREAM]))
    e_gt = rng_e.normal(0.0, math.sqrt(cfg.sigma_sq), size=shape)

    return SynthInstance(y=x_gt + s_gt + e_gt, x_gt=x_gt, s_gt=s_gt,
                         e_gt=e_gt, multirank_gt=cfg.multirank.copy())


def r_err(estimated, ground_truth) -> float:
    """Mean absolute per-slice rank deviation."""
    est = np.asarray(estimated, dtype=np.int64)
    gt = np.asarray(ground_truth, dtype=np.int64)
    if est.shape != gt.shape:
        raise ValueError(f"rank vectors differ in length: {est.shape} vs {gt.shape}")
    return float(np.abs(est - gt).mean())


def x_err(x_hat: np.ndarray, x_gt: np.ndarray) -> float:
    """Relative Frobenius error of the recovered low-rank part."""
    if x_hat.shape != x_gt.shape:
        raise ValueError(f"shape mismatch: {x_hat.shape} vs {x_gt.shape}")
    denom = np.linalg.norm(np.ravel(x_gt))
    if denom == 0:
        raise ValueError("ground truth tensor is zero; relative error undefined")
    return float(np.linalg.norm(np.ravel(x_hat - x_gt)) / denom)


def protocol_hyperparams(shape) -> HyperParams:
    """Inference settings for the synthetic benchmark.

    Initial rank half the smaller slice side (at least 1), unit initial
    sparse variance, refinement divisor 1, a 1e-6 convergence threshold
    and at most 2,500 iterations.
    """
    return HyperParams(init_rank=max(1, min(shape[0], shape[1]) // 2),
                       sigma0_sq=1.0, gamma=1.0, tol=1e-6, max_iter=2500)


def run_benchmark(configs, hp: Optional[HyperParams] = None,
                  model_seed: int = 11,
                  repeats: int = 1, on_cell=None) -> RunReport:
    """generate -> run -> score over a grid of configs.

    *repeats* must be at least 1.  With repeats > 1 each config is rerun
    with shifted data seeds and the mean errors are reported alongside
    the per-repeat rows.  The optional *on_cell* callback receives
    (config, instance, result) for every completed run, e.g. to persist
    tensors.  Each per-repeat row holds ``noise_var``, the noise
    variance 1/tau estimated at the last iteration (None when no
    iteration ran).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    cells = []
    for cfg in configs:
        hp_cell = hp if hp is not None else protocol_hyperparams(cfg.shape)
        rows = []
        for rep in range(repeats):
            cfg_rep = SynthConfig(cfg.shape, cfg.base_rank, cfg.multirank,
                                  cfg.rho, cfg.sigma_sq, cfg.seed + rep)
            t0 = time.perf_counter()
            inst = generate(cfg_rep)
            t1 = time.perf_counter()
            result = run(inst.y, Transform.dft(cfg.shape[2:]), hp_cell,
                         seed=model_seed)
            t2 = time.perf_counter()
            if on_cell is not None:
                on_cell(cfg_rep, inst, result)
            rows.append({
                "seed": int(cfg_rep.seed),
                "r_err": r_err(result.multirank, inst.multirank_gt),
                "x_err": x_err(result.x_hat, inst.x_gt),
                "noise_var": (1.0 / result.trace.records[-1].tau_mean
                              if result.trace.records else None),
                "multirank": [int(r) for r in result.multirank],
                "iterations": len(result.trace.records),
                "converged": result.trace.converged,
                "trace": result.trace.as_dicts(),
                "timing": {"generate_s": t1 - t0, "run_s": t2 - t1},
            })
        cells.append({
            "config": cfg.as_dict(),
            "repeats": rows,
            "r_err_mean": float(np.mean([r["r_err"] for r in rows])),
            "x_err_mean": float(np.mean([r["x_err"] for r in rows])),
        })
    return RunReport(
        command="run_benchmark",
        config={
            "repeats": int(repeats),
            "model_seed": int(model_seed),
            "hyperparams": "protocol" if hp is None else hp.as_dict(),
        },
        results={"cells": cells},
    )


def corrupt_tensor(x: np.ndarray, rho: float, low: float, high: float,
                   sigma_sq: float, seed: int,
                   normalize: bool = False) -> np.ndarray:
    """Outlier-corrupt, optionally normalize, then add Gaussian noise.

    Exactly floor(rho * numel) entries are replaced by Uniform[low, high)
    draws; with *normalize* the result is mapped by (x - low)/(high - low);
    finally i.i.d. N(0, sigma_sq) noise is added to every entry.  The
    steps run in exactly this order.
    """
    check_corruption(rho, sigma_sq, low, high)
    _check_seed(seed)
    if np.iscomplexobj(x):
        raise ValueError("corrupt_tensor needs a real tensor, got a complex one")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _CORRUPT_STREAM]))
    out = np.array(x, dtype=np.float64)
    n = out.size
    count = int(math.floor(rho * n))
    flat = out.reshape(-1, order="F")
    if count:
        where = rng.choice(n, size=count, replace=False)
        flat[where] = rng.uniform(low, high, size=count)
    out = flat.reshape(out.shape, order="F")
    if normalize:
        out = (out - low) / (high - low)
    if sigma_sq > 0:
        out = out + rng.normal(0.0, math.sqrt(sigma_sq), size=out.shape)
    return out
