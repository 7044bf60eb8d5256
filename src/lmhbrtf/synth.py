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

from .errors import SettingError, _check_integer_array, _check_number
from .model import HyperParams, _check_init_rank, run
from .report import RunReport
from .tensor import as_tensor, num_slices
from .transform import Transform, _check_trailing, _Frozen, _read_only
from .tsvd import _check_mirror_symmetric, conj_transpose, t_product, t_qr, truncate_multi_rank

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
                     high: float = 10.0) -> tuple:
    """The corruption levels as plain floats, or a SettingError.

    ``rho`` (the outlier fraction) must lie in [0, 1], ``sigma_sq`` (the
    noise variance) must be finite and nonnegative, and the outlier range
    [``low``, ``high``) must be finite and nonempty; by default it is the
    generator's [-10, 10).  Returns ``(rho, sigma_sq, low, high)``.
    """
    levels = (_check_number("rho", rho, 0, 1), _check_number("sigma_sq", sigma_sq, 0),
              _check_number("low", low), _check_number("high", high))
    if not levels[2] < levels[3]:
        raise SettingError(f"corruption range [{low}, {high}] must satisfy high > low")
    return levels


class SynthConfig(_Frozen):
    """One synthetic scenario: shape, planted ranks and corruption levels.

    Outliers are drawn from Uniform[-10, 10]; slices must be at least
    2 x 2, because a 1 x n or n x 1 slice is full rank at rank 1.  The
    fields cannot be reassigned, and ``multirank`` is read-only.
    """

    def __init__(self, shape: tuple, base_rank: int, multirank: np.ndarray,
                 rho: float, sigma_sq: float, seed: int):
        shape = tuple(_check_number(f"shape[{i}]", n, 1, integer=True)
                      for i, n in enumerate(shape))
        if len(shape) < 3:
            raise SettingError("synthetic tensors must have order >= 3")
        if min(shape[:2]) < 2:
            raise SettingError(f"shape {shape} has {shape[0]} x {shape[1]} "
                             "slices; the low-rank part needs I1 and I2 >= 2")
        base_rank = _check_number("base_rank", base_rank, 1, min(shape[:2]), integer=True)
        multirank = _check_integer_array("multirank", multirank, num_slices(shape), base_rank)
        rho, sigma_sq, _, _ = check_corruption(rho, sigma_sq)
        seed = _check_number("seed", seed, 0, integer=True)
        if not multirank.any():
            raise SettingError("pattern has no positive rank, so the planted "
                             "low-rank tensor is zero")
        vars(self).update(shape=shape, base_rank=base_rank, multirank=_read_only(multirank),
                          rho=rho, sigma_sq=sigma_sq, seed=seed)

    def as_dict(self) -> dict:
        return dict(vars(self), shape=list(self.shape), multirank=self.multirank.tolist())


class SynthInstance:
    """Generated tensors: y = x_gt + s_gt + e_gt."""

    def __init__(self, y: np.ndarray, x_gt: np.ndarray, s_gt: np.ndarray,
                 e_gt: np.ndarray, multirank_gt: np.ndarray):
        self.y, self.x_gt, self.s_gt, self.e_gt = y, x_gt, s_gt, e_gt
        self.multirank_gt = multirank_gt


def uniform_multirank(trailing, rank: int) -> np.ndarray:
    """Constant rank pattern over all slices."""
    rank = _check_number("rank", rank, 0, integer=True)
    return np.full(math.prod(_check_trailing(trailing)), rank, dtype=np.int64)


def desk_multirank(trailing, base_rank: int) -> np.ndarray:
    """Mixed full/half-rank patterns for the benchmark shapes.

    Patterns alternate blocks of the base rank R and max(1, R // 2),
    chosen mirror-symmetric per trailing mode (conjugate-paired DFT
    slices get equal ranks) so that the planted tensor is real.
    Supported trailing shapes: (n,) with n >= 5, (5, 5) and (3, 3, 3).
    """
    trailing = _check_trailing(trailing)
    r = _check_number("base_rank", base_rank, 1, integer=True)
    h = max(1, r // 2)
    if len(trailing) == 1:
        j = trailing[0]
        if j < 5:
            raise SettingError("order-3 desk pattern needs at least 5 slices")
        edge = int(round(0.2 * j))
        pattern = np.full(j, r, dtype=np.int64)
        pattern[1:1 + edge] = h
        pattern[j - edge:] = h
        return pattern
    # full rank where i3 and i4 are both in a mirror-closed set: under
    # I = 5, 2 <-> 3 and 0 is fixed; under I = 3, 1 <-> 2
    big = {(5, 5): [0, 2, 3], (3, 3, 3): [1, 2]}.get(trailing)
    if big is None:
        raise SettingError(
            f"no desk pattern defined for trailing shape {trailing}; "
            "pass an explicit pattern instead"
        )
    i3, i4 = np.indices(trailing).reshape(len(trailing), -1, order="F")[:2]
    return np.where(np.isin(i3, big) & np.isin(i4, big), r, h).astype(np.int64)


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
        raise SettingError(f"transform trailing shape {L.trailing} does not match "
                           f"the tensor shape {cfg.shape}")
    _check_mirror_symmetric(cfg.multirank, L)
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
    """Mean absolute rank deviation of two nonempty, equal-length vectors
    of nonnegative integers; a float or bool vector is an error, not truncated."""
    est = _check_integer_array("estimated rank vector", estimated)
    gt = _check_integer_array("ground_truth rank vector", ground_truth)
    if est.size != gt.size:
        raise ValueError(f"rank vectors differ in length: {est.size} vs {gt.size}")
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
    tensors.
    """
    repeats = _check_number("repeats", repeats, 1, integer=True)
    model_seed = _check_number("model_seed", model_seed, 0, integer=True)
    cells = []
    for cfg in configs:
        hp_cell = hp if hp is not None else protocol_hyperparams(cfg.shape)
        _check_init_rank(hp_cell, cfg.shape)
        rows = []
        for rep in range(repeats):
            cfg_rep = SynthConfig(cfg.shape, cfg.base_rank, cfg.multirank,
                                  cfg.rho, cfg.sigma_sq, cfg.seed + rep)
            t0 = time.perf_counter()
            inst = generate(cfg_rep)
            t1 = time.perf_counter()
            result = run(inst.y, Transform.dft(cfg.shape[2:]), hp_cell, seed=model_seed)
            t2 = time.perf_counter()
            if on_cell is not None:
                on_cell(cfg_rep, inst, result)
            rows.append({
                "seed": cfg_rep.seed,
                "r_err": r_err(result.multirank, inst.multirank_gt),
                "x_err": x_err(result.x_hat, inst.x_gt),
                **result.report_fields(),
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
            "repeats": repeats,
            "model_seed": model_seed,
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
    steps run in exactly this order, on a real tensor that passes
    :func:`tensor.as_tensor`, and in place on one column-major copy of
    it, which is returned.
    """
    rho, sigma_sq, low, high = check_corruption(rho, sigma_sq, low, high)
    seed = _check_number("seed", seed, 0, integer=True)
    x = as_tensor(x, "input", real=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _CORRUPT_STREAM]))
    n = x.size
    count = int(math.floor(rho * n))
    if count:  # drawn before the copy: the draw shuffles one index per entry
        where = rng.choice(n, size=count, replace=False)
        values = rng.uniform(low, high, size=count)
    flat = x.flatten(order="F")  # a copy: the caller's tensor is left as it is
    if count:
        flat[where] = values
        del where, values  # released before the noise, as large as the tensor
    out = flat.reshape(x.shape, order="F")  # column-major, as every step keeps it
    if normalize:
        out -= low
        out /= high - low
    if sigma_sq > 0:
        out += rng.normal(0.0, math.sqrt(sigma_sq), size=out.shape)
    return out
