"""Denoising quality metrics: PSNR, SSIM, ERGAS and SAM.

Tensors of order above 3 are treated as stacks of 2-D frames: one frame
per combination of trailing indices (modes 3..d), enumerated in the
package's column-major slice order.  SAM instead treats each (i1, i2)
pixel's values across all trailing indices as its spectral vector.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import _check_number
from .tensor import num_slices, to_slice_stack

__all__ = ["MetricReport", "psnr", "ssim", "ergas", "sam", "compute_all"]


class MetricReport:
    """Bundle of the four metrics; psnr is +inf for identical inputs,
    sam is reported in degrees."""

    def __init__(self, psnr: float, ssim: float, ergas: float, sam: float):
        self.psnr, self.ssim, self.ergas, self.sam = psnr, ssim, ergas, sam

    def as_dict(self) -> dict:
        return dict(vars(self))


def _check_shapes(x_hat: np.ndarray, x_gt: np.ndarray) -> None:
    if np.iscomplexobj(x_hat) or np.iscomplexobj(x_gt):
        raise ValueError("metrics need real tensors, got a complex one")
    if x_hat.shape != x_gt.shape:
        raise ValueError(f"shape mismatch: {x_hat.shape} vs {x_gt.shape}")
    if x_gt.size == 0:
        raise ValueError(f"metrics need a tensor with entries, got shape {x_gt.shape}")


def psnr(x_hat: np.ndarray, x_gt: np.ndarray) -> float:
    """10 log10(numel * max|x_gt|^2 / ||x_hat - x_gt||_F^2), in dB.

    Identical inputs give the +inf sentinel; an all-zero reference with
    any other estimate is an error.
    """
    _check_shapes(x_hat, x_gt)
    err = float(np.sum((np.asarray(x_hat, dtype=np.float64)
                        - np.asarray(x_gt, dtype=np.float64)) ** 2))
    if err == 0.0:
        return math.inf
    peak = float(np.max(np.abs(x_gt)))
    if peak == 0.0:
        raise ValueError("the reference is all zero; PSNR peak undefined")
    return 10.0 * math.log10(x_gt.size * peak * peak / err)


def _frame_windows(frame: np.ndarray, window: int) -> np.ndarray:
    view = np.lib.stride_tricks.sliding_window_view(frame, (window, window))
    return view.reshape(-1, window * window)


def ssim(x_hat: np.ndarray, x_gt: np.ndarray, window: int = 8) -> float:
    """Mean structural similarity over all full window positions of all frames.

    Uses a uniform window (default 8x8) with biased moments and the
    constants C1 = (0.01 R)^2, C2 = (0.03 R)^2 where R is the value
    range of the reference.  A window below 1, or frames smaller than the
    window, are an error.
    """
    _check_shapes(x_hat, x_gt)
    window = _check_number("SSIM window", window, 1, integer=True)
    i1, i2 = x_gt.shape[:2]
    if i1 < window or i2 < window:
        raise ValueError(f"frame size {(i1, i2)} is smaller than the {window}x{window} window")
    rng = float(np.max(x_gt) - np.min(x_gt))
    if rng == 0.0:
        rng = 1.0
    c1 = (0.01 * rng) ** 2
    c2 = (0.03 * rng) ** 2
    hats = to_slice_stack(np.asarray(x_hat, dtype=np.float64))
    refs = to_slice_stack(np.asarray(x_gt, dtype=np.float64))
    values = []
    for hat, ref in zip(hats, refs):
        a = _frame_windows(hat, window)
        b = _frame_windows(ref, window)
        mu_a = a.mean(axis=1)
        mu_b = b.mean(axis=1)
        var_a = (a * a).mean(axis=1) - mu_a ** 2
        var_b = (b * b).mean(axis=1) - mu_b ** 2
        cov = (a * b).mean(axis=1) - mu_a * mu_b
        num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
        den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
        values.append(num / den)
    return float(np.concatenate(values).mean())


def ergas(x_hat: np.ndarray, x_gt: np.ndarray, scale: float = 1.0) -> float:
    """100 * scale * sqrt(mean over frames of MSE_f / mean_f^2).

    The scale must be finite and positive.
    """
    _check_shapes(x_hat, x_gt)
    scale = _check_number("ERGAS scale", scale, 0, open_low=True)
    hats = to_slice_stack(np.asarray(x_hat, dtype=np.float64))
    refs = to_slice_stack(np.asarray(x_gt, dtype=np.float64))
    means = refs.mean(axis=(1, 2))
    if (means == 0.0).any():
        raise ValueError("a reference frame has zero mean; ratio undefined")
    mse = ((hats - refs) ** 2).mean(axis=(1, 2))
    return float(100.0 * scale * math.sqrt(float(np.mean(mse / means ** 2))))


def sam(x_hat: np.ndarray, x_gt: np.ndarray) -> float:
    """Mean spectral angle (degrees) between per-pixel trailing-mode vectors.

    Pixels where either vector is zero are skipped; all-zero inputs are
    an error.
    """
    _check_shapes(x_hat, x_gt)
    # column p of the (J, I1 * I2) slice stack is pixel p's spectral vector
    j = num_slices(x_gt.shape)
    a = to_slice_stack(np.asarray(x_hat, dtype=np.float64)).reshape(j, -1)
    b = to_slice_stack(np.asarray(x_gt, dtype=np.float64)).reshape(j, -1)
    na = np.linalg.norm(a, axis=0)
    nb = np.linalg.norm(b, axis=0)
    keep = (na > 0) & (nb > 0)
    if not keep.any():
        raise ValueError("all pixel spectra are zero; angle undefined")
    cosines = np.einsum("ji,ji->i", a[:, keep], b[:, keep]) / (na[keep] * nb[keep])
    angles = np.degrees(np.arccos(np.clip(cosines, -1.0, 1.0)))
    return float(angles.mean())


def compute_all(x_hat: np.ndarray, x_gt: np.ndarray, window: int = 8,
                scale: float = 1.0) -> MetricReport:
    """All four metrics in one report."""
    return MetricReport(psnr=psnr(x_hat, x_gt),
                        ssim=ssim(x_hat, x_gt, window=window),
                        ergas=ergas(x_hat, x_gt, scale=scale),
                        sam=sam(x_hat, x_gt))
