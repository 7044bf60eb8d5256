"""Metric formulas against hand evaluations and naive oracles."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from lmhbrtf.metrics import compute_all, ergas, psnr, sam, ssim


def rng():
    return np.random.default_rng(2024)


def test_psnr_identical_is_inf():
    x = rng().standard_normal((4, 4, 2))
    assert psnr(x, x) == math.inf


def test_psnr_hand_example():
    # all-ones 1x1x4 reference, one entry off by 0.1:
    # 10 log10(4 * 1 / 0.01) = 26.0206 dB
    ref = np.ones((1, 1, 4))
    est = ref.copy()
    est[0, 0, 2] = 1.1
    assert psnr(est, ref) == pytest.approx(10 * math.log10(400.0), abs=1e-9)


def test_psnr_monotone_in_error():
    ref = rng().standard_normal((5, 5, 3))
    noise = rng().standard_normal((5, 5, 3))
    values = [psnr(ref + eps * noise, ref) for eps in (0.01, 0.1, 0.5)]
    assert values[0] > values[1] > values[2]


@pytest.mark.parametrize("metric", [psnr, ssim, ergas, sam, compute_all])
def test_metrics_reject_complex_input(metric):
    x = rng().uniform(0, 1, (8, 8, 2))
    for est, ref in ((x + 1j, x), (x, x + 0j)):
        with pytest.raises(ValueError, match="complex"):
            metric(est, ref)


@pytest.mark.parametrize("shape", [(8, 8, 0), (0, 8, 3)])
@pytest.mark.parametrize("metric", [psnr, ssim, ergas, sam, compute_all])
def test_metrics_reject_a_tensor_without_entries(metric, shape):
    # psnr read +inf ("identical"), ergas NaN; ssim and sam failed in numpy
    empty = np.zeros(shape)
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        metric(empty, empty)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("side", ["estimate", "reference"])
@pytest.mark.parametrize("metric", [psnr, ssim, ergas, sam, compute_all])
def test_metrics_reject_a_non_finite_entry(metric, side, bad):
    # a NaN read nan (sam skipped its pixel), an inf in the estimate failed
    # with "math domain error" and one in the reference read nan everywhere
    ref = rng().uniform(0.1, 1.0, (10, 10, 3, 2))
    est = ref + 0.01
    (est if side == "estimate" else ref)[3, 4, 1, 1] = bad
    # the first bad index in column-major order, as the model names its input's
    (est if side == "estimate" else ref)[5, 4, 0, 1] = bad
    with pytest.raises(ValueError, match=re.escape(
            f"{side} has a non-finite entry {bad} at index (5, 4, 0, 1) "
            "(2 non-finite entries in all)")):
        metric(est, ref)


def test_psnr_shape_mismatch():
    with pytest.raises(ValueError):
        psnr(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))


def test_psnr_all_zero_reference():
    zero = np.zeros((2, 2, 2))
    assert psnr(zero, zero) == math.inf
    # a peak of 0 would take log10(0)
    with pytest.raises(ValueError, match="reference is all zero"):
        psnr(np.ones((2, 2, 2)), zero)


def test_ssim_identical_is_one():
    x = rng().uniform(0, 1, (16, 16, 3))
    assert ssim(x, x) == pytest.approx(1.0, abs=1e-12)


def test_ssim_anticorrelation_is_negative():
    # checkerboard frames: every 8x8 window has exactly zero mean, so the
    # sign is carried by the (negative) covariance term
    i, j = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
    base = np.where((i + j) % 2 == 0, 1.0, -1.0)[:, :, None] * np.ones((1, 1, 2))
    assert ssim(-base, base) < 0


def test_ssim_constant_frames_closed_form():
    a, b = 0.25, 0.75
    ref = np.full((8, 8, 1), b)
    est = np.full((8, 8, 1), a)
    # zero variances: ssim = (2ab + C1) / (a^2 + b^2 + C1); range of the
    # constant reference degenerates to the documented fallback 1.0
    c1 = (0.01 * 1.0) ** 2
    expected = (2 * a * b + c1) / (a * a + b * b + c1)
    assert ssim(est, ref) == pytest.approx(expected, rel=1e-12)


def _ssim_oracle(x_hat, x_gt, window):
    """Mean SSIM from an explicit copy of every window, moments by two passes."""
    rng_ = x_gt.max() - x_gt.min()
    c1, c2 = (0.01 * rng_) ** 2, (0.03 * rng_) ** 2
    values = []
    for k in range(x_gt.shape[2]):
        for i in range(x_gt.shape[0] - window + 1):
            for j in range(x_gt.shape[1] - window + 1):
                a = x_hat[i:i + window, j:j + window, k]
                b = x_gt[i:i + window, j:j + window, k]
                ma, mb = a.mean(), b.mean()
                va, vb = ((a - ma) ** 2).mean(), ((b - mb) ** 2).mean()
                cov = ((a - ma) * (b - mb)).mean()
                values.append((2 * ma * mb + c1) * (2 * cov + c2)
                              / ((ma ** 2 + mb ** 2 + c1) * (va + vb + c2)))
    return float(np.mean(values))


@pytest.mark.parametrize("offset", [0.0, 1e4])
def test_ssim_matches_a_window_by_window_oracle(offset):
    ref = offset + rng().uniform(0, 1, (11, 9, 3))
    est = ref + 0.1 * rng().standard_normal((11, 9, 3))
    assert ssim(est, ref, window=4) == pytest.approx(_ssim_oracle(est, ref, 4), rel=1e-12)


def test_ssim_copies_no_window():
    # every 8x8 window was copied: 4.9 MB for this pair
    ref = np.asfortranarray(rng().uniform(0, 1, (60, 60, 30)))
    est = np.asfortranarray(ref + 0.01 * rng().standard_normal(ref.shape))
    tracemalloc.start()
    try:
        ssim(est, ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000


def test_ssim_window_larger_than_frame():
    with pytest.raises(ValueError):
        ssim(np.zeros((4, 4, 2)), np.zeros((4, 4, 2)), window=8)


@pytest.mark.parametrize("window", [0, -1, True])
def test_ssim_rejects_window_below_one(window):
    with pytest.raises(ValueError, match="SSIM window must be a positive integer"):
        ssim(np.zeros((4, 4, 2)), np.zeros((4, 4, 2)), window=window)


def test_ssim_frame_permutation_invariant():
    x = rng().uniform(0, 1, (12, 12, 4))
    y = rng().uniform(0, 1, (12, 12, 4))
    perm = [2, 0, 3, 1]
    assert ssim(y[:, :, perm], x[:, :, perm]) == pytest.approx(ssim(y, x), rel=1e-12)


def test_ergas_identical_and_unit_ratio():
    x = rng().uniform(1, 2, (6, 6, 2))
    assert ergas(x, x) == 0.0
    ref = np.full((4, 4, 1), 2.0)
    est = ref + 2.0 * np.sign(rng().standard_normal((4, 4, 1)))
    # MSE = 4 = mean^2 -> 100 * scale
    assert ergas(est, ref) == pytest.approx(100.0, rel=1e-12)
    assert ergas(est, ref, scale=0.25) == pytest.approx(25.0, rel=1e-12)


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf, True])
def test_ergas_rejects_scale_that_is_not_finite_and_positive(scale):
    x = np.full((4, 4, 1), 2.0)
    with pytest.raises(ValueError, match="ERGAS scale must be finite and positive"):
        ergas(x, x, scale=scale)


def test_ergas_matches_naive_two_loop_oracle():
    r = rng()
    ref = r.uniform(0.5, 2.0, (5, 4, 3, 2))
    est = ref + 0.1 * r.standard_normal(ref.shape)
    stack_ref = ref.reshape((5, 4, -1), order="F")
    stack_est = est.reshape((5, 4, -1), order="F")
    acc = 0.0
    for k in range(stack_ref.shape[2]):
        mse = np.mean((stack_est[:, :, k] - stack_ref[:, :, k]) ** 2)
        acc += mse / np.mean(stack_ref[:, :, k]) ** 2
    expected = 100.0 * math.sqrt(acc / stack_ref.shape[2])
    assert ergas(est, ref) == pytest.approx(expected, rel=1e-12)


def test_ergas_zero_mean_frame_errors():
    ref = np.zeros((4, 4, 2))
    with pytest.raises(ValueError):
        ergas(ref, ref)


def test_sam_identity_orthogonal_proportional():
    x = rng().uniform(0.1, 1.0, (5, 5, 4))
    assert sam(x, x) == pytest.approx(0.0, abs=1e-5)
    assert sam(2.0 * x, x) == pytest.approx(0.0, abs=1e-5)

    ref = np.zeros((2, 2, 2))
    est = np.zeros((2, 2, 2))
    ref[:, :, 0] = 1.0  # spectra (1, 0) vs (0, 1) at every pixel
    est[:, :, 1] = 1.0
    assert sam(est, ref) == pytest.approx(90.0, abs=1e-12)


def test_sam_skips_zero_pixels_and_scale_invariance():
    ref = rng().uniform(0.1, 1.0, (3, 3, 4))
    est = ref + 0.05 * rng().standard_normal(ref.shape)
    ref_zero = ref.copy()
    est_zero = est.copy()
    ref_zero[0, 0, :] = 0.0  # skipped pixel
    base_angles = []
    for i in range(3):
        for j in range(3):
            if i == 0 and j == 0:
                continue
            u, v = est_zero[i, j, :], ref_zero[i, j, :]
            cosv = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
            base_angles.append(math.degrees(math.acos(min(1.0, max(-1.0, cosv)))))
    assert sam(est_zero, ref_zero) == pytest.approx(np.mean(base_angles), rel=1e-12)

    # positive per-pixel rescaling of both inputs leaves angles unchanged
    scales = rng().uniform(0.5, 3.0, (3, 3, 1))
    assert sam(est * scales, ref * scales) == pytest.approx(sam(est, ref), rel=1e-9)


def test_sam_all_zero_errors():
    with pytest.raises(ValueError):
        sam(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))


def test_compute_all_bundle():
    x = rng().uniform(0, 1, (16, 16, 3))
    rep = compute_all(x, x)
    assert rep.psnr == math.inf
    assert rep.ssim == pytest.approx(1.0, abs=1e-12)
    assert rep.ergas == 0.0
    assert rep.sam == pytest.approx(0.0, abs=1e-5)
    d = rep.as_dict()
    assert set(d) == {"psnr", "ssim", "ergas", "sam"}
