"""Acceptance gate: every shipping criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (run with `pytest -s` to see
them all).  The heavy recovery grids run once in session fixtures; the
determinism criterion reruns them and compares bitwise.
"""

import copy
import hashlib
import math
import time

import numpy as np
import pytest
import scipy.special as sps
from factor_edits import edited_factors

from lmhbrtf.metrics import psnr
from lmhbrtf.model import (
    GAMMA_PRIOR,
    HyperParams,
    expected_residual_sq,
    init_state,
    run,
    update_beta,
    update_lambda,
    update_s,
    update_tau,
    update_u,
    update_v,
)
from lmhbrtf.report import strip_timing
from lmhbrtf.synth import (
    SynthConfig,
    corrupt_tensor,
    desk_multirank,
    generate,
    protocol_hyperparams,
    run_benchmark,
    uniform_multirank,
)
from lmhbrtf.tensor import bdiag, frobenius_norm, to_slice_stack
from lmhbrtf.transform import Transform, real_part
from lmhbrtf.tsvd import conj_transpose, facewise_product, identity_tensor, t_product, t_svd

# the recovery grids take most of the suite's time; `pytest -m "not slow"`
# runs everything else
pytestmark = pytest.mark.slow


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _random_shape(rng, max_dim=20):
    order = int(rng.integers(3, 6))
    return tuple(int(rng.integers(2, max_dim + 1)) for _ in range(order))


# --------------------------------------------------------------------------
# criterion 1: transform round trip


def test_criterion_1_transform_roundtrip():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        shape = _random_shape(rng)
        x = rng.standard_normal(shape)
        L = Transform.dft(shape[2:])
        back = real_part(L.inverse(L.forward(x)))
        worst = max(worst, frobenius_norm(back - x) / frobenius_norm(x))
    elapsed = time.perf_counter() - t0
    _report("criterion 1 (transform round trip)",
            worst <= 1e-12 and elapsed < 5.0,
            f"worst rel err {worst:.3e} (<=1e-12), {elapsed:.2f}s (<5s)")


# --------------------------------------------------------------------------
# criterion 2: t-algebra vs block-diagonal oracle


def test_criterion_2_bdiag_oracle_equivalence():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst = 0.0

    def rel(a, b):
        return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)

    for trailing in [(4,), (7,), (2, 3), (4, 4), (2, 2, 2)]:
        L = Transform.dft(trailing)
        i1, inner, i2 = (int(rng.integers(2, 6)) for _ in range(3))
        x = rng.standard_normal((i1, inner) + trailing)
        y = rng.standard_normal((inner, i2) + trailing)

        worst = max(worst, rel(bdiag(facewise_product(x, y)),
                               bdiag(x) @ bdiag(y)))
        z = t_product(x, y, L)
        worst = max(worst, rel(bdiag(L.forward(z)),
                               bdiag(L.forward(x)) @ bdiag(L.forward(y))))
        worst = max(worst, rel(bdiag(L.forward(conj_transpose(x, L))),
                               bdiag(L.forward(x)).conj().T))
        eye_r = identity_tensor(inner, L)
        eye_l = identity_tensor(i1, L)
        worst = max(worst, rel(t_product(x, eye_r, L), x))
        worst = max(worst, rel(t_product(eye_l, x, L), x))
    elapsed = time.perf_counter() - t0
    _report("criterion 2 (t-algebra bdiag oracle)",
            worst <= 1e-12 and elapsed < 10.0,
            f"worst rel err {worst:.3e} (<=1e-12), {elapsed:.2f}s (<10s)")


# --------------------------------------------------------------------------
# criterion 3: t-SVD contract on 50 random DFT cases


def test_criterion_3_tsvd_contract():
    rng = np.random.default_rng(303)
    worst_recon = worst_orth = worst_identity = worst_decrease = 0.0
    for _ in range(50):
        shape = _random_shape(rng, max_dim=8)
        x = rng.standard_normal(shape)
        L = Transform.dft(shape[2:])
        res = t_svd(x, L)
        recon = t_product(t_product(res.u, res.s, L), conj_transpose(res.v, L), L)
        worst_recon = max(worst_recon,
                          frobenius_norm(np.real(recon) - x) / frobenius_norm(x))

        ubar = to_slice_stack(L.forward(res.u))
        vbar = to_slice_stack(L.forward(res.v))
        sbar = to_slice_stack(L.forward(res.s))
        i1, i2 = shape[:2]
        for k in range(ubar.shape[0]):
            worst_orth = max(
                worst_orth,
                np.linalg.norm(ubar[k].conj().T @ ubar[k] - np.eye(i1)),
                np.linalg.norm(vbar[k].conj().T @ vbar[k] - np.eye(i2)),
            )

        # first original-domain slice of s: phi-scaled sums, nonincreasing
        m = min(i1, i2)
        first = res.s[(slice(None), slice(None)) + (0,) * (len(shape) - 2)]
        diag = np.diagonal(np.real(first))[:m]
        sums = np.diagonal(sbar.sum(axis=0)).real[:m] / L.phi
        denom = max(abs(sums[0]), 1e-300)
        worst_identity = max(worst_identity,
                             float(np.max(np.abs(diag - sums))) / denom)
        if m > 1:
            worst_decrease = max(worst_decrease,
                                 max(0.0, float(np.diff(diag).max())))
    ok = (worst_recon <= 1e-10 and worst_orth <= 1e-10
          and worst_identity <= 1e-10 and worst_decrease <= 1e-10)
    _report("criterion 3 (t-SVD contract)", ok,
            f"recon {worst_recon:.2e}, orth {worst_orth:.2e}, "
            f"diag-sum identity {worst_identity:.2e}, "
            f"monotonicity slack {worst_decrease:.2e} (each <=1e-10)")


# --------------------------------------------------------------------------
# criteria 4/5/9 fixtures: recovery grids and the denoising smoke run


def _grid_configs(shape, base_seed):
    pattern = desk_multirank(shape[2:], 5)
    cells = []
    for i, (rho, sigma_sq) in enumerate(
            [(0.05, 1e-4), (0.05, 1e-1), (0.10, 1e-4),
             (0.10, 1e-1), (0.20, 1e-4), (0.20, 1e-1)]):
        cells.append(SynthConfig(shape=shape, base_rank=5, multirank=pattern,
                                 rho=rho, sigma_sq=sigma_sq, seed=base_seed + i))
    return cells


def _run_grid(shapes_and_seeds):
    configs = []
    for shape, base_seed in shapes_and_seeds:
        configs.extend(_grid_configs(shape, base_seed))
    digests = []

    def digest(cfg, inst, result):
        h = hashlib.sha256()
        h.update(result.x_hat.tobytes())
        h.update(result.s_hat.tobytes())
        h.update(np.asarray(result.multirank, dtype=np.int64).tobytes())
        digests.append(h.hexdigest())

    report = run_benchmark(configs, hp=None, model_seed=11, on_cell=digest)
    cells = report.results["cells"]
    rows = []
    for cfg, cell in zip(configs, cells):
        rep = cell["repeats"][0]
        rows.append({
            "shape": cfg.shape,
            "rho": cfg.rho,
            "sigma_sq": cfg.sigma_sq,
            "r_err": rep["r_err"],
            "x_err": rep["x_err"],
            "seconds": rep["timing"]["generate_s"] + rep["timing"]["run_s"],
            "converged": rep["converged"],
        })
    return {"rows": rows, "digests": digests,
            "report": strip_timing(report.as_dict())}


@pytest.fixture(scope="session")
def grid_order3():
    return _run_grid([((50, 50, 50), 100)])


@pytest.fixture(scope="session")
def grid_order45():
    return _run_grid([((50, 50, 5, 5), 200), ((50, 50, 3, 3, 3), 300)])


def _smoke_run():
    cfg = SynthConfig(shape=(60, 60, 3, 10), base_rank=5,
                      multirank=uniform_multirank((3, 10), 5),
                      rho=0.0, sigma_sq=0.0, seed=900)
    inst = generate(cfg)
    lo, hi = inst.x_gt.min(), inst.x_gt.max()
    clean255 = 255.0 * (inst.x_gt - lo) / (hi - lo)
    observed = corrupt_tensor(clean255, rho=0.2, low=0.0, high=255.0,
                              sigma_sq=1e-4, seed=901, normalize=True)
    reference = clean255 / 255.0
    # exactly-low-rank synthetic data dips below the video-grade 1e-4
    # change criterion mid-transient, so the smoke run uses the
    # synthetic-grade tolerance
    hp = HyperParams(init_rank=30, sigma0_sq=1e-7, gamma=None,
                     tol=1e-6, max_iter=400)
    t0 = time.perf_counter()
    result = run(observed, Transform.dft((3, 10)), hp, seed=902)
    elapsed = time.perf_counter() - t0
    h = hashlib.sha256()
    h.update(result.x_hat.tobytes())
    h.update(result.s_hat.tobytes())
    return {
        "psnr_observed": psnr(observed, reference),
        "psnr_denoised": psnr(result.x_hat, reference),
        "seconds": elapsed,
        "digest": h.hexdigest(),
        "trace": [r._asdict() for r in result.trace.records],
    }


@pytest.fixture(scope="session")
def smoke():
    return _smoke_run()


def _check_grid(name, rows, per_cell_limit):
    ok = True
    details = []
    for row in rows:
        bound = 1e-3 if row["sigma_sq"] <= 1e-3 else 3e-2
        cell_ok = (row["r_err"] == 0.0 and row["x_err"] <= bound
                   and row["seconds"] < per_cell_limit and row["converged"])
        ok = ok and cell_ok
        details.append(
            f"{'x'.join(map(str, row['shape']))} rho={row['rho']:g} "
            f"s2={row['sigma_sq']:g}: R_err={row['r_err']:g} "
            f"X_err={row['x_err']:.3e} (<= {bound:g}) {row['seconds']:.0f}s"
            + ("" if cell_ok else "  <-- FAIL"))
    _report(name, ok, "\n    " + "\n    ".join(details))


def test_criterion_4_order3_recovery_grid(grid_order3):
    _check_grid("criterion 4 (order-3 recovery grid)",
                grid_order3["rows"], per_cell_limit=180.0)


def test_criterion_5_order45_recovery_grids(grid_order45):
    _check_grid("criterion 5 (order-4/order-5 recovery grids)",
                grid_order45["rows"], per_cell_limit=600.0)


# --------------------------------------------------------------------------
# criterion 6: every update maximizes its coordinate objective


def _gamma_objective(a, b, coef_log, coef_lin):
    """Expected unnormalized log density plus entropy for Gamma(a, b)."""
    mean_log = sps.digamma(a) - np.log(b)
    mean = a / b
    entropy = a - np.log(b) + sps.gammaln(a) + (1.0 - a) * sps.digamma(a)
    return float(np.sum(coef_log * mean_log - coef_lin * mean + entropy))


def _tiny_state(seed, shape=(3, 3, 2), rank=2):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(shape)
    hp = HyperParams(init_rank=rank, sigma0_sq=1.0, gamma=1.0,
                     tol=1e-6, max_iter=10)
    state = init_state(y, Transform.dft(shape[2:]), hp, seed=seed)
    state.noise.tau_a = float(rng.uniform(0.5, 3.0))
    state.noise.tau_b = float(rng.uniform(0.5, 3.0))
    # Gamma shapes are one scalar per family; the rates vary per element
    state.sparse.beta_a = float(rng.uniform(0.5, 3.0))
    state.sparse.beta_b = rng.uniform(0.5, 3.0, shape)
    state.noise.lambda_a = float(rng.uniform(0.5, 3.0))
    state.noise.lambda_b = rng.uniform(0.5, 3.0, (state.n_slices, rank))
    state.noise.fit = state.hp.gamma  # refinement weight exactly 1
    return state, rng


def _factor_objective(state, side):
    """Coordinate objective for the q(U) or q(V) update as a function of
    the (means, covariances) it returns, all other factors fixed."""
    rows = state.shape[0] if side == "u" else state.shape[1]
    tau = state.noise.tau_mean

    def evaluate(means, covs):
        st = copy.deepcopy(state)
        with edited_factors(st) as f:
            target = f.u.mean if side == "u" else f.v.mean
            target_cov = f.u.cov if side == "u" else f.v.cov
            for k in range(st.n_slices):
                target[k] = np.array(means[k])
                target_cov[k] = np.array(covs[k])
        value = -(tau / st.transform.phi) * expected_residual_sq(st)
        for k in range(st.n_slices):
            lam = st.noise.lambda_mean[k]
            m, c = means[k], covs[k]
            value -= float(np.sum(lam * (np.sum(np.abs(m) ** 2, axis=0)
                                         + rows * np.diagonal(c).real)))
            sign, logdet = np.linalg.slogdet(c)
            value += rows * logdet
        return value

    return evaluate


def _perturbed_cov(cov, rng, eps):
    """PD perturbation: congruence by (I + eps * Hermitian)."""
    r = cov.shape[0]
    h = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    h = 0.5 * (h + h.conj().T)
    h /= max(np.linalg.norm(h), 1e-300)
    chol = np.linalg.cholesky(cov)
    middle = np.eye(r) + eps * h
    return chol @ middle @ chol.conj().T


def _assert_local_max(argmax_value, perturbed_values, label):
    tol = 1e-6 * max(abs(argmax_value), 1.0)
    worst = max(v - argmax_value for v in perturbed_values)
    assert worst <= tol, f"{label}: perturbation improved objective by {worst:.3e}"
    return worst


def test_criterion_6_update_optimality():
    t0 = time.perf_counter()
    worst_gap = -math.inf
    for seed in (1, 2, 3):
        state, rng = _tiny_state(seed)

        # -- factor updates
        for side, update in (("u", update_u), ("v", update_v)):
            update(state)
            f = state.factors
            means = [m.copy() for m in (f.u.mean if side == "u" else f.v.mean)]
            covs = [c.copy() for c in (f.u.cov if side == "u" else f.v.cov)]
            objective = _factor_objective(state, side)
            base = objective(means, covs)
            perturbed = []
            for eps in (1e-2, 1e-3):
                for _ in range(6):
                    dm = [m + eps * (rng.standard_normal(m.shape)
                                     + 1j * rng.standard_normal(m.shape))
                          * max(np.linalg.norm(m), 1.0) / math.sqrt(m.size)
                          for m in means]
                    perturbed.append(objective(dm, covs))
                    dc = [_perturbed_cov(c, rng, eps) for c in covs]
                    perturbed.append(objective(means, dc))
            worst_gap = max(worst_gap, _assert_local_max(
                base, perturbed, f"update_{side} seed {seed}"))

        # -- ARD precision update
        update_lambda(state)
        i1, i2 = state.shape[:2]
        for k in range(state.n_slices):
            f = state.factors
            utu = i1 * f.u.cov[k] + f.u.mean[k].conj().T @ f.u.mean[k]
            vtv = i2 * f.v.cov[k] + f.v.mean[k].conj().T @ f.v.mean[k]
            d = 0.5 * np.diagonal(utu + vtv).real
            coef_log = GAMMA_PRIOR + (i1 + i2) / 2 - 1.0
            coef_lin = GAMMA_PRIOR + d
            a0, b0 = state.noise.lambda_a, state.noise.lambda_b[k]
            base = _gamma_objective(a0, b0, coef_log, coef_lin)
            perturbed = []
            for eps in (1e-2, 1e-3):
                for da, db in ((1, 0), (0, 1), (1, 1), (-1, 1), (1, -1), (-1, -1)):
                    perturbed.append(_gamma_objective(
                        a0 * (1 + eps * da), b0 * (1 + eps * db),
                        coef_log, coef_lin))
            worst_gap = max(worst_gap, _assert_local_max(
                base, perturbed, f"update_lambda seed {seed}"))

        # -- sparse component update
        update_s(state)
        z = state.y - state.x_hat
        tau = state.noise.tau_mean
        beta = state.sparse.beta_a / state.sparse.beta_b

        def s_objective(mean, var):
            return float(np.sum(-0.5 * tau * ((z - mean) ** 2 + var)
                                - 0.5 * beta * (mean ** 2 + var)
                                + 0.5 * np.log(var)))

        base = s_objective(state.sparse.s_mean, state.sparse.s_var)
        perturbed = []
        for eps in (1e-2, 1e-3):
            for _ in range(6):
                dm = state.sparse.s_mean + eps * rng.standard_normal(state.shape)
                dv = state.sparse.s_var * (1 + eps * rng.uniform(-1, 1, state.shape))
                perturbed.append(s_objective(dm, state.sparse.s_var))
                perturbed.append(s_objective(state.sparse.s_mean, dv))
        worst_gap = max(worst_gap, _assert_local_max(
            base, perturbed, f"update_s seed {seed}"))

        # -- sparsity precision update
        update_beta(state)
        s_sq = state.sparse.s_mean ** 2 + state.sparse.s_var
        coef_log = GAMMA_PRIOR + 0.5 - 1.0
        coef_lin = GAMMA_PRIOR + 0.5 * s_sq
        a0, b0 = state.sparse.beta_a, state.sparse.beta_b
        base = _gamma_objective(a0, b0, coef_log, coef_lin)
        perturbed = []
        for eps in (1e-2, 1e-3):
            for da, db in ((1, 0), (0, 1), (1, 1), (-1, 1), (1, -1), (-1, -1)):
                perturbed.append(_gamma_objective(
                    a0 * (1 + eps * da), b0 * (1 + eps * db),
                    coef_log, coef_lin))
        worst_gap = max(worst_gap, _assert_local_max(
            base, perturbed, f"update_beta seed {seed}"))

        # -- noise precision update
        resid = expected_residual_sq(state)
        update_tau(state, resid_sq=resid)
        coef_log = GAMMA_PRIOR + state.y.size / 2 - 1.0
        coef_lin = GAMMA_PRIOR + resid / (2 * state.transform.phi)
        a0, b0 = state.noise.tau_a, state.noise.tau_b
        base = _gamma_objective(np.array(a0), np.array(b0), coef_log, coef_lin)
        perturbed = []
        for eps in (1e-2, 1e-3):
            for da, db in ((1, 0), (0, 1), (1, 1), (-1, 1), (1, -1), (-1, -1)):
                perturbed.append(_gamma_objective(
                    np.array(a0 * (1 + eps * da)), np.array(b0 * (1 + eps * db)),
                    coef_log, coef_lin))
        worst_gap = max(worst_gap, _assert_local_max(
            base, perturbed, f"update_tau seed {seed}"))

    elapsed = time.perf_counter() - t0
    _report("criterion 6 (update optimality)", elapsed < 60.0,
            f"largest objective improvement under perturbation "
            f"{worst_gap:.3e} (tolerance 1e-6 relative), {elapsed:.1f}s (<60s)")


# --------------------------------------------------------------------------
# criterion 7: Monte-Carlo validation of the expected-residual expansion


def test_criterion_7_residual_expansion_monte_carlo():
    state, rng = _tiny_state(7, shape=(3, 3, 2), rank=2)
    # make the posterior genuinely random (complex means, dense covariances)
    with edited_factors(state) as f:
        for k in range(state.n_slices):
            f.u.mean[k] = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            f.v.mean[k] = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            for covs in (f.u.cov, f.v.cov):
                a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                covs[k] = 0.5 * (a @ a.conj().T) + 0.3 * np.eye(2)
    state.sparse.s_mean = rng.standard_normal(state.shape)
    state.sparse.s_var = rng.uniform(0.2, 1.0, state.shape)
    ybar = to_slice_stack(state.transform.forward(state.y, half=True))  # (J, I1, I2)
    sbar = to_slice_stack(state.transform.forward(state.sparse.s_mean))
    state.resid = ybar - sbar

    analytic = expected_residual_sq(state)

    total = 1_000_000
    chunk = 20_000
    mc_rng = np.random.default_rng(4242)
    chol_u = [np.linalg.cholesky(c) for c in state.factors.u.cov]
    chol_v = [np.linalg.cholesky(c) for c in state.factors.v.cov]
    samples = np.empty(total)
    done = 0
    while done < total:
        n = min(chunk, total - done)
        resid_sq = np.zeros(n)
        s = (state.sparse.s_mean
             + np.sqrt(state.sparse.s_var)
             * mc_rng.standard_normal((n,) + state.shape))
        # the transform acts on the tensor's trailing modes (batch axes >= 3)
        sbar = np.fft.fftn(s, axes=tuple(range(3, s.ndim)))
        for k in range(state.n_slices):
            zu = (mc_rng.standard_normal((n, 3, 2))
                  + 1j * mc_rng.standard_normal((n, 3, 2))) / math.sqrt(2.0)
            zv = (mc_rng.standard_normal((n, 3, 2))
                  + 1j * mc_rng.standard_normal((n, 3, 2))) / math.sqrt(2.0)
            u = state.factors.u.mean[k] + zu @ chol_u[k].conj().T
            v = state.factors.v.mean[k] + zv @ chol_v[k].conj().T
            prod = u @ np.swapaxes(v.conj(), 1, 2)
            res = ybar[k] - prod - sbar[..., k]
            resid_sq += np.sum(np.abs(res) ** 2, axis=(1, 2))
        samples[done:done + n] = resid_sq
        done += n

    mc_mean = samples.mean()
    se = samples.std(ddof=1) / math.sqrt(total)
    gap = abs(analytic - mc_mean)
    _report("criterion 7 (residual expansion vs Monte Carlo)",
            gap <= 3.0 * se,
            f"analytic {analytic:.6f}, MC {mc_mean:.6f} +- {se:.6f} "
            f"({gap / se:.2f} standard errors, limit 3)")


# --------------------------------------------------------------------------
# criterion 8: PSNR formula and corruption-pipeline sanity


def test_criterion_8_psnr_formula_and_pipeline():
    ref = np.ones((1, 1, 4))
    est = ref.copy()
    est[0, 0, 2] = 1.1
    formula_gap = abs(psnr(est, ref) - 10.0 * math.log10(400.0))

    cfg = SynthConfig(shape=(40, 40, 3, 6), base_rank=4,
                      multirank=uniform_multirank((3, 6), 4),
                      rho=0.0, sigma_sq=0.0, seed=800)
    inst = generate(cfg)
    lo, hi = inst.x_gt.min(), inst.x_gt.max()
    clean255 = 255.0 * (inst.x_gt - lo) / (hi - lo)
    observed = corrupt_tensor(clean255, rho=0.2, low=0.0, high=255.0,
                              sigma_sq=1e-4, seed=801, normalize=True)
    observed_psnr = psnr(observed, clean255 / 255.0)
    ok = formula_gap <= 1e-9 and 11.0 <= observed_psnr <= 20.0
    _report("criterion 8 (PSNR formula + corruption pipeline)", ok,
            f"formula gap {formula_gap:.2e} dB (<=1e-9), "
            f"observed PSNR {observed_psnr:.2f} dB (in [11, 20])")


# --------------------------------------------------------------------------
# criterion 9: end-to-end denoising smoke test


def test_criterion_9_video_like_smoke(smoke):
    gain = smoke["psnr_denoised"] - smoke["psnr_observed"]
    ok = gain >= 10.0 and smoke["seconds"] < 300.0
    _report("criterion 9 (video-like denoising smoke)", ok,
            f"observed {smoke['psnr_observed']:.2f} dB -> denoised "
            f"{smoke['psnr_denoised']:.2f} dB (gain {gain:.2f}, >=10), "
            f"{smoke['seconds']:.0f}s (<300s)")


# --------------------------------------------------------------------------
# criterion 10: bitwise determinism of criteria 4, 5 and 9


def test_criterion_10_determinism(grid_order3, grid_order45, smoke):
    rerun3 = _run_grid([((50, 50, 50), 100)])
    rerun45 = _run_grid([((50, 50, 5, 5), 200), ((50, 50, 3, 3, 3), 300)])
    rerun_smoke = _smoke_run()
    ok = (rerun3["digests"] == grid_order3["digests"]
          and rerun3["report"] == grid_order3["report"]
          and rerun45["digests"] == grid_order45["digests"]
          and rerun45["report"] == grid_order45["report"]
          and rerun_smoke["digest"] == smoke["digest"])
    _report("criterion 10 (bitwise determinism of 4, 5, 9)", ok,
            "reruns reproduced every tensor digest and non-timing report field"
            if ok else "a rerun diverged")
