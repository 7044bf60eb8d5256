"""Closed-form posterior updates checked against limits and recompute oracles."""

import numpy as np
import pytest

from lmhbrtf import model
from lmhbrtf.errors import NumericalBreakdownError
from lmhbrtf.model import (
    HyperParams,
    _check_state_positive,
    compute_fit,
    expected_residual_sq,
    init_state,
    prune_columns,
    reconstruct_x,
    run,
    update_beta,
    update_lambda,
    update_s,
    update_tau,
    update_u,
    update_v,
)
from lmhbrtf.tensor import to_slice_stack
from lmhbrtf.transform import Transform


def make_state(shape=(4, 4, 2), r=2, seed=3, sigma0_sq=1.0, gamma=1.0):
    y = np.random.default_rng(seed).standard_normal(shape)
    hp = HyperParams(init_rank=r, sigma0_sq=sigma0_sq, gamma=gamma,
                     tol=1e-6, max_iter=50)
    return init_state(y, Transform.dft(shape[2:]), hp, seed=seed)


def randomize_factors(state, seed=0):
    """Overwrite the posterior with arbitrary complex values (oracle tests).

    Only the active columns of each slice are drawn; the padding stays 0.
    """
    r = np.random.default_rng(seed)
    f = state.factors
    for k in range(state.n_slices):
        rk = f.ranks[k]
        i1, i2 = state.shape[:2]
        f.u_mean[k, :, :rk] = r.standard_normal((i1, rk)) + 1j * r.standard_normal((i1, rk))
        f.v_mean[k, :, :rk] = r.standard_normal((i2, rk)) + 1j * r.standard_normal((i2, rk))
        for covs in (f.sigma_u, f.sigma_v):
            a = r.standard_normal((rk, rk)) + 1j * r.standard_normal((rk, rk))
            covs[k, :rk, :rk] = a @ a.conj().T + 0.5 * np.eye(rk)
        state.noise.lambda_b[k, :rk] = r.uniform(0.5, 2.0, rk)
    state.noise.lambda_a = 1.5
    state.noise.tau_a = 3.0
    state.noise.tau_b = 1.5
    state.noise.fit = 0.7


def test_hyperparam_defaults_all_six_small():
    hp = HyperParams(init_rank=2)
    assert (hp.a0_lambda, hp.b0_lambda, hp.a0_beta, hp.b0_beta,
            hp.a0_tau, hp.b0_tau) == (1e-6,) * 6


def test_hyperparam_validation():
    with pytest.raises(ValueError):
        HyperParams(init_rank=2, sigma0_sq=0.0)
    with pytest.raises(ValueError):
        HyperParams(init_rank=2, gamma=-1.0)
    with pytest.raises(ValueError):
        HyperParams(init_rank=2, prune_threshold=2.0)


def test_init_state_values():
    state = make_state(sigma0_sq=1.0)
    assert np.allclose(state.sparse.beta_mean, 1.0)
    assert ((state.sparse.s_mean >= 0) & (state.sparse.s_mean < 1.0)).all()
    assert state.noise.tau_mean == pytest.approx(1.0)
    for k in range(state.n_slices):
        assert np.allclose(state.noise.lambda_mean(k), 1.0 / state.phi)
        assert np.allclose(state.factors.sigma_u[k],
                           state.phi * np.eye(state.factors.ranks[k]))
    # factor means reproduce the best rank-r approximation of each slice
    ybar = state.ybar
    for k in range(state.n_slices):
        u, s, vh = np.linalg.svd(ybar[:, :, k], full_matrices=False)
        best = (u[:, :2] * s[:2]) @ vh[:2]
        prod = state.factors.u_mean[k] @ state.factors.v_mean[k].conj().T
        assert np.linalg.norm(prod - best) <= 1e-10 * np.linalg.norm(best)


def test_init_state_deterministic():
    a = make_state(seed=11)
    b = make_state(seed=11)
    assert a.sparse.s_mean.tobytes() == b.sparse.s_mean.tobytes()
    for k in range(a.n_slices):
        assert a.factors.u_mean[k].tobytes() == b.factors.u_mean[k].tobytes()
        assert a.factors.v_mean[k].tobytes() == b.factors.v_mean[k].tobytes()
    assert a.noise.fit == b.noise.fit


def test_init_state_rejects_oversized_rank():
    y = np.zeros((3, 4, 2))
    y[0, 0, 0] = 1.0
    hp = HyperParams(init_rank=4)
    with pytest.raises(ValueError, match="init_rank"):
        init_state(y, Transform.dft((2,)), hp, seed=0)


def test_init_state_rejects_complex_input():
    hp = HyperParams(init_rank=1)
    with pytest.raises(ValueError, match="real"):
        init_state(np.zeros((3, 3, 2), dtype=complex), Transform.dft((2,)), hp, 0)


def test_init_state_rejects_mirror_asymmetric_init_rank():
    y = np.random.default_rng(0).standard_normal((4, 4, 5))
    symmetric = HyperParams(init_rank=[3, 2, 1, 1, 2])
    state = init_state(y, Transform.dft((5,)), symmetric, seed=0)
    assert np.array_equal(state.factors.ranks, [3, 2, 1])
    with pytest.raises(ValueError, match="mirrored"):
        init_state(y, Transform.dft((5,)), HyperParams(init_rank=[3, 2, 1, 2, 2]), 0)


def test_init_state_rejects_transform_that_is_not_real_safe():
    y = np.random.default_rng(0).standard_normal((4, 4, 2))
    phase = Transform.explicit([np.diag([1.0, 1j])])
    with pytest.raises(ValueError, match="real-safe"):
        init_state(y, phase, HyperParams(init_rank=2), seed=0)


def test_update_u_ard_limit_kills_columns():
    state = make_state()
    state.noise.fit = state.gamma  # refinement weight exactly 1
    state.noise.lambda_a = 1e12
    state.noise.lambda_b = np.ones_like(state.noise.lambda_b)
    update_u(state)
    for k in range(state.n_slices):
        assert np.linalg.norm(state.factors.sigma_u[k]) <= 1e-9
        assert np.linalg.norm(state.factors.u_mean[k]) <= 1e-6


def _reference_row_updates(y, s, vm, sv, lam, tau, weight):
    """Plain Bayesian matrix-factorization row update, row-by-row solves."""
    i1, i2 = y.shape
    vtv = i2 * sv + vm.conj().T @ vm
    prec = tau * vtv + weight * np.diag(lam)
    cov = np.linalg.solve(prec, np.eye(prec.shape[0], dtype=complex))
    rows = [tau * (y[i] - s[i]) @ vm @ cov for i in range(i1)]
    return np.stack(rows), cov


def test_update_u_single_slice_reduces_to_matrix_factorization():
    # J = 1, phi = 1: the transform is the identity and the update must
    # match a standard Bayesian matrix-factorization row update
    state = make_state(shape=(5, 4, 1), r=2, seed=9)
    state.noise.fit = 0.8
    update_u(state)
    expected, cov = _reference_row_updates(
        y=state.ybar[:, :, 0], s=state.sbar[:, :, 0],
        vm=state.factors.v_mean[0], sv=state.factors.sigma_v[0],
        lam=state.noise.lambda_mean(0), tau=state.noise.tau_mean,
        weight=0.8 / state.gamma,
    )
    assert np.allclose(state.factors.u_mean[0], expected, rtol=1e-12, atol=1e-12)
    assert np.allclose(state.factors.sigma_u[0], cov, rtol=1e-10, atol=1e-12)


def test_update_v_single_slice_mirror():
    state = make_state(shape=(5, 4, 1), r=2, seed=9)
    state.noise.fit = 0.8
    update_u(state)
    update_v(state)
    y = state.ybar[:, :, 0]
    s = state.sbar[:, :, 0]
    expected, cov = _reference_row_updates(
        y=y.conj().T, s=s.conj().T,
        vm=state.factors.u_mean[0], sv=state.factors.sigma_u[0],
        lam=state.noise.lambda_mean(0), tau=state.noise.tau_mean,
        weight=0.8 / state.gamma,
    )
    assert np.allclose(state.factors.v_mean[0], expected, rtol=1e-12, atol=1e-12)
    assert np.allclose(state.factors.sigma_v[0], cov, rtol=1e-10, atol=1e-12)


def test_update_u_slice_locality():
    # slice k's update reads nothing from other slices, so edits elsewhere
    # leave its result bit-identical; 5 DFT slices keep 3 in the stack
    a = make_state(shape=(4, 4, 5), r=2, seed=5)
    b = make_state(shape=(4, 4, 5), r=2, seed=5)
    assert b.n_slices == 3
    b.factors.v_mean[2] = b.factors.v_mean[2] * 2.0
    b.noise.lambda_b[2] = b.noise.lambda_b[2] * 3.0
    update_u(a)
    update_u(b)
    assert a.factors.u_mean[0].tobytes() == b.factors.u_mean[0].tobytes()
    assert a.factors.sigma_u[1].tobytes() == b.factors.sigma_u[1].tobytes()
    assert a.factors.u_mean[2].tobytes() != b.factors.u_mean[2].tobytes()


def test_update_lambda_zero_factors():
    state = make_state(shape=(4, 3, 2), r=2)
    for k in range(state.n_slices):
        rk = state.factors.ranks[k]
        state.factors.u_mean[k] = np.zeros((4, rk), dtype=complex)
        state.factors.v_mean[k] = np.zeros((3, rk), dtype=complex)
        state.factors.sigma_u[k] = np.zeros((rk, rk), dtype=complex)
        state.factors.sigma_v[k] = np.zeros((rk, rk), dtype=complex)
    update_lambda(state)
    hp = state.hp
    expected = (hp.a0_lambda + (4 + 3) / 2) / hp.b0_lambda
    for k in range(state.n_slices):
        assert np.allclose(state.noise.lambda_b[k], hp.b0_lambda)
        assert np.allclose(state.noise.lambda_mean(k), expected)
        assert expected > 1e6  # huge precision: columns are prunable


def test_update_lambda_shape_term():
    state = make_state(shape=(6, 5, 2), r=2)
    update_lambda(state)
    assert state.noise.lambda_a == pytest.approx(state.hp.a0_lambda + (6 + 5) / 2,
                                                 rel=1e-15)


def test_update_lambda_matches_recompute_oracle():
    state = make_state(shape=(4, 5, 3), r=3, seed=21)
    randomize_factors(state, seed=2)
    update_lambda(state)
    i1, i2 = state.shape[:2]
    f = state.factors
    for k in range(state.n_slices):
        utu = i1 * f.sigma_u[k] + f.u_mean[k].conj().T @ f.u_mean[k]
        vtv = i2 * f.sigma_v[k] + f.v_mean[k].conj().T @ f.v_mean[k]
        expected_b = state.hp.b0_lambda + 0.5 * np.diagonal(utu + vtv).real
        assert np.allclose(state.noise.lambda_b[k], expected_b, rtol=1e-12)


def test_update_s_precision_limits():
    state = make_state(shape=(4, 4, 1), r=2, seed=1)
    tau = state.noise.tau_mean
    # one element with enormous sparsity precision is pinned to zero
    state.sparse.beta_a = tau
    state.sparse.beta_b = np.ones(state.shape)
    state.sparse.beta_b[0, 0, 0] = tau / 1e12
    update_s(state)
    z = state.y - state.x_hat
    assert abs(state.sparse.s_mean[0, 0, 0]) <= 1e-10 * abs(z[0, 0, 0])
    # everywhere else beta == tau: mean Z/2, variance 1/(2 tau)
    rest = np.ones(state.shape, dtype=bool)
    rest[0, 0, 0] = False
    assert np.allclose(state.sparse.s_mean[rest], (z / 2)[rest], rtol=1e-12)
    assert np.allclose(state.sparse.s_var[rest], 1 / (2 * tau), rtol=1e-12)


def test_update_s_absorbs_outliers_when_tau_dominates():
    state = make_state(shape=(6, 6, 1), r=2, seed=4)
    outliers = np.zeros(state.shape)
    outliers[1, 2, 0] = 10.0
    outliers[4, 0, 0] = -9.0
    state.y = state.y + outliers
    state.ybar = to_slice_stack(state.transform.forward(state.y))
    state.noise.tau_a = 1e6
    state.noise.tau_b = 1.0
    state.sparse.beta_a = 1.0
    state.sparse.beta_b = np.ones(state.shape)
    update_s(state)
    z = state.y - state.x_hat
    for idx in [(1, 2, 0), (4, 0, 0)]:
        assert abs(state.sparse.s_mean[idx] - z[idx]) <= 1e-3 * abs(z[idx])


def test_update_beta_zero_and_unit_cases():
    state = make_state(shape=(3, 3, 1), r=1)
    state.sparse.s_mean = np.zeros(state.shape)
    state.sparse.s_var = np.zeros(state.shape)
    update_beta(state)
    hp = state.hp
    assert np.allclose(state.sparse.beta_mean, (hp.a0_beta + 0.5) / hp.b0_beta)
    assert state.sparse.beta_mean.min() > 1e5

    state.sparse.s_mean = np.ones(state.shape)
    state.sparse.s_var = np.zeros(state.shape)
    update_beta(state)
    assert np.allclose(state.sparse.beta_mean, 1.0, rtol=1e-5)


def test_update_beta_matches_recompute_oracle():
    state = make_state(shape=(4, 3, 2), r=2, seed=8)
    r = np.random.default_rng(0)
    state.sparse.s_mean = r.standard_normal(state.shape)
    state.sparse.s_var = r.uniform(0.1, 2.0, state.shape)
    update_beta(state)
    expected = state.hp.b0_beta + 0.5 * (state.sparse.s_mean ** 2 + state.sparse.s_var)
    assert np.allclose(state.sparse.beta_b, expected, rtol=1e-14)
    assert np.allclose(state.sparse.beta_a, state.hp.a0_beta + 0.5, rtol=0)


def _zero_out(state, with_s=True):
    for k in range(state.n_slices):
        rk = state.factors.ranks[k]
        i1, i2 = state.shape[:2]
        state.factors.u_mean[k] = np.zeros((i1, rk), dtype=complex)
        state.factors.v_mean[k] = np.zeros((i2, rk), dtype=complex)
        state.factors.sigma_u[k] = np.zeros((rk, rk), dtype=complex)
        state.factors.sigma_v[k] = np.zeros((rk, rk), dtype=complex)
    if with_s:
        state.sparse.s_mean = np.zeros(state.shape)
        state.sparse.s_var = np.zeros(state.shape)
        state.sbar = to_slice_stack(state.transform.forward(state.sparse.s_mean))


def test_update_tau_cold_start():
    state = make_state(shape=(4, 4, 2), r=2, seed=13)
    _zero_out(state)
    update_tau(state)
    ybar_sq = np.sum(np.abs(state.ybar) ** 2)
    expected_b = state.hp.b0_tau + ybar_sq / (2 * state.phi)
    assert state.noise.tau_b == pytest.approx(expected_b, rel=1e-12)
    assert state.noise.tau_a == pytest.approx(state.hp.a0_tau + state.y.size / 2)


def test_update_tau_perfect_fit_limit():
    state = make_state(shape=(4, 4, 1), r=4, seed=2)
    # factors reproducing ybar exactly, no uncertainty anywhere
    state.factors.u_mean[0] = state.ybar[:, :, 0].astype(complex)
    state.factors.v_mean[0] = np.eye(4, dtype=complex)
    state.factors.sigma_u[0] = np.zeros((4, 4), dtype=complex)
    state.factors.sigma_v[0] = np.zeros((4, 4), dtype=complex)
    state.factors.ranks[:] = 4
    state.sparse.s_mean = np.zeros(state.shape)
    state.sparse.s_var = np.zeros(state.shape)
    state.sbar = to_slice_stack(state.transform.forward(state.sparse.s_mean))
    update_tau(state)
    assert state.noise.tau_b == pytest.approx(state.hp.b0_tau, rel=1e-3)
    assert state.noise.tau_mean > 1e6


def test_compute_fit_limits():
    state = make_state(shape=(4, 4, 2), r=2, seed=6)
    _zero_out(state)
    assert compute_fit(state) == pytest.approx(0.0, abs=1e-12)

    exact = make_state(shape=(4, 4, 1), r=4, seed=2)
    exact.factors.u_mean[0] = exact.ybar[:, :, 0].astype(complex)
    exact.factors.v_mean[0] = np.eye(4, dtype=complex)
    exact.factors.sigma_u[0] = np.zeros((4, 4), dtype=complex)
    exact.factors.sigma_v[0] = np.zeros((4, 4), dtype=complex)
    exact.sparse.s_mean = np.zeros(exact.shape)
    exact.sparse.s_var = np.zeros(exact.shape)
    exact.sbar = to_slice_stack(exact.transform.forward(exact.sparse.s_mean))
    assert compute_fit(exact) == pytest.approx(1.0, abs=1e-6)


def test_expected_residual_additivity_of_variance_terms():
    # the sparse-variance term enters scaled by phi
    state = make_state(shape=(3, 3, 2), r=1, seed=7)
    base = expected_residual_sq(state)
    state.sparse.s_var = state.sparse.s_var + 1.0
    bumped = expected_residual_sq(state)
    assert bumped - base == pytest.approx(state.phi * state.y.size, rel=1e-12)


def test_prune_noop_below_threshold():
    state = make_state(shape=(4, 4, 2), r=2, seed=3)
    before = [m.copy() for m in state.factors.u_mean]
    ranks = prune_columns(state, threshold=1e-12)
    assert np.array_equal(ranks, [2, 2])
    for k in range(2):
        assert np.array_equal(state.factors.u_mean[k], before[k])


def test_prune_drops_zero_column():
    state = make_state(shape=(4, 4, 2), r=3, seed=3)
    for k in range(state.n_slices):
        state.factors.u_mean[k][:, 1] = 0.0
        state.factors.v_mean[k][:, 1] = 0.0
        cov = state.factors.sigma_u[k].copy()
        cov[1, :] = 0.0
        cov[:, 1] = 0.0
        state.factors.sigma_u[k] = cov
        state.factors.sigma_v[k] = cov.copy()
    ranks = prune_columns(state, threshold=1e-4)
    assert np.array_equal(ranks, [2, 2])
    for k in range(2):
        assert state.factors.u_mean[k].shape == (4, 2)
        assert state.noise.lambda_b[k].shape == (2,)
        assert state.factors.sigma_u[k].shape == (2, 2)


def test_prune_keeps_strongest_column():
    state = make_state(shape=(4, 4, 1), r=2, seed=3)
    ranks = prune_columns(state, threshold=0.999999)
    assert ranks[0] >= 1


def test_reconstruct_zero_factors_and_single_slice():
    state = make_state(shape=(4, 3, 2), r=2, seed=10)
    _zero_out(state, with_s=False)
    assert np.array_equal(reconstruct_x(state), np.zeros(state.shape))

    single = make_state(shape=(4, 3, 1), r=2, seed=10)
    got = reconstruct_x(single)
    expected = (single.factors.u_mean[0] @ single.factors.v_mean[0].conj().T).real
    assert np.allclose(got[:, :, 0], expected, rtol=1e-12, atol=1e-14)


# --------------------------------------------------------------------------
# stacked, zero-padded factor layout


def assert_padding_zero(state):
    """Columns and covariance rows/columns beyond each slice's rank are 0."""
    f = state.factors
    assert f.u_mean.shape[2] == f.ranks.max(initial=0)
    for k, r in enumerate(f.ranks):
        assert not f.u_mean[k][:, r:].any()
        assert not f.v_mean[k][:, r:].any()
        for cov in (f.sigma_u[k], f.sigma_v[k]):
            assert not cov[r:, :].any() and not cov[:, r:].any()


def mixed_rank_state():
    """Kept ranks [3, 2, 0] on (4, 4, 5): slice 2 is pruned to rank 0."""
    y = np.random.default_rng(17).standard_normal((4, 4, 5))
    hp = HyperParams(init_rank=[3, 2, 1, 1, 2], gamma=1.0, tol=1e-6, max_iter=50)
    state = init_state(y, Transform.dft((5,)), hp, seed=17)
    assert np.array_equal(state.factors.ranks, [3, 2, 1])
    assert_padding_zero(state)
    randomize_factors(state, seed=4)
    f = state.factors
    for stack in (f.u_mean, f.v_mean, f.sigma_u, f.sigma_v):
        stack[0] = stack[0].real  # slice 0 is self-paired: real under the DFT
    f.u_mean[2] = 0.0
    f.v_mean[2] = 0.0
    f.sigma_u[2] = 0.0
    f.sigma_v[2] = 0.0
    assert np.array_equal(prune_columns(state), [3, 2, 0, 0, 2])
    assert_padding_zero(state)
    state.noise.fit = 0.4
    return state


def _active(state, k):
    f = state.factors
    r = f.ranks[k]
    return (f.u_mean[k][:, :r], f.v_mean[k][:, :r],
            f.sigma_u[k][:r, :r], f.sigma_v[k][:r, :r],
            state.noise.lambda_mean(k)[:r])


def test_mixed_rank_phases_match_per_slice_reference():
    state = mixed_rank_state()
    i1, i2 = state.shape[:2]
    scale = state.noise.tau_mean / state.phi
    weight = state.noise.fit / state.gamma
    resid = [state.ybar[:, :, k] - state.sbar[:, :, k] for k in range(3)]
    live = [k for k in range(3) if state.factors.ranks[k]]

    before = [_active(state, k) for k in range(3)]
    update_u(state)
    assert_padding_zero(state)
    for k in live:
        _, vm, _, sv, lam = before[k]
        mean, cov = _reference_row_updates(resid[k], np.zeros_like(resid[k]),
                                           vm, sv, lam, scale, weight)
        mu, _, su, _, _ = _active(state, k)
        assert np.allclose(mu, mean, rtol=1e-12, atol=1e-12)
        assert np.allclose(su, cov, rtol=1e-10, atol=1e-12)

    update_v(state)
    assert_padding_zero(state)
    for k in live:
        mu, mv, su, sv, lam = _active(state, k)
        mean, cov = _reference_row_updates(resid[k].conj().T, np.zeros_like(resid[k].T),
                                           mu, su, lam, scale, weight)
        assert np.allclose(mv, mean, rtol=1e-12, atol=1e-12)
        assert np.allclose(sv, cov, rtol=1e-10, atol=1e-12)

    update_lambda(state)
    assert_padding_zero(state)
    for k in live:
        mu, mv, su, sv, _ = _active(state, k)
        energy = np.diagonal(i1 * su + mu.conj().T @ mu + i2 * sv + mv.conj().T @ mv).real
        r = state.factors.ranks[k]
        assert np.allclose(state.noise.lambda_b[k, :r],
                           state.hp.b0_lambda + energy / 2, rtol=1e-12)

    update_s(state)
    assert_padding_zero(state)
    xbar = np.zeros_like(state.ybar)
    for k in live:
        mu, mv, _, _, _ = _active(state, k)
        xbar[:, :, k] = mu @ mv.conj().T
    expected_x = state.transform.inverse(xbar, assert_real=True, half=True)
    assert np.allclose(state.x_hat, expected_x, rtol=1e-12, atol=1e-14)

    update_beta(state)
    terms = np.zeros(3)
    for k in range(3):
        mu, mv, su, sv, _ = _active(state, k)
        res = state.ybar[:, :, k] - mu @ mv.conj().T - state.sbar[:, :, k]
        terms[k] = (np.sum(np.abs(res) ** 2)
                    + i1 * i2 * np.trace(sv @ su).real
                    + i1 * np.trace(su @ mv.conj().T @ mv).real
                    + i2 * np.trace(sv @ mu.conj().T @ mu).real)
    expected = (terms @ state.transform.slice_weights
                + state.phi * state.sparse.s_var.sum())
    assert expected_residual_sq(state) == pytest.approx(expected, rel=1e-12)
    update_tau(state)
    compute_fit(state)
    prune_columns(state)
    assert_padding_zero(state)


def test_prune_compacts_survivors_in_order_and_shrinks_width():
    y = np.random.default_rng(2).standard_normal((5, 4, 5))
    state = init_state(y, Transform.dft((5,)),
                       HyperParams(init_rank=[3, 2, 1, 1, 2]), seed=2)
    randomize_factors(state, seed=9)
    f = state.factors
    # slice 0 loses its first column and slice 1 its second: width 3 -> 2
    for k, col in ((0, 0), (1, 1)):
        f.u_mean[k][:, col] = 0.0
        f.v_mean[k][:, col] = 0.0
        for cov in (f.sigma_u[k], f.sigma_v[k]):
            cov[col, :] = 0.0
            cov[:, col] = 0.0
    old_u, old_sv = f.u_mean.copy(), f.sigma_v.copy()
    old_lb = state.noise.lambda_b.copy()
    ranks = prune_columns(state, threshold=1e-4)
    assert np.array_equal(ranks, [2, 1, 1, 1, 1])
    assert f.u_mean.shape == (3, 5, 2) and f.sigma_v.shape == (3, 2, 2)
    assert state.noise.lambda_b.shape == (3, 2)
    survivors = {0: [1, 2], 1: [0], 2: [0]}
    for k, cols in survivors.items():
        r = len(cols)
        assert np.array_equal(f.u_mean[k][:, :r], old_u[k][:, cols])
        assert np.array_equal(f.sigma_v[k][:r, :r], old_sv[k][np.ix_(cols, cols)])
        assert np.array_equal(state.noise.lambda_b[k, :r], old_lb[k, cols])
    assert_padding_zero(state)


def test_ynorm_is_weighted_norm_of_stack_and_follows_assignment():
    state = make_state(shape=(4, 3, 6), r=2, seed=12)
    w = state.transform.slice_weights
    ybar = state.ybar
    recomputed = np.sqrt(sum(w[k] * np.linalg.norm(ybar[:, :, k]) ** 2
                             for k in range(state.n_slices)))
    assert state.ynorm == pytest.approx(recomputed, rel=1e-14)
    assert state.ynorm ** 2 == pytest.approx(state.phi * np.sum(state.y ** 2), rel=1e-12)
    state.ybar = 2.0 * ybar
    assert state.ynorm == pytest.approx(2.0 * recomputed, rel=1e-14)


def test_residual_stack_follows_sbar_and_ybar_assignment():
    # the state stores Rbar = L(Y - S); Sbar is derived from it
    state = make_state(shape=(4, 3, 4), r=2, seed=8)
    state.sbar = np.zeros_like(state.ybar)
    assert np.array_equal(state.resid, state.ybar.transpose(2, 0, 1))
    s = np.random.default_rng(2).standard_normal(state.shape)
    sbar = to_slice_stack(state.transform.forward(s, half=True))
    state.sbar = sbar
    assert np.array_equal(state.resid, (state.ybar - sbar).transpose(2, 0, 1))
    # assigning ybar holds Sbar fixed
    held = state.sbar
    state.ybar = 3.0 * state.ybar
    assert np.array_equal(state.resid, (state.ybar - held).transpose(2, 0, 1))


def test_sbar_round_trip():
    state = make_state(shape=(4, 3, 4), r=2, seed=8)
    s = np.random.default_rng(3).standard_normal(state.shape)
    sbar = to_slice_stack(state.transform.forward(s, half=True))
    state.sbar = sbar
    scale = max(np.abs(state.ybar).max(), np.abs(sbar).max())
    assert np.abs(state.sbar - sbar).max() <= 1e-15 * scale


def test_update_s_sets_residual_to_transform_of_y_minus_s():
    state = mixed_rank_state()
    update_s(state)
    L = state.transform
    direct = to_slice_stack(L.forward(state.y - state.sparse.s_mean, half=True))
    assert np.array_equal(state.resid, direct.transpose(2, 0, 1))
    via_sbar = state.ybar - to_slice_stack(L.forward(state.sparse.s_mean, half=True))
    assert (np.linalg.norm(state.resid.transpose(1, 2, 0) - via_sbar)
            <= 1e-12 * np.linalg.norm(via_sbar))


def test_sparse_phase_updates_in_place_and_matches_reference_formulas():
    state = mixed_rank_state()
    sp = state.sparse
    r = np.random.default_rng(6)
    sp.beta_a = 1.3
    sp.beta_b[...] = r.uniform(0.1, 2.0, state.shape)
    arrays = (sp.s_mean, sp.s_var, sp.beta_b)
    tau = state.noise.tau_mean
    denom = sp.beta_a / sp.beta_b + tau
    update_s(state)
    z = state.y - state.x_hat
    assert np.array_equal(sp.s_var, 1.0 / denom)
    assert np.array_equal(sp.s_mean, tau * z / denom)
    update_beta(state)
    assert np.array_equal(sp.beta_b,
                          state.hp.b0_beta + 0.5 * (sp.s_mean ** 2 + sp.s_var))
    assert sp.beta_a == state.hp.a0_beta + 0.5
    assert all(a is b for a, b in zip((sp.s_mean, sp.s_var, sp.beta_b), arrays))


def test_update_s_keeps_the_products_behind_x_hat():
    state = mixed_rank_state()
    update_s(state)
    assert np.array_equal(state.x_hat, reconstruct_x(state))
    assert np.array_equal(state.x_hat, reconstruct_x(state, state.xbar))
    update_beta(state)
    kept = expected_residual_sq(state, products=state.xbar)
    assert kept == expected_residual_sq(state)


# --------------------------------------------------------------------------
# numerical breakdowns name the quantity and the slice


def test_singular_precision_names_the_slice():
    state = make_state(shape=(4, 4, 5), r=2, seed=5)
    f = state.factors
    f.v_mean[1] = 0.0
    f.sigma_v[1] = 0.0
    state.noise.fit = 0.0  # no ARD term: slice 1's precision block is zero
    with pytest.raises(NumericalBreakdownError,
                       match=r"singular posterior precision of U on slice 1 "
                             r"\(trailing index \(1,\)\)"):
        update_u(state)


def test_non_positive_lambda_b_names_the_slice():
    state = make_state(shape=(4, 4, 5), r=2, seed=5)
    state.noise.lambda_b[2, 1] = 0.0
    with pytest.raises(NumericalBreakdownError,
                       match=r"lambda_b is not positive on slice 2 "
                             r"\(trailing index \(2,\)\)"):
        _check_state_positive(state)
    # an inactive entry is padding, not a parameter: it is not checked
    state.noise.lambda_b[2, 1] = 1.0
    state.factors.ranks[2] = 1
    state.noise.lambda_b[2, 1] = -1.0
    _check_state_positive(state)


def test_breakdown_in_run_names_the_iteration(monkeypatch):
    y = np.random.default_rng(3).standard_normal((5, 5, 4))
    original = model.update_lambda
    calls = []

    def update_lambda_breaking_at_3(state):
        original(state)
        calls.append(1)
        if len(calls) == 3:
            state.noise.lambda_b[1, 0] = -1.0

    monkeypatch.setattr(model, "update_lambda", update_lambda_breaking_at_3)
    with pytest.raises(NumericalBreakdownError,
                       match=r"^iteration 3: ARD Gamma rate lambda_b is not "
                             r"positive on slice 1 \(trailing index \(1,\)\)"):
        run(y, Transform.dft((4,)), HyperParams(init_rank=2, max_iter=10), seed=0)
