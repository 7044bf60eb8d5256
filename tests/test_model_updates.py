"""Closed-form posterior updates checked against limits and recompute oracles."""

import copy
import inspect
import math
import pickle

import numpy as np
import pytest
from factor_edits import edited_factors

from lmhbrtf import model
from lmhbrtf.errors import ImaginaryResidueError, NumericalBreakdownError
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
from lmhbrtf.tensor import from_slice_stack, to_slice_stack
from lmhbrtf.transform import Transform


# conjugation pairs rows 0 and 1 and leaves rows 2 and 3 alone: the kept
# rows 0, 2, 3 are not a prefix
REORDERED_DFT_4 = np.fft.fft(np.eye(4))[[3, 1, 2, 0]]


def make_state(shape=(4, 4, 2), r=2, seed=3, sigma0_sq=1.0, gamma=1.0):
    y = np.random.default_rng(seed).standard_normal(shape)
    hp = HyperParams(init_rank=r, sigma0_sq=sigma0_sq, gamma=gamma,
                     tol=1e-6, max_iter=50)
    return init_state(y, Transform.dft(shape[2:]), hp, seed=seed)


def ybar_of(state):
    """The (K, I1, I2) stack of the kept transform slices of the observation."""
    return to_slice_stack(state.transform.forward(state.y, half=True))


def randomize_factors(state, seed=0):
    """Overwrite the posterior with arbitrary complex values (oracle tests).

    Only the active columns of each slice are drawn; the padding stays 0.
    """
    r = np.random.default_rng(seed)
    with edited_factors(state) as f:
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
    # one constant is the shape and the rate of the lambda, beta and tau priors
    assert model.GAMMA_PRIOR == 1e-6


def test_hyperparams_holds_only_the_five_varied_settings():
    assert list(inspect.signature(HyperParams).parameters) == [
        "init_rank", "sigma0_sq", "gamma", "tol", "max_iter"]
    assert repr(HyperParams(3, tol=1e-5)) == (
        "HyperParams(init_rank=3, sigma0_sq=1.0, gamma=None, tol=1e-05, max_iter=200)")


def test_hyperparam_validation():
    with pytest.raises(ValueError):
        HyperParams(init_rank=2, sigma0_sq=0.0)
    with pytest.raises(ValueError):
        HyperParams(init_rank=2, gamma=-1.0)


@pytest.mark.parametrize("value", [3.5, 3.0, "3", None])
def test_hyperparams_reject_non_integer_max_iter(value):
    with pytest.raises(ValueError, match="max_iter must be a nonnegative integer"):
        HyperParams(init_rank=2, max_iter=value)


@pytest.mark.parametrize("value", [2.7, 2.0, [3, 2.5, 3], np.array([2.0, 3.0]), "auto"])
def test_hyperparams_reject_non_integer_init_rank(value):
    with pytest.raises(ValueError, match="init_rank entries must be integers"):
        HyperParams(init_rank=value)
    HyperParams(init_rank=np.int64(2), max_iter=np.int32(3))


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["sigma0_sq", "gamma", "tol"])
def test_hyperparams_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        HyperParams(init_rank=2, **{name: value})


def test_init_state_values():
    state = make_state(sigma0_sq=1.0)
    assert np.allclose(state.sparse.beta_mean, 1.0)
    assert ((state.sparse.s_mean >= 0) & (state.sparse.s_mean < 1.0)).all()
    assert state.noise.tau_mean == pytest.approx(1.0)
    for k in range(state.n_slices):
        assert np.allclose(state.noise.lambda_mean(k), 1.0 / state.transform.phi)
        assert np.allclose(state.factors.sigma_u[k],
                           state.transform.phi * np.eye(state.factors.ranks[k]))
    # factor means reproduce the best rank-r approximation of each slice
    ybar = ybar_of(state)
    for k in range(state.n_slices):
        u, s, vh = np.linalg.svd(ybar[k], full_matrices=False)
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


@pytest.mark.parametrize("seed", [-1, 1.5, "1", None])
def test_init_state_rejects_seed_that_is_not_a_nonnegative_integer(seed):
    # run(..., seed=1.5) silently ran seed 1
    y = np.random.default_rng(0).standard_normal((4, 4, 5))
    for call in (init_state, run):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            call(y, Transform.dft((5,)), HyperParams(init_rank=2), seed)


def test_init_state_checks_init_rank_before_any_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("slice SVDs ran before the init_rank checks")

    y = np.random.default_rng(0).standard_normal((4, 4, 5))
    L = Transform.dft((5,))
    monkeypatch.setattr(model.np.linalg, "svd", no_svd)
    with pytest.raises(ValueError, match="mirrored"):
        init_state(y, L, HyperParams(init_rank=[3, 2, 1, 2, 2]), 0)
    with pytest.raises(ValueError, match="does not match"):
        init_state(y, Transform.dft((4,)), HyperParams(init_rank=[3, 2, 1, 2, 2]), 0)


def test_init_state_rejects_mirror_asymmetric_init_rank():
    y = np.random.default_rng(0).standard_normal((4, 4, 5))
    symmetric = HyperParams(init_rank=[3, 2, 1, 1, 2])
    state = init_state(y, Transform.dft((5,)), symmetric, seed=0)
    assert np.array_equal(state.factors.ranks, [3, 2, 1])
    with pytest.raises(ValueError, match="mirrored"):
        init_state(y, Transform.dft((5,)), HyperParams(init_rank=[3, 2, 1, 2, 2]), 0)


@pytest.mark.parametrize("shape,L,init_rank", [
    # order 4: slices 1 and 2, trailing (1, 0) and (2, 0), are mirrors and
    # both kept in the i4 = 0 plane
    ((6, 6, 3, 4), Transform.dft((3, 4)), [3, 2] + [3] * 10),
    # row-reordered DFT matrices keep rows 0, 2, 3 of mode 4: slices 7 and
    # 8, trailing (1, 2) and (2, 2), are mirrors and both kept in row 2
    ((6, 6, 3, 4), Transform.explicit([np.fft.fft(np.eye(3)), REORDERED_DFT_4]),
     [3] * 7 + [2] + [3] * 4),
])
def test_init_state_rejects_init_rank_asymmetric_on_a_kept_mirror_pair(shape, L, init_rank):
    y = np.random.default_rng(1).standard_normal(shape)
    with pytest.raises(ValueError, match="mirrored"):
        init_state(y, L, HyperParams(init_rank=init_rank), seed=0)
    with pytest.raises(ValueError, match="mirrored"):
        run(y, L, HyperParams(init_rank=init_rank, max_iter=2), seed=0)
    symmetric = np.minimum(init_rank, np.asarray(init_rank)[L.mirror])
    init_state(y, L, HyperParams(init_rank=symmetric), seed=0)


def test_hyperparams_as_dict_echoes_every_field_as_plain_values():
    hp = HyperParams(init_rank=np.array([3, 2, 2]), gamma=2.0)
    echo = hp.as_dict()
    assert echo["init_rank"] == [3, 2, 2]
    assert all(type(r) is int for r in echo["init_rank"])
    assert {k: v for k, v in echo.items() if k != "init_rank"} == {
        k: v for k, v in vars(hp).items() if k != "init_rank"}
    assert HyperParams(init_rank=4).as_dict()["init_rank"] == 4


def test_init_state_stores_the_kept_slices_when_they_are_not_a_prefix():
    y = np.random.default_rng(0).standard_normal((4, 4, 4))
    L = Transform.explicit([REORDERED_DFT_4])
    state = init_state(y, L, HyperParams(init_rank=[3, 3, 1, 2]), seed=0)
    assert np.array_equal(state.factors.ranks, [3, 1, 2])
    assert np.array_equal(state.multirank, [3, 3, 1, 2])


def test_init_state_rejects_transform_that_is_not_real_safe():
    y = np.random.default_rng(0).standard_normal((4, 4, 2))
    phase = Transform.explicit([np.diag([1.0, 1j])])
    with pytest.raises(ValueError, match="real-safe"):
        init_state(y, phase, HyperParams(init_rank=2), seed=0)


def test_update_u_ard_limit_kills_columns():
    state = make_state()
    state.noise.fit = state.hp.gamma  # refinement weight exactly 1
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
        y=ybar_of(state)[0], s=ybar_of(state)[0] - state.resid[0],
        vm=state.factors.v_mean[0], sv=state.factors.sigma_v[0],
        lam=state.noise.lambda_mean(0), tau=state.noise.tau_mean,
        weight=0.8 / state.hp.gamma,
    )
    assert np.allclose(state.factors.u_mean[0], expected, rtol=1e-12, atol=1e-12)
    assert np.allclose(state.factors.sigma_u[0], cov, rtol=1e-10, atol=1e-12)


def test_update_v_single_slice_mirror():
    state = make_state(shape=(5, 4, 1), r=2, seed=9)
    state.noise.fit = 0.8
    update_u(state)
    update_v(state)
    y = ybar_of(state)[0]
    s = y - state.resid[0]
    expected, cov = _reference_row_updates(
        y=y.conj().T, s=s.conj().T,
        vm=state.factors.u_mean[0], sv=state.factors.sigma_u[0],
        lam=state.noise.lambda_mean(0), tau=state.noise.tau_mean,
        weight=0.8 / state.hp.gamma,
    )
    assert np.allclose(state.factors.v_mean[0], expected, rtol=1e-12, atol=1e-12)
    assert np.allclose(state.factors.sigma_v[0], cov, rtol=1e-10, atol=1e-12)


def test_update_u_slice_locality():
    # slice k's update reads nothing from other slices, so edits elsewhere
    # leave its result bit-identical; 5 DFT slices keep 3 in the stack
    a = make_state(shape=(4, 4, 5), r=2, seed=5)
    b = make_state(shape=(4, 4, 5), r=2, seed=5)
    assert b.n_slices == 3
    with edited_factors(b) as f:
        f.v_mean[2] = f.v_mean[2] * 2.0
    b.noise.lambda_b[2] = b.noise.lambda_b[2] * 3.0
    update_u(a)
    update_u(b)
    assert a.factors.u_mean[0].tobytes() == b.factors.u_mean[0].tobytes()
    assert a.factors.sigma_u[1].tobytes() == b.factors.sigma_u[1].tobytes()
    assert a.factors.u_mean[2].tobytes() != b.factors.u_mean[2].tobytes()


def test_update_lambda_zero_factors():
    state = make_state(shape=(4, 3, 2), r=2)
    with edited_factors(state) as f:
        for k in range(state.n_slices):
            rk = f.ranks[k]
            f.u_mean[k] = np.zeros((4, rk), dtype=complex)
            f.v_mean[k] = np.zeros((3, rk), dtype=complex)
            f.sigma_u[k] = np.zeros((rk, rk), dtype=complex)
            f.sigma_v[k] = np.zeros((rk, rk), dtype=complex)
    update_lambda(state)
    expected = (model.GAMMA_PRIOR + (4 + 3) / 2) / model.GAMMA_PRIOR
    for k in range(state.n_slices):
        assert np.allclose(state.noise.lambda_b[k], model.GAMMA_PRIOR)
        assert np.allclose(state.noise.lambda_mean(k), expected)
        assert expected > 1e6  # huge precision: columns are prunable


def test_update_lambda_shape_term():
    state = make_state(shape=(6, 5, 2), r=2)
    update_lambda(state)
    assert state.noise.lambda_a == pytest.approx(model.GAMMA_PRIOR + (6 + 5) / 2,
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
        expected_b = model.GAMMA_PRIOR + 0.5 * np.diagonal(utu + vtv).real
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
    assert np.allclose(state.sparse.beta_mean, (model.GAMMA_PRIOR + 0.5) / model.GAMMA_PRIOR)
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
    expected = model.GAMMA_PRIOR + 0.5 * (state.sparse.s_mean ** 2 + state.sparse.s_var)
    assert np.allclose(state.sparse.beta_b, expected, rtol=1e-14)
    assert np.allclose(state.sparse.beta_a, model.GAMMA_PRIOR + 0.5, rtol=0)


def _zero_out(state, with_s=True):
    with edited_factors(state) as f:
        for k in range(state.n_slices):
            rk = f.ranks[k]
            i1, i2 = state.shape[:2]
            f.u_mean[k] = np.zeros((i1, rk), dtype=complex)
            f.v_mean[k] = np.zeros((i2, rk), dtype=complex)
            f.sigma_u[k] = np.zeros((rk, rk), dtype=complex)
            f.sigma_v[k] = np.zeros((rk, rk), dtype=complex)
    if with_s:
        state.sparse.s_mean = np.zeros(state.shape)
        state.sparse.s_var = np.zeros(state.shape)
        sbar = to_slice_stack(state.transform.forward(state.sparse.s_mean))
        state.resid = ybar_of(state) - sbar


def test_update_tau_cold_start():
    state = make_state(shape=(4, 4, 2), r=2, seed=13)
    _zero_out(state)
    update_tau(state)
    ybar_sq = np.sum(np.abs(ybar_of(state)) ** 2)
    expected_b = model.GAMMA_PRIOR + ybar_sq / (2 * state.transform.phi)
    assert state.noise.tau_b == pytest.approx(expected_b, rel=1e-12)
    assert state.noise.tau_a == pytest.approx(model.GAMMA_PRIOR + state.y.size / 2)


def test_update_tau_perfect_fit_limit():
    state = make_state(shape=(4, 4, 1), r=4, seed=2)
    # factors reproducing ybar exactly, no uncertainty anywhere
    with edited_factors(state) as f:
        f.u_mean[0] = ybar_of(state)[0].astype(complex)
        f.v_mean[0] = np.eye(4, dtype=complex)
        f.sigma_u[0] = np.zeros((4, 4), dtype=complex)
        f.sigma_v[0] = np.zeros((4, 4), dtype=complex)
        f.ranks[:] = 4
    state.sparse.s_mean = np.zeros(state.shape)
    state.sparse.s_var = np.zeros(state.shape)
    sbar = to_slice_stack(state.transform.forward(state.sparse.s_mean))
    state.resid = ybar_of(state) - sbar
    update_tau(state)
    assert state.noise.tau_b == pytest.approx(model.GAMMA_PRIOR, rel=1e-3)
    assert state.noise.tau_mean > 1e6


def test_compute_fit_limits():
    state = make_state(shape=(4, 4, 2), r=2, seed=6)
    _zero_out(state)
    assert compute_fit(state) == pytest.approx(0.0, abs=1e-12)

    exact = make_state(shape=(4, 4, 1), r=4, seed=2)
    with edited_factors(exact) as f:
        f.u_mean[0] = ybar_of(exact)[0].astype(complex)
        f.v_mean[0] = np.eye(4, dtype=complex)
        f.sigma_u[0] = np.zeros((4, 4), dtype=complex)
        f.sigma_v[0] = np.zeros((4, 4), dtype=complex)
    exact.sparse.s_mean = np.zeros(exact.shape)
    exact.sparse.s_var = np.zeros(exact.shape)
    sbar = to_slice_stack(exact.transform.forward(exact.sparse.s_mean))
    exact.resid = ybar_of(exact) - sbar
    assert compute_fit(exact) == pytest.approx(1.0, abs=1e-6)


def test_expected_residual_additivity_of_variance_terms():
    # the sparse-variance term enters scaled by phi
    state = make_state(shape=(3, 3, 2), r=1, seed=7)
    base = expected_residual_sq(state)
    state.sparse.s_var = state.sparse.s_var + 1.0
    bumped = expected_residual_sq(state)
    assert bumped - base == pytest.approx(state.transform.phi * state.y.size, rel=1e-12)


def test_prune_noop_below_threshold(monkeypatch):
    state = make_state(shape=(4, 4, 2), r=2, seed=3)
    before = [m.copy() for m in state.factors.u_mean]
    monkeypatch.setattr(model, "PRUNE_THRESHOLD", 1e-12)
    ranks = prune_columns(state)
    assert np.array_equal(ranks, [2, 2])
    for k in range(2):
        assert np.array_equal(state.factors.u_mean[k], before[k])


def test_prune_drops_zero_column():
    state = make_state(shape=(4, 4, 2), r=3, seed=3)
    with edited_factors(state) as f:
        for k in range(state.n_slices):
            f.u_mean[k][:, 1] = 0.0
            f.v_mean[k][:, 1] = 0.0
            cov = f.sigma_u[k].copy()
            cov[1, :] = 0.0
            cov[:, 1] = 0.0
            f.sigma_u[k] = cov
            f.sigma_v[k] = cov.copy()
    ranks = prune_columns(state)
    assert np.array_equal(ranks, [2, 2])
    for k in range(2):
        assert state.factors.u_mean[k].shape == (4, 2)
        assert state.noise.lambda_b[k].shape == (2,)
        assert state.factors.sigma_u[k].shape == (2, 2)


def test_prune_keeps_strongest_column(monkeypatch):
    state = make_state(shape=(4, 4, 1), r=2, seed=3)
    monkeypatch.setattr(model, "PRUNE_THRESHOLD", 0.999999)
    ranks = prune_columns(state)
    assert ranks[0] >= 1


def test_factor_arrays_and_their_statistics_are_read_only():
    state = make_state(shape=(4, 4, 5), r=2, seed=5)
    f = state.factors
    for array in (f.u_mean, f.v_mean, f.sigma_u, f.sigma_v, f.ranks,
                  f.u.gram, f.v.gram, f.energy, f.products):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # a deep copy is rebuilt read-only, with nothing cached
    g = copy.deepcopy(state).factors
    assert g is not f and "gram" not in vars(g.u) and "products" not in vars(g)
    assert np.array_equal(g.u_mean, f.u_mean) and np.array_equal(g.ranks, f.ranks)
    for array in (g.u_mean, g.v_mean, g.sigma_u, g.sigma_v, g.ranks):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_factors_are_frozen():
    f = make_state(shape=(4, 4, 5), r=2, seed=5).factors
    for obj, name in ((f.u, "mean"), (f.u, "cov"), (f.u, "gram"), (f, "u"),
                      (f, "ranks"), (f, "products"), (f.u, "other")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["deepcopy", "pickle"])
def test_copied_factors_are_read_only_and_uncached(clone):
    f = make_state(shape=(4, 4, 5), r=2, seed=5).factors
    f.energy, f.products, f.u.gram, f.v.gram  # fill every cache
    g, u = clone(f), clone(f.u)
    assert type(g) is model.FactorState and type(u) is model.Factor
    assert set(vars(g)) == {"u", "v", "ranks"} and set(vars(u)) == {"mean", "cov"}
    assert set(vars(g.u)) == set(vars(g.v)) == {"mean", "cov"}
    assert np.array_equal(g.products, f.products) and np.array_equal(u.gram, f.u.gram)
    for array in (g.u_mean, g.v_mean, g.sigma_u, g.sigma_v, g.ranks, u.mean, u.cov):
        assert not array.flags.writeable


def test_update_u_replaces_only_u_and_keeps_the_gram_of_v():
    state = make_state(shape=(4, 4, 5), r=2, seed=5)
    v = state.factors.v
    gram = v.gram
    update_u(state)
    assert state.factors.v is v and state.factors.v.gram is gram
    update_v(state)
    assert state.factors.v is not v


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
    with edited_factors(state) as f:
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
    scale = state.noise.tau_mean / state.transform.phi
    weight = state.noise.fit / state.hp.gamma
    resid = [state.resid[k] for k in range(3)]
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
                           model.GAMMA_PRIOR + energy / 2, rtol=1e-12)

    update_s(state)
    assert_padding_zero(state)
    xbar = np.zeros_like(state.resid)
    for k in live:
        mu, mv, _, _, _ = _active(state, k)
        xbar[k] = mu @ mv.conj().T
    half_shape = state.shape[:2] + state.transform.half_trailing
    expected_x = state.transform.inverse(from_slice_stack(xbar, half_shape), half=True)
    assert np.allclose(state.x_hat, expected_x, rtol=1e-12, atol=1e-14)

    update_beta(state)
    terms = np.zeros(3)
    for k in range(3):
        mu, mv, su, sv, _ = _active(state, k)
        res = state.resid[k] - mu @ mv.conj().T
        terms[k] = (np.sum(np.abs(res) ** 2)
                    + i1 * i2 * np.trace(sv @ su).real
                    + i1 * np.trace(su @ mv.conj().T @ mv).real
                    + i2 * np.trace(sv @ mu.conj().T @ mu).real)
    expected = (terms @ state.transform.slice_weights
                + state.transform.phi * state.sparse.s_var.sum())
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
    # slice 0 loses its first column and slice 1 its second: width 3 -> 2
    with edited_factors(state) as f:
        for k, col in ((0, 0), (1, 1)):
            f.u_mean[k][:, col] = 0.0
            f.v_mean[k][:, col] = 0.0
            for cov in (f.sigma_u[k], f.sigma_v[k]):
                cov[col, :] = 0.0
                cov[:, col] = 0.0
    old_u, old_sv = f.u_mean.copy(), f.sigma_v.copy()
    old_lb = state.noise.lambda_b.copy()
    ranks = prune_columns(state)
    f = state.factors
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


def test_ynorm_is_weighted_norm_of_stack():
    state = make_state(shape=(4, 3, 6), r=2, seed=12)
    w = state.transform.slice_weights
    ybar = ybar_of(state)
    recomputed = np.sqrt(sum(w[k] * np.linalg.norm(ybar[k]) ** 2
                             for k in range(state.n_slices)))
    assert state.ynorm == pytest.approx(recomputed, rel=1e-14)
    assert state.ynorm ** 2 == pytest.approx(state.transform.phi * np.sum(state.y ** 2), rel=1e-12)


def test_initial_residual_stack_is_transform_of_y_minus_s():
    # the state stores Rbar = L(Y - S) of the kept slices as a slice stack
    state = make_state(shape=(4, 3, 4), r=2, seed=8)
    L = state.transform
    direct = to_slice_stack(L.forward(state.y - state.sparse.s_mean, half=True))
    assert np.array_equal(state.resid, direct)


def test_update_s_sets_residual_to_transform_of_y_minus_s():
    state = mixed_rank_state()
    update_s(state)
    L = state.transform
    direct = to_slice_stack(L.forward(state.y - state.sparse.s_mean, half=True))
    assert np.array_equal(state.resid, direct)
    via_sbar = ybar_of(state) - to_slice_stack(L.forward(state.sparse.s_mean, half=True))
    assert (np.linalg.norm(state.resid - via_sbar)
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
                          model.GAMMA_PRIOR + 0.5 * (sp.s_mean ** 2 + sp.s_var))
    assert sp.beta_a == model.GAMMA_PRIOR + 0.5
    assert all(a is b for a, b in zip((sp.s_mean, sp.s_var, sp.beta_b), arrays))


def test_update_s_keeps_the_products_behind_x_hat():
    state = mixed_rank_state()
    update_s(state)
    assert np.array_equal(state.x_hat, reconstruct_x(state))
    update_beta(state)
    kept = expected_residual_sq(state)
    with edited_factors(state):
        pass  # the same factors, with nothing cached
    assert np.array_equal(state.x_hat, reconstruct_x(state))
    assert kept == expected_residual_sq(state)


# --------------------------------------------------------------------------
# numerical breakdowns name the quantity and the slice


def test_singular_precision_names_the_slice():
    state = make_state(shape=(4, 4, 5), r=2, seed=5)
    with edited_factors(state) as f:
        f.v_mean[1] = 0.0
        f.sigma_v[1] = 0.0
    state.noise.fit = 0.0  # no ARD term: slice 1's precision block is zero
    with pytest.raises(NumericalBreakdownError,
                       match=r"singular posterior precision of U on slice 1 "
                             r"\(trailing index \(1,\)\)"):
        update_u(state)


def test_indefinite_precision_names_the_slice():
    # a negative variance makes slice 2's precision of U indefinite but
    # nonsingular: an inverse would succeed, the Cholesky factorization fails
    state = make_state(shape=(4, 4, 5), r=2, seed=5)
    with edited_factors(state) as f:
        f.sigma_v[2][0, 0] = -1e3
    assert np.linalg.eigvalsh(state.factors.sigma_v[2]).min() < 0
    with pytest.raises(NumericalBreakdownError,
                       match=r"singular posterior precision of U on slice 2 "
                             r"\(trailing index \(2,\)\)"):
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
    with edited_factors(state) as f:
        f.ranks[2] = 1
    state.noise.lambda_b[2, 1] = -1.0
    _check_state_positive(state)


def test_breakdown_names_the_j_index_when_kept_slices_are_not_a_prefix():
    # stored slice 1 is kept row 2: slice 2 of the J
    y = np.random.default_rng(5).standard_normal((4, 4, 4))
    state = init_state(y, Transform.explicit([REORDERED_DFT_4]),
                       HyperParams(init_rank=2), seed=5)
    state.noise.lambda_b[1, 1] = 0.0
    with pytest.raises(NumericalBreakdownError,
                       match=r"lambda_b is not positive on slice 2 "
                             r"\(trailing index \(2,\)\)"):
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


def test_imaginary_residue_in_run_names_the_iteration(monkeypatch):
    y = np.random.default_rng(3).standard_normal((5, 5, 4))
    original = model.update_s
    calls = []

    def update_s_failing_at_3(state):
        calls.append(1)
        if len(calls) == 3:
            raise ImaginaryResidueError("imaginary residue 5e-06 exceeds 1e-08 * 10")
        return original(state)

    monkeypatch.setattr(model, "update_s", update_s_failing_at_3)
    with pytest.raises(ImaginaryResidueError, match=r"^iteration 3: imaginary residue"):
        run(y, Transform.dft((4,)), HyperParams(init_rank=2, max_iter=10), seed=0)


def test_indefinite_precision_in_run_names_the_iteration(monkeypatch):
    y = np.random.default_rng(3).standard_normal((5, 5, 4))
    original = model.update_u
    calls = []

    def update_u_after_bad_variance_at_3(state):
        calls.append(1)
        if len(calls) == 3:
            with edited_factors(state) as f:
                f.sigma_v[1][0, 0] = -1e3
        return original(state)

    monkeypatch.setattr(model, "update_u", update_u_after_bad_variance_at_3)
    with pytest.raises(NumericalBreakdownError,
                       match=r"^iteration 3: singular posterior precision of U "
                             r"on slice 1 \(trailing index \(1,\)\)"):
        run(y, Transform.dft((4,)), HyperParams(init_rank=2, max_iter=10), seed=0)
