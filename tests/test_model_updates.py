"""Closed-form posterior updates checked against limits and recompute oracles."""

import copy
import inspect
import json
import math
import pickle

import numpy as np
import pytest
from factor_edits import edited_factors

# the coordinate objectives live with criterion 6; the ragged-rank check
# below is quick, so it runs here, outside the slow acceptance module
from test_acceptance import _check_weighted_factor_updates, _tiny_state

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
from lmhbrtf.synth import SynthConfig, desk_multirank, generate, uniform_multirank
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


def make_ragged(state, ranks):
    """Cut the kept slices of *state* to *ranks* columns, zeroing the rest."""
    with edited_factors(state) as f:
        f.ranks = np.asarray(ranks)
        inactive = np.arange(f.u.mean.shape[2]) >= f.ranks[:, None]
        for factor in (f.u, f.v):
            factor.mean[np.broadcast_to(inactive[:, None, :], factor.mean.shape)] = 0.0
            pad = inactive[:, :, None] | inactive[:, None, :]
            factor.cov[pad] = 0.0


def randomize_factors(state, seed=0):
    """Overwrite the posterior with arbitrary complex values (oracle tests).

    Only the active columns of each slice are drawn; the padding stays 0.
    """
    r = np.random.default_rng(seed)
    with edited_factors(state) as f:
        for k in range(state.n_slices):
            rk = f.ranks[k]
            i1, i2 = state.shape[:2]
            f.u.mean[k, :, :rk] = r.standard_normal((i1, rk)) + 1j * r.standard_normal((i1, rk))
            f.v.mean[k, :, :rk] = r.standard_normal((i2, rk)) + 1j * r.standard_normal((i2, rk))
            for covs in (f.u.cov, f.v.cov):
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


@pytest.mark.parametrize("value", [3.5, 3.0, "3", None, True, False])
def test_hyperparams_reject_non_integer_max_iter(value):
    with pytest.raises(ValueError, match="max_iter must be a nonnegative integer"):
        HyperParams(init_rank=2, max_iter=value)


@pytest.mark.parametrize("value", [2.7, 2.0, [3, 3], np.array([3, 3]), "auto", True, 0])
def test_hyperparams_reject_non_integer_init_rank(value):
    # the initial rank is one integer >= 1, the same for every slice
    with pytest.raises(ValueError, match="init_rank must be a positive integer"):
        HyperParams(init_rank=value)
    HyperParams(init_rank=np.int64(2), max_iter=np.int32(3))


def test_hyperparams_store_plain_python_numbers():
    # numpy scalars would make the report echo unserializable
    hp = HyperParams(init_rank=np.int64(3), sigma0_sq=np.float32(0.5),
                     gamma=np.float64(2.0), tol=np.float16(0.25), max_iter=np.int32(3))
    settings = hp.as_dict()
    assert settings == {"init_rank": 3, "sigma0_sq": 0.5, "gamma": 2.0,
                        "tol": 0.25, "max_iter": 3}
    assert [type(v) for v in settings.values()] == [int, float, float, float, int]
    json.dumps(settings)


# True compared as 1 and was stored as 1.0
@pytest.mark.parametrize("value", [math.nan, math.inf, True])
@pytest.mark.parametrize("name", ["sigma0_sq", "gamma", "tol"])
def test_hyperparams_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        HyperParams(init_rank=2, **{name: value})


def test_init_state_values():
    state = make_state(sigma0_sq=1.0)
    assert np.allclose(state.sparse.beta_a / state.sparse.beta_b, 1.0)
    assert ((state.sparse.s_mean >= 0) & (state.sparse.s_mean < 1.0)).all()
    assert state.noise.tau_mean == pytest.approx(1.0)
    for k in range(state.n_slices):
        assert np.allclose(state.noise.lambda_mean[k], 1.0 / state.transform.phi)
        assert np.allclose(state.factors.u.cov[k],
                           state.transform.phi * np.eye(state.factors.ranks[k]))
    # factor means reproduce the best rank-r approximation of each slice
    ybar = ybar_of(state)
    for k in range(state.n_slices):
        u, s, vh = np.linalg.svd(ybar[k], full_matrices=False)
        best = (u[:, :2] * s[:2]) @ vh[:2]
        prod = state.factors.u.mean[k] @ state.factors.v.mean[k].conj().T
        assert np.linalg.norm(prod - best) <= 1e-10 * np.linalg.norm(best)


def test_init_state_deterministic():
    a = make_state(seed=11)
    b = make_state(seed=11)
    assert a.sparse.s_mean.tobytes() == b.sparse.s_mean.tobytes()
    for k in range(a.n_slices):
        assert a.factors.u.mean[k].tobytes() == b.factors.u.mean[k].tobytes()
        assert a.factors.v.mean[k].tobytes() == b.factors.v.mean[k].tobytes()
    assert a.noise.fit == b.noise.fit


def test_init_state_rejects_oversized_rank():
    y = np.zeros((3, 4, 2))
    y[0, 0, 0] = 1.0
    hp = HyperParams(init_rank=4)
    with pytest.raises(ValueError, match="init_rank 4 exceeds the smaller slice side 3"):
        init_state(y, Transform.dft((2,)), hp, seed=0)


def test_init_state_rejects_complex_input():
    hp = HyperParams(init_rank=1)
    with pytest.raises(ValueError, match="real"):
        init_state(np.zeros((3, 3, 2), dtype=complex), Transform.dft((2,)), hp, 0)


@pytest.mark.parametrize("seed", [-1, 1.5, "1", None, True])
def test_init_state_rejects_seed_that_is_not_a_nonnegative_integer(seed):
    # run(..., seed=1.5) and run(..., seed=True) silently ran seed 1
    y = np.random.default_rng(0).standard_normal((4, 4, 5))
    for call in (init_state, run):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            call(y, Transform.dft((5,)), HyperParams(init_rank=2), seed)


def test_init_state_checks_init_rank_before_any_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("slice SVDs ran before the init_rank checks")

    y = np.random.default_rng(0).standard_normal((4, 4, 5))
    monkeypatch.setattr(model.np.linalg, "svd", no_svd)
    with pytest.raises(ValueError, match="init_rank 5 exceeds"):
        init_state(y, Transform.dft((5,)), HyperParams(init_rank=5), 0)
    with pytest.raises(ValueError, match="does not match"):
        init_state(y, Transform.dft((4,)), HyperParams(init_rank=3), 0)


def test_hyperparams_as_dict_echoes_every_field_as_plain_values():
    hp = HyperParams(init_rank=np.int32(3), gamma=2.0)
    echo = hp.as_dict()
    assert echo == vars(hp)
    assert type(echo["init_rank"]) is int
    assert json.loads(json.dumps(echo)) == echo


def test_init_state_stores_the_kept_slices_when_they_are_not_a_prefix():
    y = np.random.default_rng(0).standard_normal((4, 4, 4))
    L = Transform.explicit([REORDERED_DFT_4])
    state = init_state(y, L, HyperParams(init_rank=3), seed=0)
    assert np.array_equal(L.kept_slices, [0, 2, 3])
    full = to_slice_stack(L.forward(state.y - state.sparse.s_mean))
    assert np.allclose(state.resid, full[[0, 2, 3]], rtol=0, atol=1e-12)
    make_ragged(state, [3, 1, 2])
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
        assert np.linalg.norm(state.factors.u.cov[k]) <= 1e-9
        assert np.linalg.norm(state.factors.u.mean[k]) <= 1e-6


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
        vm=state.factors.v.mean[0], sv=state.factors.v.cov[0],
        lam=state.noise.lambda_mean[0], tau=state.noise.tau_mean,
        weight=0.8 / state.hp.gamma,
    )
    assert np.allclose(state.factors.u.mean[0], expected, rtol=1e-12, atol=1e-12)
    assert np.allclose(state.factors.u.cov[0], cov, rtol=1e-10, atol=1e-12)


def test_update_v_single_slice_mirror():
    state = make_state(shape=(5, 4, 1), r=2, seed=9)
    state.noise.fit = 0.8
    update_u(state)
    update_v(state)
    y = ybar_of(state)[0]
    s = y - state.resid[0]
    expected, cov = _reference_row_updates(
        y=y.conj().T, s=s.conj().T,
        vm=state.factors.u.mean[0], sv=state.factors.u.cov[0],
        lam=state.noise.lambda_mean[0], tau=state.noise.tau_mean,
        weight=0.8 / state.hp.gamma,
    )
    assert np.allclose(state.factors.v.mean[0], expected, rtol=1e-12, atol=1e-12)
    assert np.allclose(state.factors.v.cov[0], cov, rtol=1e-10, atol=1e-12)


def test_update_u_slice_locality():
    # slice k's update reads nothing from other slices, so edits elsewhere
    # leave its result bit-identical; 5 DFT slices keep 3 in the stack
    a = make_state(shape=(4, 4, 5), r=2, seed=5)
    b = make_state(shape=(4, 4, 5), r=2, seed=5)
    assert b.n_slices == 3
    with edited_factors(b) as f:
        f.v.mean[2] = f.v.mean[2] * 2.0
    b.noise.lambda_b[2] = b.noise.lambda_b[2] * 3.0
    update_u(a)
    update_u(b)
    assert a.factors.u.mean[0].tobytes() == b.factors.u.mean[0].tobytes()
    assert a.factors.u.cov[1].tobytes() == b.factors.u.cov[1].tobytes()
    assert a.factors.u.mean[2].tobytes() != b.factors.u.mean[2].tobytes()


def test_update_lambda_zero_factors():
    state = make_state(shape=(4, 3, 2), r=2)
    with edited_factors(state) as f:
        for k in range(state.n_slices):
            rk = f.ranks[k]
            f.u.mean[k] = np.zeros((4, rk), dtype=complex)
            f.v.mean[k] = np.zeros((3, rk), dtype=complex)
            f.u.cov[k] = np.zeros((rk, rk), dtype=complex)
            f.v.cov[k] = np.zeros((rk, rk), dtype=complex)
    update_lambda(state)
    expected = (model.GAMMA_PRIOR + (4 + 3) / 2) / model.GAMMA_PRIOR
    for k in range(state.n_slices):
        assert np.allclose(state.noise.lambda_b[k], model.GAMMA_PRIOR)
        assert np.allclose(state.noise.lambda_mean[k], expected)
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
        utu = i1 * f.u.cov[k] + f.u.mean[k].conj().T @ f.u.mean[k]
        vtv = i2 * f.v.cov[k] + f.v.mean[k].conj().T @ f.v.mean[k]
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
    assert np.allclose(state.sparse.beta_a / state.sparse.beta_b,
                       (model.GAMMA_PRIOR + 0.5) / model.GAMMA_PRIOR)
    assert (state.sparse.beta_a / state.sparse.beta_b).min() > 1e5

    state.sparse.s_mean = np.ones(state.shape)
    state.sparse.s_var = np.zeros(state.shape)
    update_beta(state)
    assert np.allclose(state.sparse.beta_a / state.sparse.beta_b, 1.0, rtol=1e-5)


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
            f.u.mean[k] = np.zeros((i1, rk), dtype=complex)
            f.v.mean[k] = np.zeros((i2, rk), dtype=complex)
            f.u.cov[k] = np.zeros((rk, rk), dtype=complex)
            f.v.cov[k] = np.zeros((rk, rk), dtype=complex)
    if with_s:
        state.sparse.s_mean = np.zeros(state.shape)
        state.sparse.s_var = np.zeros(state.shape)
        sbar = to_slice_stack(state.transform.forward(state.sparse.s_mean))
        state.resid = ybar_of(state) - sbar


def test_update_tau_cold_start():
    state = make_state(shape=(4, 4, 2), r=2, seed=13)
    _zero_out(state)
    update_tau(state, expected_residual_sq(state))
    ybar_sq = np.sum(np.abs(ybar_of(state)) ** 2)
    expected_b = model.GAMMA_PRIOR + ybar_sq / (2 * state.transform.phi)
    assert state.noise.tau_b == pytest.approx(expected_b, rel=1e-12)
    assert state.noise.tau_a == pytest.approx(model.GAMMA_PRIOR + state.y.size / 2)


def test_update_tau_perfect_fit_limit():
    state = make_state(shape=(4, 4, 1), r=4, seed=2)
    # factors reproducing ybar exactly, no uncertainty anywhere
    with edited_factors(state) as f:
        f.u.mean[0] = ybar_of(state)[0].astype(complex)
        f.v.mean[0] = np.eye(4, dtype=complex)
        f.u.cov[0] = np.zeros((4, 4), dtype=complex)
        f.v.cov[0] = np.zeros((4, 4), dtype=complex)
        f.ranks[:] = 4
    state.sparse.s_mean = np.zeros(state.shape)
    state.sparse.s_var = np.zeros(state.shape)
    sbar = to_slice_stack(state.transform.forward(state.sparse.s_mean))
    state.resid = ybar_of(state) - sbar
    update_tau(state, expected_residual_sq(state))
    assert state.noise.tau_b == pytest.approx(model.GAMMA_PRIOR, rel=1e-3)
    assert state.noise.tau_mean > 1e6


def test_compute_fit_limits():
    state = make_state(shape=(4, 4, 2), r=2, seed=6)
    _zero_out(state)
    assert compute_fit(state, expected_residual_sq(state)) == pytest.approx(0.0, abs=1e-12)

    exact = make_state(shape=(4, 4, 1), r=4, seed=2)
    with edited_factors(exact) as f:
        f.u.mean[0] = ybar_of(exact)[0].astype(complex)
        f.v.mean[0] = np.eye(4, dtype=complex)
        f.u.cov[0] = np.zeros((4, 4), dtype=complex)
        f.v.cov[0] = np.zeros((4, 4), dtype=complex)
    exact.sparse.s_mean = np.zeros(exact.shape)
    exact.sparse.s_var = np.zeros(exact.shape)
    sbar = to_slice_stack(exact.transform.forward(exact.sparse.s_mean))
    exact.resid = ybar_of(exact) - sbar
    assert compute_fit(exact, expected_residual_sq(exact)) == pytest.approx(1.0, abs=1e-6)


def test_compute_fit_of_an_all_zero_observation_is_undefined():
    # init_state skips the fit of an all-zero observation; the phase itself refuses it
    state = init_state(np.zeros((4, 4, 2)), Transform.dft((2,)), HyperParams(2), seed=0)
    assert state.ynorm == 0 and state.noise.fit == 0.0
    with pytest.raises(ValueError, match="^fit is undefined for an identically zero "
                                         "observation$"):
        compute_fit(state, 0.0)
    assert state.noise.fit == 0.0


@pytest.mark.parametrize("phase", [update_tau, compute_fit])
def test_noise_phases_take_the_expected_residual_as_a_required_argument(phase, monkeypatch):
    state = make_state(shape=(4, 4, 2), r=2, seed=6)
    with pytest.raises(TypeError):
        phase(state)
    resid_sq = expected_residual_sq(state)
    monkeypatch.setattr(model, "expected_residual_sq", None)  # must not be called
    phase(state, resid_sq)


def test_expected_residual_additivity_of_variance_terms():
    # the sparse-variance term enters scaled by phi
    state = make_state(shape=(3, 3, 2), r=1, seed=7)
    base = expected_residual_sq(state)
    state.sparse.s_var = state.sparse.s_var + 1.0
    bumped = expected_residual_sq(state)
    assert bumped - base == pytest.approx(state.transform.phi * state.y.size, rel=1e-12)


def test_prune_noop_below_threshold(monkeypatch):
    state = make_state(shape=(4, 4, 2), r=2, seed=3)
    before = [m.copy() for m in state.factors.u.mean]
    monkeypatch.setattr(model, "PRUNE_THRESHOLD", 1e-12)
    ranks = prune_columns(state)
    assert np.array_equal(ranks, [2, 2])
    for k in range(2):
        assert np.array_equal(state.factors.u.mean[k], before[k])


def test_prune_drops_zero_column():
    state = make_state(shape=(4, 4, 2), r=3, seed=3)
    with edited_factors(state) as f:
        for k in range(state.n_slices):
            f.u.mean[k][:, 1] = 0.0
            f.v.mean[k][:, 1] = 0.0
            cov = f.u.cov[k].copy()
            cov[1, :] = 0.0
            cov[:, 1] = 0.0
            f.u.cov[k] = cov
            f.v.cov[k] = cov.copy()
    ranks = prune_columns(state)
    assert np.array_equal(ranks, [2, 2])
    for k in range(2):
        assert state.factors.u.mean[k].shape == (4, 2)
        assert state.noise.lambda_b[k].shape == (2,)
        assert state.factors.u.cov[k].shape == (2, 2)


def test_prune_keeps_strongest_column(monkeypatch):
    state = make_state(shape=(4, 4, 1), r=2, seed=3)
    monkeypatch.setattr(model, "PRUNE_THRESHOLD", 0.999999)
    ranks = prune_columns(state)
    assert ranks[0] >= 1


def test_factor_arrays_and_their_statistics_are_read_only():
    state = make_state(shape=(4, 4, 5), r=2, seed=5)
    f = state.factors
    for array in (f.u.mean, f.v.mean, f.u.cov, f.v.cov, f.ranks,
                  f.u.gram, f.v.gram, f.energy, f.products):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # a deep copy is rebuilt read-only, with nothing cached
    g = copy.deepcopy(state).factors
    assert g is not f and "gram" not in vars(g.u) and "products" not in vars(g)
    assert np.array_equal(g.u.mean, f.u.mean) and np.array_equal(g.ranks, f.ranks)
    for array in (g.u.mean, g.v.mean, g.u.cov, g.v.cov, g.ranks):
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
    for array in (g.u.mean, g.v.mean, g.u.cov, g.v.cov, g.ranks, u.mean, u.cov):
        assert not array.flags.writeable


def test_update_u_replaces_only_u_and_keeps_the_gram_of_v():
    state = make_state(shape=(4, 4, 5), r=2, seed=5)
    v = state.factors.v
    gram = v.gram
    update_u(state)
    assert state.factors.v is v and state.factors.v.gram is gram
    update_v(state)
    assert state.factors.v is not v


@pytest.mark.parametrize("trailing,ranks", [((5,), [3, 1, 2]), ((4,), [3, 1, 2]),
                                            ((3, 4), [3, 1, 2, 1, 3, 2, 1])])
def test_factor_updates_are_optimal_on_a_pruned_state_with_ragged_ranks(trailing, ranks):
    # the weighted coordinate check of the factor updates on the state that
    # pruning leaves, each slice padded with zero columns past its rank; a
    # padded covariance is singular, so the objective reads the active
    # blocks only
    for seed in (1, 2, 3):
        state, rng = _tiny_state(seed, shape=(5, 4) + trailing, rank=3)
        make_ragged(state, ranks)
        _check_weighted_factor_updates(state, rng, f"seed {seed} ranks {ranks}")
        padded = ~state.factors.active
        for factor in (state.factors.u, state.factors.v):
            assert not np.where(padded[:, None, :], factor.mean, 0).any()


def test_reconstruct_zero_factors_and_single_slice():
    state = make_state(shape=(4, 3, 2), r=2, seed=10)
    _zero_out(state, with_s=False)
    assert np.array_equal(reconstruct_x(state), np.zeros(state.shape))

    single = make_state(shape=(4, 3, 1), r=2, seed=10)
    got = reconstruct_x(single)
    expected = (single.factors.u.mean[0] @ single.factors.v.mean[0].conj().T).real
    assert np.allclose(got[:, :, 0], expected, rtol=1e-12, atol=1e-14)


# --------------------------------------------------------------------------
# stacked, zero-padded factor layout


def assert_padding_zero(state):
    """Columns and covariance rows/columns beyond each slice's rank are 0."""
    f = state.factors
    assert f.u.mean.shape[2] == f.ranks.max(initial=0)
    for k, r in enumerate(f.ranks):
        assert not f.u.mean[k][:, r:].any()
        assert not f.v.mean[k][:, r:].any()
        for cov in (f.u.cov[k], f.v.cov[k]):
            assert not cov[r:, :].any() and not cov[:, r:].any()


def mixed_rank_state():
    """Kept ranks [3, 2, 0] on (4, 4, 5): slice 2 is pruned to rank 0."""
    y = np.random.default_rng(17).standard_normal((4, 4, 5))
    hp = HyperParams(init_rank=3, gamma=1.0, tol=1e-6, max_iter=50)
    state = init_state(y, Transform.dft((5,)), hp, seed=17)
    make_ragged(state, [3, 2, 1])
    assert np.array_equal(state.multirank, [3, 2, 1, 1, 2])
    assert_padding_zero(state)
    randomize_factors(state, seed=4)
    with edited_factors(state) as f:
        for stack in (f.u.mean, f.v.mean, f.u.cov, f.v.cov):
            stack[0] = stack[0].real  # slice 0 is self-paired: real under the DFT
        f.u.mean[2] = 0.0
        f.v.mean[2] = 0.0
        f.u.cov[2] = 0.0
        f.v.cov[2] = 0.0
    assert np.array_equal(prune_columns(state), [3, 2, 0, 0, 2])
    assert_padding_zero(state)
    state.noise.fit = 0.4
    return state


def _active(state, k):
    f = state.factors
    r = f.ranks[k]
    return (f.u.mean[k][:, :r], f.v.mean[k][:, :r],
            f.u.cov[k][:r, :r], f.v.cov[k][:r, :r],
            state.noise.lambda_mean[k][:r])


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
    update_tau(state, expected_residual_sq(state))
    compute_fit(state, expected_residual_sq(state))
    prune_columns(state)
    assert_padding_zero(state)


def test_prune_compacts_survivors_in_order_and_shrinks_width():
    y = np.random.default_rng(2).standard_normal((5, 4, 5))
    state = init_state(y, Transform.dft((5,)), HyperParams(init_rank=3), seed=2)
    make_ragged(state, [3, 2, 1])
    randomize_factors(state, seed=9)
    # slice 0 loses its first column and slice 1 its second: width 3 -> 2
    with edited_factors(state) as f:
        for k, col in ((0, 0), (1, 1)):
            f.u.mean[k][:, col] = 0.0
            f.v.mean[k][:, col] = 0.0
            for cov in (f.u.cov[k], f.v.cov[k]):
                cov[col, :] = 0.0
                cov[:, col] = 0.0
    old_u, old_sv = f.u.mean.copy(), f.v.cov.copy()
    old_lb = state.noise.lambda_b.copy()
    ranks = prune_columns(state)
    f = state.factors
    assert np.array_equal(ranks, [2, 1, 1, 1, 1])
    assert f.u.mean.shape == (3, 5, 2) and f.v.cov.shape == (3, 2, 2)
    assert state.noise.lambda_b.shape == (3, 2)
    survivors = {0: [1, 2], 1: [0], 2: [0]}
    for k, cols in survivors.items():
        r = len(cols)
        assert np.array_equal(f.u.mean[k][:, :r], old_u[k][:, cols])
        assert np.array_equal(f.v.cov[k][:r, :r], old_sv[k][np.ix_(cols, cols)])
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
        f.v.mean[1] = 0.0
        f.v.cov[1] = 0.0
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
        f.v.cov[2][0, 0] = -1e3
    assert np.linalg.eigvalsh(state.factors.v.cov[2]).min() < 0
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
    # the updates keep lambda_b, s_var and beta_b positive (a planted -1.0 in
    # lambda_b was overwritten by the next update_lambda), so a NaN is planted
    # after the phase that sets it in iteration 3; run tests only the expected
    # residual, which the NaN reaches by iteration 4, then names the quantity
    y = np.random.default_rng(3).standard_normal((5, 5, 4))
    plants = [
        ("update_lambda", lambda state: state.noise.lambda_b, (1, 0),
         r"^iteration 4: ARD Gamma rate lambda_b is not positive on slice 1 "
         r"\(trailing index \(1,\)\)"),
        # s_var enters the residual at once, and beta_b is built from it
        ("update_s", lambda state: state.sparse.s_var, (1, 0, 1),
         r"^iteration 3: sparse Gamma rate beta_b is not positive at index \(1, 0, 1\)"),
        ("update_beta", lambda state: state.sparse.beta_b, (1, 0, 1),
         r"^iteration 4: sparse Gamma rate beta_b is not positive at index \(1, 0, 1\)"),
    ]
    for phase, target, index, message in plants:
        original = getattr(model, phase)
        calls = []

        def planting_at_3(state, original=original, target=target, index=index,
                          calls=calls):
            out = original(state)
            calls.append(1)
            if len(calls) == 3:
                target(state)[index] = np.nan
            return out

        with monkeypatch.context() as m:
            m.setattr(model, phase, planting_at_3)
            with pytest.raises(NumericalBreakdownError, match=message):
                run(y, Transform.dft((4,)), HyperParams(init_rank=2, max_iter=10), seed=0)


def test_non_finite_residual_with_a_positive_state_names_the_residual(monkeypatch):
    # with every scanned quantity positive, the scan names the residual itself
    y = np.random.default_rng(3).standard_normal((5, 5, 4))
    monkeypatch.setattr(model, "expected_residual_sq", lambda state: math.inf)
    with pytest.raises(NumericalBreakdownError,
                       match=r"^iteration 1: expected squared residual inf is not "
                             r"finite and positive$"):
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
                f.v.cov[1][0, 0] = -1e3
        return original(state)

    monkeypatch.setattr(model, "update_u", update_u_after_bad_variance_at_3)
    with pytest.raises(NumericalBreakdownError,
                       match=r"^iteration 3: singular posterior precision of U "
                             r"on slice 1 \(trailing index \(1,\)\)"):
        run(y, Transform.dft((4,)), HyperParams(init_rank=2, max_iter=10), seed=0)


def _full_spectrum(x):
    """The unnormalized DFT of *x* along modes 3..d, as a list of its J slices."""
    xbar = np.fft.fftn(x, axes=tuple(range(2, x.ndim)))
    xbar = xbar.reshape(x.shape[:2] + (-1,), order="F")
    return [xbar[:, :, j] for j in range(xbar.shape[2])]


def _from_full_spectrum(slices, shape):
    """The real tensor of *shape* whose full DFT has the given J slices."""
    xbar = np.stack(slices, axis=2).reshape(shape, order="F")
    return np.fft.ifftn(xbar, axes=tuple(range(2, len(shape)))).real


class FullSpectrumOracle:
    """The model's iteration written from its update equations as a plain
    loop over all J DFT slices: no half spectrum, no padding, no batched
    stacks, np.linalg.inv for the covariances.

    The start is a model state: slice j of each factor posterior is kept
    slice ``slice_map[0][j]``, conjugated where ``slice_map[1][j]`` is set,
    cut to its active columns.
    """

    def __init__(self, state):
        source, conj = state.transform.slice_map
        f, noise, sp = state.factors, state.noise, state.sparse
        self.y, self.gamma = state.y, state.hp.gamma
        self.u, self.su, self.v, self.sv, self.lam_b = [], [], [], [], []
        for k, c in zip(source, conj):
            r = f.ranks[k]
            part = np.conj if c else np.copy
            self.u.append(part(f.u.mean[k, :, :r]))
            self.v.append(part(f.v.mean[k, :, :r]))
            self.su.append(part(f.u.cov[k, :r, :r]))
            self.sv.append(part(f.v.cov[k, :r, :r]))
            self.lam_b.append(noise.lambda_b[k, :r].copy())
        self.phi = float(len(self.u))
        self.lam_a, self.tau_a, self.tau_b = noise.lambda_a, noise.tau_a, noise.tau_b
        self.s, self.s_var = sp.s_mean.copy(), sp.s_var.copy()
        self.beta_a, self.beta_b = sp.beta_a, sp.beta_b.copy()
        self.ynorm = math.sqrt(sum(np.linalg.norm(s) ** 2 for s in _full_spectrum(self.y)))
        self.resid = _full_spectrum(self.y - self.s)
        self.fit = self._fit(self._expected_residual_sq())
        self.x_hat = None

    @property
    def tau(self):
        return self.tau_a / self.tau_b

    @property
    def multirank(self):
        return [u.shape[1] for u in self.u]

    def _expected_residual_sq(self):
        i1, i2 = self.y.shape[:2]
        total = self.phi * self.s_var.sum()
        for r, u, su, v, sv in zip(self.resid, self.u, self.su, self.v, self.sv):
            uu, vv = u.conj().T @ u, v.conj().T @ v
            total += np.linalg.norm(r - u @ v.conj().T) ** 2 + np.trace(
                i1 * i2 * su @ sv + i1 * su @ vv + i2 * uu @ sv).real
        return total

    def _fit(self, resid_sq):
        return 1.0 - math.sqrt(resid_sq) / self.ynorm

    def _column_energy(self, j):
        """Slice j's column energies, the diagonal of <U^H U> + <V^H V>."""
        i1, i2 = self.y.shape[:2]
        u, v = self.u[j], self.v[j]
        return (i1 * np.diag(self.su[j]).real + (abs(u) ** 2).sum(axis=0)
                + i2 * np.diag(self.sv[j]).real + (abs(v) ** 2).sum(axis=0))

    def iterate(self):
        i1, i2 = self.y.shape[:2]
        tau, w = self.tau, max(self.fit, 0.0) / self.gamma
        scale = tau / self.phi
        for j, r in enumerate(self.resid):  # U, V and lambda
            ard = w * np.diag(self.lam_a / self.lam_b[j])
            u, v = self.u[j], self.v[j]
            self.su[j] = np.linalg.inv(scale * (i2 * self.sv[j] + v.conj().T @ v) + ard)
            self.u[j] = u = scale * r @ v @ self.su[j]
            self.sv[j] = np.linalg.inv(scale * (i1 * self.su[j] + u.conj().T @ u) + ard)
            self.v[j] = scale * r.conj().T @ u @ self.sv[j]
            self.lam_b[j] = model.GAMMA_PRIOR + self._column_energy(j) / 2
        self.lam_a = model.GAMMA_PRIOR + (i1 + i2) / 2
        self.x_hat = _from_full_spectrum([u @ v.conj().T for u, v in zip(self.u, self.v)],
                                         self.y.shape)
        denom = self.beta_a / self.beta_b + tau  # S, then beta
        self.s = tau * (self.y - self.x_hat) / denom
        self.s_var = 1.0 / denom
        self.resid = _full_spectrum(self.y - self.s)
        self.beta_a = model.GAMMA_PRIOR + 0.5
        self.beta_b = model.GAMMA_PRIOR + (self.s ** 2 + self.s_var) / 2
        resid_sq = self._expected_residual_sq()  # tau and the fit
        self.tau_a = model.GAMMA_PRIOR + self.y.size / 2
        self.tau_b = model.GAMMA_PRIOR + resid_sq / (2 * self.phi)
        self.fit = self._fit(resid_sq)
        for j in range(len(self.u)):  # the prune rule, slice by slice
            energy = self._column_energy(j) / (i1 + i2)
            top = energy.max(initial=0.0)
            keep = (energy >= model.PRUNE_THRESHOLD * top) & (top > 0)
            self.u[j], self.v[j] = self.u[j][:, keep], self.v[j][:, keep]
            self.su[j] = self.su[j][np.ix_(keep, keep)]
            self.sv[j] = self.sv[j][np.ix_(keep, keep)]
            self.lam_b[j] = self.lam_b[j][keep]


def _model_iteration(state):
    """One iteration of :func:`model.run`'s phase loop."""
    update_u(state)
    update_v(state)
    update_lambda(state)
    update_s(state)
    update_beta(state)
    resid_sq = expected_residual_sq(state)
    update_tau(state, resid_sq)
    compute_fit(state, resid_sq)
    prune_columns(state)


def _rel(a, b):
    return float(np.linalg.norm(np.ravel(a - b)) / np.linalg.norm(np.ravel(b)))


@pytest.mark.parametrize("trailing,pattern,data_seed", [
    ((5,), desk_multirank((5,), 3), 5),
    ((4,), uniform_multirank((4,), 3), 1),
    ((3, 4), uniform_multirank((3, 4), 3), 2),
    ((5, 5), desk_multirank((5, 5), 3), 3),
])
def test_phases_match_a_full_spectrum_oracle(trailing, pattern, data_seed):
    # the model updates K kept slices on padded stacks with the slice
    # weights; the oracle updates all J slices one by one, so every
    # dropped slice, weight and prune is checked against the equations
    shape = (12, 10) + trailing
    inst = generate(SynthConfig(shape, 3, pattern, 0.1, 1e-4, seed=data_seed))
    state = init_state(inst.y, Transform.dft(trailing), HyperParams(6, gamma=1.0), seed=11)
    oracle = FullSpectrumOracle(state)
    assert oracle.fit == pytest.approx(state.noise.fit, rel=1e-10, abs=0)
    for it in range(150):
        _model_iteration(state)
        oracle.iterate()
        where = f"iteration {it + 1}"
        assert list(state.multirank) == oracle.multirank, where
        assert _rel(state.x_hat, oracle.x_hat) <= 1e-10, where
        assert _rel(state.sparse.s_mean, oracle.s) <= 1e-10, where
        assert state.noise.tau_mean == pytest.approx(oracle.tau, rel=1e-10, abs=0), where
