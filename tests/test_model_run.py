"""End-to-end inference loop behavior on small instances."""

import re

import numpy as np
import pytest

from lmhbrtf.model import (
    HyperParams,
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
from lmhbrtf.synth import (
    SynthConfig,
    generate,
    pattern_is_mirror_symmetric,
    r_err,
    x_err,
)
from lmhbrtf.tensor import linear_to_slice, slice_to_linear
from lmhbrtf.transform import Transform, mirror_slice


SMALL_PATTERN = np.array([3, 2, 2, 3, 3, 3, 2, 2])  # mirror-symmetric on 8 slices


def small_instance(rho=0.0, sigma_sq=0.0, seed=5):
    cfg = SynthConfig(shape=(20, 20, 8), base_rank=3, multirank=SMALL_PATTERN,
                      rho=rho, sigma_sq=sigma_sq, seed=seed)
    return cfg, generate(cfg)


def small_hp(**overrides):
    base = dict(init_rank=10, sigma0_sq=1.0, gamma=1.0, tol=1e-6, max_iter=300)
    base.update(overrides)
    return HyperParams(**base)


def test_clean_recovery():
    cfg, inst = small_instance()
    result = run(inst.y, Transform.dft((8,)), small_hp(tol=1e-7), seed=1)
    assert r_err(result.multirank, inst.multirank_gt) == 0.0
    assert x_err(result.x_hat, inst.x_gt) <= 1e-6
    assert result.trace.converged


def test_corrupted_recovery_small():
    cfg, inst = small_instance(rho=0.05, sigma_sq=1e-4, seed=9)
    result = run(inst.y, Transform.dft((8,)), small_hp(), seed=1)
    assert r_err(result.multirank, inst.multirank_gt) == 0.0
    assert x_err(result.x_hat, inst.x_gt) <= 5e-3


def test_max_iter_zero_returns_initialization():
    cfg, inst = small_instance(rho=0.05, sigma_sq=1e-4)
    hp = small_hp(max_iter=0)
    L = Transform.dft((8,))
    result = run(inst.y, L, hp, seed=4)
    state = init_state(inst.y, L, hp, seed=4)
    assert result.x_hat.tobytes() == reconstruct_x(state).tobytes()
    assert result.s_hat.tobytes() == state.sparse.s_mean.tobytes()
    assert result.trace.records == []
    assert not result.trace.converged


def test_multirank_covers_all_slices_and_is_mirror_symmetric():
    # the model stores 5 of the 8 DFT slices; the reported multi-rank and
    # every trace record still give one rank per slice
    cfg, inst = small_instance(rho=0.1, sigma_sq=1e-2, seed=6)
    result = run(inst.y, Transform.dft((8,)), small_hp(max_iter=40), seed=1)
    assert result.multirank.shape == (8,)
    assert pattern_is_mirror_symmetric(result.multirank, (8,))
    for rec in result.trace.records:
        assert len(rec.multirank) == 8
        assert pattern_is_mirror_symmetric(rec.multirank, (8,))


def _enter(entry, y):
    return {"run": run, "init_state": init_state}[entry](
        y, Transform.dft((8,)), small_hp(), seed=0)


@pytest.mark.parametrize("entry", ["run", "init_state"])
def test_non_finite_input_rejected_with_first_index(entry):
    cfg, inst = small_instance()
    y = inst.y.copy()
    y[3, 4, 5] = np.nan
    y[0, 0, 6] = np.inf   # earlier in row-major order, later in column-major
    with pytest.raises(ValueError, match=r"non-finite entry nan at index \(3, 4, 5\)"):
        _enter(entry, y)


@pytest.mark.parametrize("entry", ["run", "init_state"])
@pytest.mark.parametrize("scale,word", [(1e-200, "underflows"), (1e200, "overflows")])
def test_out_of_range_scale_rejected(entry, scale, word):
    # y * 1e-200 is not zero: it must not come back as the zero solution
    cfg, inst = small_instance()
    y = inst.y * scale
    peak = np.abs(y).max()
    with pytest.raises(ValueError, match=re.escape(f"max|y| = {peak:.3e}") + f".*{word}"):
        _enter(entry, y)


def test_zero_input_trivial_convergence():
    result = run(np.zeros((5, 5, 3)), Transform.dft((3,)), small_hp(init_rank=2), seed=0)
    assert result.trace.converged
    assert "zero" in result.trace.message
    assert np.array_equal(result.x_hat, np.zeros((5, 5, 3)))
    assert np.array_equal(result.multirank, np.zeros(3, dtype=np.int64))


def test_run_deterministic_bitwise():
    cfg, inst = small_instance(rho=0.1, sigma_sq=1e-4, seed=2)
    a = run(inst.y, Transform.dft((8,)), small_hp(), seed=7)
    b = run(inst.y, Transform.dft((8,)), small_hp(), seed=7)
    assert a.x_hat.tobytes() == b.x_hat.tobytes()
    assert a.s_hat.tobytes() == b.s_hat.tobytes()
    assert np.array_equal(a.multirank, b.multirank)
    assert [r._asdict() for r in a.trace.records] == [r._asdict() for r in b.trace.records]


def test_ranks_nonincreasing_and_positive_trace_fields():
    cfg, inst = small_instance(rho=0.1, sigma_sq=1e-2, seed=6)
    result = run(inst.y, Transform.dft((8,)), small_hp(max_iter=80), seed=1)
    prev = None
    for rec in result.trace.records:
        ranks = np.array(rec.multirank)
        if prev is not None:
            assert (ranks <= prev).all()
        prev = ranks
        assert rec.tau_mean > 0
        assert rec.fit <= 1.0


def test_nonconvergence_reported_not_raised():
    cfg, inst = small_instance(rho=0.1, sigma_sq=1e-2, seed=8)
    result = run(inst.y, Transform.dft((8,)), small_hp(max_iter=3), seed=1)
    assert not result.trace.converged
    assert "after 3 iterations" in result.trace.message
    assert len(result.trace.records) == 3


def test_fit_increases_to_one_on_clean_data():
    cfg, inst = small_instance()
    result = run(inst.y, Transform.dft((8,)), small_hp(tol=1e-7, max_iter=60), seed=1)
    fits = [rec.fit for rec in result.trace.records]
    assert fits[-1] == pytest.approx(1.0, abs=1e-3)
    # strictly increasing until saturation
    saturated = next((i for i, f in enumerate(fits) if f > 1 - 1e-9), len(fits))
    head = fits[: saturated + 1]
    assert all(b > a for a, b in zip(head, head[1:]))


def manual_iteration(state):
    update_u(state)
    update_v(state)
    update_lambda(state)
    update_s(state)
    update_beta(state)
    resid = expected_residual_sq(state)
    update_tau(state, resid_sq=resid)
    compute_fit(state, resid_sq=resid)
    prune_columns(state)


def test_factor_product_reproduces_residual_on_clean_data():
    # after convergence on uncorrupted data the slice products match
    # the observation minus the sparse mean in the transform domain
    cfg, inst = small_instance()
    L = Transform.dft((8,))
    state = init_state(inst.y, L, small_hp(), seed=1)
    for _ in range(60):
        manual_iteration(state)
    for k in range(state.n_slices):
        prod = state.factors.u_mean[k] @ state.factors.v_mean[k].conj().T
        target = state.ybar[:, :, k] - state.sbar[:, :, k]
        assert np.linalg.norm(prod - target) <= 1e-6 * np.linalg.norm(target)


def test_conjugate_symmetry_preserved_every_iteration():
    # with two trailing modes the kept stack still holds mirror pairs, in
    # the i4 = 0 and i4 = 2 planes: (1, 0) <-> (2, 0) and (1, 2) <-> (2, 2);
    # they are updated independently and must stay conjugate (self-paired
    # slices real)
    trailing = (3, 4)
    shape = (12, 12) + trailing
    pattern = np.array([3 if i4 % 2 == 0 else 2
                        for i4 in range(4) for i3 in range(3)])
    cfg = SynthConfig(shape=shape, base_rank=3, multirank=pattern,
                      rho=0.1, sigma_sq=1e-2, seed=12)
    inst = generate(cfg)
    state = init_state(inst.y, Transform.dft(trailing), small_hp(), seed=1)
    pairs = []
    for k in range(state.n_slices):
        idx = linear_to_slice(k, shape)
        km = slice_to_linear(mirror_slice(idx, trailing), shape)
        if km < state.n_slices:
            pairs.append((k, km))
    assert sum(k != km for k, km in pairs) == 4
    for _ in range(25):
        manual_iteration(state)
        for k, km in pairs:
            a = state.factors.u_mean[k] @ state.factors.v_mean[k].conj().T
            b = state.factors.u_mean[km] @ state.factors.v_mean[km].conj().T
            norm = max(np.linalg.norm(a), 1e-300)
            assert np.linalg.norm(a - b.conj()) <= 1e-8 * norm


def test_slice_updates_commute_with_shared_scalars_fixed():
    # with S and tau held fixed, per-slice updates are independent, so
    # performing them in any order yields the same state
    cfg, inst = small_instance(rho=0.05, sigma_sq=1e-3, seed=13)
    L = Transform.dft((8,))
    a = init_state(inst.y, L, small_hp(), seed=2)
    b = init_state(inst.y, L, small_hp(), seed=2)

    update_u(a)

    # manual slice-by-slice recomputation in reverse order on b
    tau = b.noise.tau_mean
    scale = tau / b.phi
    w = max(b.noise.fit, 0.0) / b.gamma
    for k in reversed(range(b.n_slices)):
        vtv = (b.shape[1] * b.factors.sigma_v[k]
               + b.factors.v_mean[k].conj().T @ b.factors.v_mean[k])
        prec = scale * vtv + np.diag(w * b.noise.lambda_mean(k))
        cov = np.linalg.inv(prec)
        cov = 0.5 * (cov + cov.conj().T)
        b.factors.sigma_u[k] = cov
        b.factors.u_mean[k] = scale * b.resid[k] @ b.factors.v_mean[k] @ cov

    for k in range(a.n_slices):
        assert a.factors.u_mean[k].tobytes() == b.factors.u_mean[k].tobytes()
        assert a.factors.sigma_u[k].tobytes() == b.factors.sigma_u[k].tobytes()


def test_positivity_invariant_holds_through_noisy_run():
    cfg, inst = small_instance(rho=0.2, sigma_sq=1e-1, seed=14)
    L = Transform.dft((8,))
    state = init_state(inst.y, L, small_hp(), seed=3)
    for _ in range(40):
        manual_iteration(state)
        assert state.noise.tau_b > 0
        assert (state.sparse.beta_b > 0).all()
        assert (state.sparse.s_var > 0).all()
        # the stacks are zero-padded beyond each slice's rank
        for k, r in enumerate(state.factors.ranks):
            assert (state.noise.lambda_b[k, :r] > 0).all()
            if r:
                assert np.diagonal(state.factors.sigma_u[k])[:r].real.min() > 0
                assert np.diagonal(state.factors.sigma_v[k])[:r].real.min() > 0
