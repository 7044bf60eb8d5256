"""End-to-end inference loop behavior on small instances."""

import json
import re

import numpy as np
import pytest
from factor_edits import edited_factors

from lmhbrtf import model, transform
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
    corrupt_tensor,
    desk_multirank,
    generate,
    protocol_hyperparams,
    r_err,
    uniform_multirank,
    x_err,
)
from lmhbrtf.transform import Transform


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


def test_report_fields_state_a_run_once():
    cfg, inst = small_instance(rho=0.05, sigma_sq=1e-4)
    result = run(inst.y, Transform.dft((8,)), small_hp(tol=1e-30, max_iter=4), seed=4)
    fields = result.report_fields()
    records = result.trace.records
    assert list(fields) == ["multirank", "iterations", "converged", "message", "noise_var",
                            "trace"]
    assert fields["multirank"] == result.multirank.tolist()
    assert {type(r) for r in fields["multirank"]} == {int}
    assert (fields["iterations"], fields["converged"]) == (4, False)
    assert fields["message"] == result.trace.message
    assert fields["message"].startswith("relative change still ")
    assert fields["noise_var"] == 1.0 / records[-1].tau_mean
    assert fields["trace"] == [r._asdict() for r in records]
    assert json.loads(json.dumps(fields)) == fields  # plain JSON values


@pytest.mark.parametrize("y,hp,message", [
    (np.zeros((6, 6, 4)), small_hp(init_rank=2), "input tensor is identically zero; "
     "returning zeros"),
    (np.ones((6, 6, 4)), small_hp(init_rank=2, max_iter=0), "iteration budget is zero; "
     "returning initialization"),
], ids=["all_zero", "budget_zero"])
def test_report_fields_of_a_run_without_iterations(y, hp, message):
    fields = run(y, Transform.dft((4,)), hp, seed=0).report_fields()
    assert (fields["iterations"], fields["noise_var"], fields["trace"]) == (0, None, [])
    assert fields["message"] == message


def test_multirank_covers_all_slices_and_is_mirror_symmetric():
    # the model stores 5 of the 8 DFT slices; the reported multi-rank and
    # every trace record still give one rank per slice
    cfg, inst = small_instance(rho=0.1, sigma_sq=1e-2, seed=6)
    L = Transform.dft((8,))
    result = run(inst.y, L, small_hp(max_iter=40), seed=1)
    assert result.multirank.shape == (8,)
    assert np.array_equal(result.multirank[L.mirror], result.multirank)
    for rec in result.trace.records:
        assert len(rec.multirank) == 8
        assert np.array_equal(np.asarray(rec.multirank)[L.mirror], rec.multirank)


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


@pytest.mark.parametrize("entry", ["run", "init_state"])
@pytest.mark.parametrize("shape", [(1, 8, 4), (8, 1, 4)])
def test_thin_slices_rejected(entry, shape):
    # a clean rank-1 cell of this shape used to report converged with x_err
    # 0.80 (1 x 8) and 0.54 (8 x 1): every slice is full rank at rank 1
    y = np.random.default_rng(3).standard_normal(shape)
    with pytest.raises(ValueError, match=re.escape(f"observation of shape {shape}")):
        {"run": run, "init_state": init_state}[entry](
            y, Transform.dft((4,)), small_hp(init_rank=1), seed=0)


def test_zero_input_trivial_convergence():
    result = run(np.zeros((5, 5, 3)), Transform.dft((3,)), small_hp(init_rank=2), seed=0)
    assert result.trace.converged
    assert "zero" in result.trace.message
    assert np.array_equal(result.x_hat, np.zeros((5, 5, 3)))
    assert np.array_equal(result.multirank, np.zeros(3, dtype=np.int64))


# An all-zero observation returned converged zeros without these checks,
# which a nonzero observation of the same shape fails.
def test_zero_input_checks_the_transform_trailing_shape():
    with pytest.raises(ValueError, match="does not match transform trailing shape"):
        run(np.zeros((4, 4, 3)), Transform.dft((5,)), small_hp(init_rank=2), seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_zero_input_checks_the_seed(seed):
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        run(np.zeros((4, 4, 3)), Transform.dft((3,)), small_hp(init_rank=2), seed=seed)


def test_zero_input_checks_init_rank_against_the_slice_side():
    with pytest.raises(ValueError, match="init_rank 9 exceeds the smaller slice side 4"):
        run(np.zeros((4, 4, 3)), Transform.dft((3,)), small_hp(init_rank=9), seed=0)


def test_zero_input_checks_the_transform_is_real_safe():
    phase = Transform.explicit([np.diag([1.0, 1j, -1.0])])
    with pytest.raises(ValueError, match="not real-safe"):
        run(np.zeros((4, 4, 3)), phase, small_hp(init_rank=2), seed=0)


@pytest.mark.parametrize("zero", [False, True], ids=["nonzero", "all-zero"])
def test_run_checks_its_observation_once(monkeypatch, zero):
    # run checked a nonzero observation itself and again in init_state
    calls = []
    check = model._check_inputs
    monkeypatch.setattr(model, "_check_inputs", lambda *args: calls.append(1) or check(*args))
    _, inst = small_instance()
    y = np.zeros_like(inst.y) if zero else inst.y
    result = model.run(y, Transform.dft((8,)), small_hp(max_iter=2), seed=0)
    assert len(calls) == 1
    assert ("zero" in result.trace.message) == zero


def test_default_traces_share_no_list():
    a, b = model.RunTrace(), model.RunTrace()
    a.records.append(1)
    assert b.records == [] and not b.converged and b.message == ""


def test_run_deterministic_bitwise():
    cfg, inst = small_instance(rho=0.1, sigma_sq=1e-4, seed=2)
    a = run(inst.y, Transform.dft((8,)), small_hp(), seed=7)
    b = run(inst.y, Transform.dft((8,)), small_hp(), seed=7)
    assert a.x_hat.tobytes() == b.x_hat.tobytes()
    assert a.s_hat.tobytes() == b.s_hat.tobytes()
    assert np.array_equal(a.multirank, b.multirank)
    assert [r._asdict() for r in a.trace.records] == [r._asdict() for r in b.trace.records]


@pytest.mark.parametrize("trailing", [(4, 3), (5, 5), (3, 3, 3)])
def test_explicit_dft_matrices_reproduce_the_builtin_run_bitwise(trailing):
    # the explicit inverse came from np.linalg.inv: x_hat differed by up to 8.5e-14
    L = Transform.dft(trailing)
    cfg = SynthConfig(shape=(12, 10) + trailing, base_rank=2,
                      multirank=uniform_multirank(trailing, 2), rho=0.1,
                      sigma_sq=1e-4, seed=3)
    y = generate(cfg, L).y
    builtin, explicit = (run(y, T, small_hp(init_rank=4, max_iter=40), seed=7)
                         for T in (L, Transform.explicit(L.matrices)))
    assert builtin.x_hat.tobytes() == explicit.x_hat.tobytes()
    assert builtin.s_hat.tobytes() == explicit.s_hat.tobytes()


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


def test_degenerate_stop_is_not_reported_as_converged():
    # scaled by 2^-20 the run collapses: x_hat underflows until its norm
    # reads 0, and the relative change 0/0 is read as 0
    cfg = SynthConfig(shape=(20, 20, 5), base_rank=3, multirank=uniform_multirank((5,), 3),
                      rho=0.1, sigma_sq=1e-4, seed=5)
    y = generate(cfg).y * 2.0 ** -20
    trace = run(y, Transform.dft((5,)), protocol_hyperparams(cfg.shape), seed=11).trace
    assert len(trace.records) == 11  # the run still stops where it did
    assert trace.records[-1].fit < 0
    assert not trace.converged
    assert trace.message.startswith("degenerate stop at iteration 11: the final fit -")
    assert trace.message.endswith("is negative and the reconstruction has norm 0")


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
        prod = state.factors.u.mean[k] @ state.factors.v.mean[k].conj().T
        target = state.resid[k]
        assert np.linalg.norm(prod - target) <= 1e-6 * np.linalg.norm(target)


def test_conjugate_symmetry_preserved_every_iteration():
    # with two trailing modes the i4 = 0 and i4 = 2 planes hold mirror
    # pairs, (1, 0) <-> (2, 0) and (1, 2) <-> (2, 2); the state stores one
    # slice of each pair, so no pair can drift apart and every
    # reconstruction maps back real
    trailing = (3, 4)
    shape = (12, 12) + trailing
    pattern = np.array([3 if i4 % 2 == 0 else 2
                        for i4 in range(4) for i3 in range(3)])
    cfg = SynthConfig(shape=shape, base_rank=3, multirank=pattern,
                      rho=0.1, sigma_sq=1e-2, seed=12)
    inst = generate(cfg)
    L = Transform.dft(trailing)
    state = init_state(inst.y, L, small_hp(), seed=1)
    kept = L.kept_slices
    assert state.n_slices == kept.size == 7
    # the stack holds no slice together with its mirror
    assert np.array_equal(np.intersect1d(kept, L.mirror[kept]), kept[L.mirror[kept] == kept])
    assert np.array_equal(np.union1d(kept, L.mirror[kept]), np.arange(12))
    for _ in range(25):
        manual_iteration(state)
        assert state.x_hat.dtype == np.float64
        assert np.array_equal(state.multirank[L.mirror], state.multirank)


REORDERED_DFT_4 = np.fft.fft(np.eye(4))[[3, 1, 2, 0]]
# the phases run() calls in its loop, in order
RUN_PHASES = ("update_u", "update_v", "update_lambda", "update_s", "update_beta",
              "expected_residual_sq", "update_tau", "compute_fit", "prune_columns")


def _check_state_invariants(state):
    """Everything the updates keep by construction, so run() does not rescan it."""
    noise, sp, f = state.noise, state.sparse, state.factors
    active = f.active
    assert 0 < noise.tau_b < np.inf
    positive = [noise.lambda_b[active], sp.beta_b, sp.s_var]
    for factor in (f.u, f.v):
        positive.append(np.diagonal(factor.cov, axis1=1, axis2=2)[active])
        # the stacks are exactly zero beyond each slice's rank
        assert np.all(factor.mean.transpose(0, 2, 1)[~active] == 0)
        assert np.all(factor.cov[~(active[:, :, None] & active[:, None, :])] == 0)
    for values in positive:
        assert np.all(np.isfinite(values)) and np.all(values.real > 0)
    own = state.transform.slice_weights == 1
    for stack in (state.resid, f.u.mean, f.v.mean, f.products):
        assert np.all(stack[own].imag == 0)


def test_self_mirrored_slices_stay_exactly_real_every_iteration(monkeypatch):
    # run() tests only the expected residual each iteration; every invariant
    # the updates keep by construction is checked here after every phase:
    # positive, finite Gamma rates and variances, zero padding, and self-mirrored
    # slices (under the DFT, trailing indices in {0, I_k / 2}; every slice under
    # a real matrix) whose residual, factor means and products are exactly real
    orthogonal = np.linalg.qr(np.random.default_rng(7).standard_normal((4, 4)))[0]
    cases = [((4,), Transform.dft((4,))), ((4, 4), Transform.dft((4, 4))),
             ((4, 3, 2), Transform.dft((4, 3, 2))),
             ((4,), Transform.explicit([REORDERED_DFT_4])),
             ((4,), Transform.explicit([2.0 * orthogonal]))]
    checked = []

    def checking(name, original):
        def phase(state, *args, **kwargs):
            out = original(state, *args, **kwargs)
            _check_state_invariants(state)
            checked.append(name)
            return out
        return phase

    for name in RUN_PHASES:
        monkeypatch.setattr(model, name, checking(name, getattr(model, name)))
    for trailing, L in cases:
        assert (L.slice_weights == 1).any()
        # ranks 1 to 3, equal on each conjugation orbit
        pattern = 1 + np.minimum(np.arange(L.mirror.size), L.mirror) % 3
        cfg = SynthConfig((12, 12) + trailing, 3, pattern, rho=0.1, sigma_sq=1e-4, seed=3)
        y = generate(cfg, L).y
        checked.clear()
        result = run(y, L, small_hp(init_rank=6, max_iter=60, tol=1e-12), seed=4)
        assert len(result.trace.records) == 60
        # init_state forms its fit through the module too
        assert checked == ["expected_residual_sq", "compute_fit"] + list(RUN_PHASES) * 60
        # pruned to unequal ranks, so the stacks carry padding
        assert len(set(result.multirank)) > 1


@pytest.mark.parametrize("shape", [(20, 20, 3, 4), (20, 20, 5, 5), (20, 20, 3, 3, 3)])
def test_default_settings_converge_where_mirror_slices_drifted_apart(shape):
    # when both slices of a mirror pair were stored and updated apart, these
    # runs raised ImaginaryResidueError at iterations 106, 94 and 83; the
    # input is rank 3 scaled to [0, 1], with outliers in [0, 1]
    assert transform.RESIDUE_TOL == 1e-8
    cfg = SynthConfig(shape, 3, uniform_multirank(shape[2:], 3), 0.0, 0.0, 0)
    x = generate(cfg).x_gt
    x = (x - x.min()) / (x.max() - x.min())
    y = corrupt_tensor(x, 0.2, 0, 1, 1e-4, seed=1)
    hp = HyperParams(init_rank=10, sigma0_sq=1.0, tol=1e-6, max_iter=400)
    result = run(y, Transform.dft(shape[2:]), hp, seed=902)
    assert result.trace.converged
    assert result.x_hat.dtype == np.float64
    assert x_err(result.x_hat, x) < 0.02


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
    scale = tau / b.transform.phi
    w = max(b.noise.fit, 0.0) / b.hp.gamma
    with edited_factors(b) as f:
        for k in reversed(range(b.n_slices)):
            vtv = (b.shape[1] * f.v.cov[k]
                   + f.v.mean[k].conj().T @ f.v.mean[k])
            prec = scale * vtv + np.diag(w * b.noise.lambda_mean[k])
            # Sigma = X^H X with X = chol^-1 by forward substitution, row by row
            chol = np.linalg.cholesky(prec)
            dinv = 1.0 / np.diagonal(chol).real
            x = np.zeros_like(chol)
            x[0, 0] = dinv[0]
            for i in range(1, len(x)):
                x[i, :i] = (chol[i:i + 1, :i] @ x[:i, :i])[0] * -dinv[i]
                x[i, i] = dinv[i]
            cov = x.conj().T @ x
            f.u.cov[k] = cov
            proj = b.resid[k] @ f.v.mean[k]
            proj *= scale
            f.u.mean[k] = proj @ cov

    for k in range(a.n_slices):
        assert a.factors.u.mean[k].tobytes() == b.factors.u.mean[k].tobytes()
        assert a.factors.u.cov[k].tobytes() == b.factors.u.cov[k].tobytes()


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
                assert np.diagonal(state.factors.u.cov[k])[:r].real.min() > 0
                assert np.diagonal(state.factors.v.cov[k])[:r].real.min() > 0


# The phases an external tracer hooks by replacing these module attributes
# (bench/tracing.py): run() must look each up at call time, once per
# iteration, with the state as the first positional argument.  The tracer
# also times the slice-stack layout through model.to_slice_stack.  Only the
# scalar expected residual is handed from phase to phase: every other
# statistic lives on the factor objects.
ITERATION_PHASES = ("update_u", "update_v", "update_lambda", "update_s",
                    "reconstruct_x", "update_beta", "expected_residual_sq",
                    "update_tau", "compute_fit", "prune_columns")


def test_run_calls_each_phase_through_the_module_once_per_iteration(monkeypatch):
    calls = []  # (name, type of the first positional argument, enclosing calls)
    more_than_state = set()  # phases given an argument besides the state
    active = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls.append((name, type(args[0]) if args else None, tuple(active)))
            if len(args) + len(kwargs) > 1:
                more_than_state.add(name)
            active.append(name)
            try:
                return original(*args, **kwargs)
            finally:
                active.pop()
        return wrapper

    for name in ("init_state", "to_slice_stack") + ITERATION_PHASES:
        monkeypatch.setattr(model, name, counting(name, getattr(model, name)))
    _, inst = small_instance(rho=0.05, sigma_sq=1e-3, seed=13)
    result = model.run(inst.y, Transform.dft((8,)), small_hp(max_iter=5), seed=2)
    n = len(result.trace.records)
    assert n == 5

    # the layout hook fires in set-up (iteration 0) and in every iteration
    it, layout_iterations = 0, set()
    for name, _, outer in calls:
        if name == "update_u" and not outer:
            it += 1
        elif name == "to_slice_stack":
            layout_iterations.add(it)
    assert layout_iterations == set(range(n + 1))

    calls = [call for call in calls if call[0] != "to_slice_stack"]
    assert all(first is model.ModelState
               for name, first, _ in calls if name != "init_state")
    assert more_than_state == {"init_state", "update_tau", "compute_fit"}
    top = [name for name, _, outer in calls if not outer]
    nested = [(name, outer) for name, _, outer in calls
              if outer and outer[0] != "init_state"]
    # set-up and the initial reconstruction precede the loop; every later
    # reconstruction is update_s's
    assert top[:2] == ["init_state", "reconstruct_x"]
    assert nested == [("reconstruct_x", ("update_s",))] * n
    per_iteration = sorted(p for p in ITERATION_PHASES if p != "reconstruct_x")
    starts = [i for i, name in enumerate(top) if name == "update_u"]
    assert starts[0] == 2 and len(starts) == n
    for a, b in zip(starts, starts[1:] + [len(top)]):
        assert sorted(top[a:b]) == per_iteration


def test_run_forms_each_statistic_once_per_factor_object(monkeypatch):
    # per iteration: X^H X for each posterior covariance, U^H R in update_v,
    # one mean Gram per factor and the V^H of the slice products; a phase
    # that recomputed a Gram would add a call
    counts = []  # hermitian_t calls in set-up, then in each iteration

    def counting(original):
        def wrapper(*args, **kwargs):
            counts[-1] += 1
            return original(*args, **kwargs)
        return wrapper

    def opening_an_iteration(original):
        def wrapper(*args, **kwargs):
            counts.append(0)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(model, "hermitian_t", counting(model.hermitian_t))
    monkeypatch.setattr(model, "update_u", opening_an_iteration(model.update_u))
    counts.append(0)
    y = np.random.default_rng(4).standard_normal((10, 9, 4))
    result = model.run(y, Transform.dft((4,)),
                       small_hp(init_rank=2, tol=1e-30, max_iter=12), seed=0)
    assert len(result.trace.records) == 12
    assert all(r.multirank == [2] * 4 for r in result.trace.records)  # no pruning
    assert counts[1:] == [6] * 12


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the initial covariances, "
                   "precisions and sparse draw do not scale with the data")
def test_run_is_equivariant_under_power_of_two_scaling():
    # scaling y by 2^e scales every quantity the updates form by a power of
    # two, so a scale-free model returns 2^e x_hat and 2^e s_hat bit for bit
    cfg = SynthConfig((20, 20, 5), 3, uniform_multirank((5,), 3), 0.1, 1e-4, 5)
    y = generate(cfg).y
    L = Transform.dft((5,))
    protocol = protocol_hyperparams(cfg.shape)
    hp = HyperParams(protocol.init_rank, sigma0_sq=protocol.sigma0_sq,
                     gamma=protocol.gamma, tol=protocol.tol, max_iter=20)
    base = run(y, L, hp, seed=11)
    off = {}
    for e in (-20, -3, 4, 20):
        c = 2.0 ** e
        got = run(c * y, L, hp, seed=11)
        if not (np.array_equal(got.x_hat, c * base.x_hat)
                and np.array_equal(got.s_hat, c * base.s_hat)
                and np.array_equal(got.multirank, base.multirank)
                and len(got.trace.records) == len(base.trace.records)):
            off[e] = x_err(got.x_hat / c, base.x_hat)
    assert not off, f"relative x_hat error by exponent: {off}"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: the sparse part absorbs the "
                   "dense noise, and x_hat drifts after the multi-rank settles")
def test_iterations_after_the_multirank_settles_do_not_degrade_x_hat():
    # today: stop at iteration 450 with x_err 1.950e-3; the multi-rank is
    # final from iteration 52, where x_err is 1.480e-3 (ratio 1.318)
    cfg = SynthConfig((20, 20, 5), 5, desk_multirank((5,), 5), rho=0.1,
                      sigma_sq=1e-4, seed=5)
    inst = generate(cfg)
    L = Transform.dft((5,))
    hp = protocol_hyperparams(cfg.shape)
    result = run(inst.y, L, hp, seed=11)
    records = result.trace.records
    settled = len(records)  # the first iteration from which the multi-rank is final
    while settled > 1 and records[settled - 2].multirank == records[-1].multirank:
        settled -= 1
    # the run is deterministic, so a shorter budget replays its prefix
    prefix = run(inst.y, L, HyperParams(hp.init_rank, hp.sigma0_sq, hp.gamma, hp.tol,
                                        max_iter=settled), seed=11)
    at_stop, at_settle = x_err(result.x_hat, inst.x_gt), x_err(prefix.x_hat, inst.x_gt)
    assert at_stop <= 1.05 * at_settle, (settled, len(records), at_stop, at_settle)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: a rank-0 slice keeps dead "
                   "columns that the prune rule does not drop")
def test_planted_rank_zero_slices_are_detected():
    # today: [3, 15, 2, 2, 15] after 406 iterations
    pattern = [3, 0, 2, 2, 0]
    cfg = SynthConfig((30, 30, 5), 3, pattern, rho=0.1, sigma_sq=1e-4, seed=5)
    result = run(generate(cfg).y, Transform.dft((5,)), protocol_hyperparams(cfg.shape),
                 seed=11)
    assert result.multirank.tolist() == pattern


@pytest.mark.xfail(strict=True, reason="ROADMAP items 6 and 10: a clean cell keeps "
                   "its initial rank and reports a false convergence")
def test_a_clean_cell_is_recovered():
    # today: converged after 771 iterations with x_err 0.169 and the initial
    # multi-rank [4, 4, 4, 4]; data seeds 2 and 3 reach x_err ~4e-6, but at
    # the initial rank too (planted 2)
    cfg = SynthConfig((8, 8, 4), 2, uniform_multirank((4,), 2), 0, 0, seed=1)
    inst = generate(cfg)
    result = run(inst.y, Transform.dft((4,)), protocol_hyperparams(cfg.shape), seed=11)
    assert x_err(result.x_hat, inst.x_gt) <= 1e-3


@pytest.mark.parametrize("seed", [
    pytest.param(2, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP items 6 and 10: a corrupted cell keeps its initial "
        "rank and reports a false convergence")),
    3,
])
def test_a_converged_corrupted_cell_is_recovered(seed):
    # today: data seed 2 converges after 693 iterations at the initial
    # multi-rank [6, 6, 6, 6] (planted 3) with x_err 0.092; data seed 3
    # converges after 262 iterations at [3, 3, 3, 3] with x_err 2.8e-3
    cfg = SynthConfig((12, 10, 4), 3, uniform_multirank((4,), 3), 0.1, 1e-4, seed=seed)
    inst = generate(cfg)
    hp = HyperParams(6, gamma=1.0, tol=1e-6, max_iter=2500)
    result = run(inst.y, Transform.dft((4,)), hp, seed=11)
    if result.trace.converged:  # a verdict of not converged may stand instead
        assert r_err(result.multirank, inst.multirank_gt) == 0
        assert x_err(result.x_hat, inst.x_gt) <= 1e-2


@pytest.mark.xfail(strict=True, reason="ROADMAP item 12: dead factor columns decay "
                   "geometrically into subnormals")
def test_factor_means_hold_no_subnormal(monkeypatch):
    # today: the first subnormal entry appears at iteration 261
    tiny = np.finfo(float).tiny
    iterations, subnormal_at = [], []
    original = model.prune_columns

    def watching(state):  # the last phase of every iteration
        out = original(state)
        iterations.append(len(iterations) + 1)
        means = np.concatenate([state.factors.u.mean.ravel(), state.factors.v.mean.ravel()])
        parts = np.concatenate([means.real, means.imag])
        if ((parts != 0) & (np.abs(parts) < tiny)).any():
            subnormal_at.append(iterations[-1])
        return out

    monkeypatch.setattr(model, "prune_columns", watching)
    cfg = SynthConfig((20, 20, 3, 4), 2, uniform_multirank((3, 4), 2), 0.0, 0.0, seed=900)
    x = generate(cfg).x_gt
    x = (x - x.min()) / (x.max() - x.min())
    y = corrupt_tensor(x, 0.2, 0.0, 1.0, 1e-4, seed=901)
    hp = HyperParams(10, sigma0_sq=1e-7, gamma=1.0, tol=1e-12, max_iter=300)
    run(y, Transform.dft((3, 4)), hp, seed=902)
    assert len(iterations) == 300
    assert not subnormal_at, f"first subnormal factor-mean entry at iteration {subnormal_at[0]}"
