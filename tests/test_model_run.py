"""End-to-end inference loop behavior on small instances."""

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
    generate,
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


def test_self_mirrored_slices_stay_exactly_real_every_iteration(monkeypatch):
    # under the DFT of (4, 4) the four slices with trailing indices in
    # {0, 2} are their own mirror, real matrices: the residual, both factor
    # means and their products hold no imaginary roundoff on them
    trailing = (4, 4)
    cfg = SynthConfig((12, 12) + trailing, 3, uniform_multirank(trailing, 3),
                      rho=0.1, sigma_sq=1e-2, seed=3)
    L = Transform.dft(trailing)
    own = L.slice_weights == 1
    assert own.sum() == 4
    seen = []

    def checked_prune(state):
        prune_columns(state)
        f = state.factors
        for stack in (state.resid, f.u.mean, f.v.mean, f.products):
            assert np.all(stack[own].imag == 0)
        seen.append(state.n_slices)

    monkeypatch.setattr(model, "prune_columns", checked_prune)
    result = run(generate(cfg).y, L, small_hp(max_iter=20, tol=1e-12), seed=4)
    assert len(seen) == len(result.trace.records) == 20


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
            vtv = (b.shape[1] * f.sigma_v[k]
                   + f.v_mean[k].conj().T @ f.v_mean[k])
            prec = scale * vtv + np.diag(w * b.noise.lambda_mean(k))
            # Sigma = X^H X with X = chol^-1 by forward substitution, row by row
            chol = np.linalg.cholesky(prec)
            dinv = 1.0 / np.diagonal(chol).real
            x = np.zeros_like(chol)
            x[0, 0] = dinv[0]
            for i in range(1, len(x)):
                x[i, :i] = (chol[i:i + 1, :i] @ x[:i, :i])[0] * -dinv[i]
                x[i, i] = dinv[i]
            cov = x.conj().T @ x
            f.sigma_u[k] = cov
            proj = b.resid[k] @ f.v_mean[k]
            proj *= scale
            f.u_mean[k] = proj @ cov

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
