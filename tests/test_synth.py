"""Generator reproducibility, planted structure and scoring functions."""

import copy
import math
import pickle
import re

import numpy as np
import pytest

from lmhbrtf import synth
from lmhbrtf.errors import SettingError
from lmhbrtf.model import HyperParams
from lmhbrtf.report import strip_timing
from lmhbrtf.synth import (
    _FACTOR_STREAM,
    SynthConfig,
    check_corruption,
    corrupt_tensor,
    desk_multirank,
    generate,
    r_err,
    run_benchmark,
    uniform_multirank,
    x_err,
)
from lmhbrtf.transform import Transform
from lmhbrtf.tsvd import conj_transpose, multi_rank, t_product, truncate_multi_rank


def small_cfg(rho=0.05, sigma_sq=1e-4, seed=3):
    pattern = np.array([2, 1, 1, 2, 2, 2, 1, 1])
    return SynthConfig(shape=(12, 12, 8), base_rank=2, multirank=pattern,
                       rho=rho, sigma_sq=sigma_sq, seed=seed)


def test_clean_config_gives_exact_equality():
    inst = generate(small_cfg(rho=0.0, sigma_sq=0.0))
    assert np.array_equal(inst.y, inst.x_gt)
    assert not inst.s_gt.any()
    assert not inst.e_gt.any()


def test_additive_identity_exact():
    inst = generate(small_cfg(rho=0.1, sigma_sq=1e-2))
    assert np.array_equal(inst.y, inst.x_gt + inst.s_gt + inst.e_gt)


def test_sparse_count_exact():
    cfg = SynthConfig(shape=(50, 50, 5, 5), base_rank=5,
                      multirank=desk_multirank((5, 5), 5),
                      rho=0.05, sigma_sq=0.0, seed=1)
    inst = generate(cfg)
    assert np.count_nonzero(inst.s_gt) == math.floor(0.05 * 50 * 50 * 25) == 3125
    assert np.abs(inst.s_gt[inst.s_gt != 0]).max() <= 10.0


def test_generated_multirank_matches_pattern():
    cfg = small_cfg()
    inst = generate(cfg)
    L = Transform.dft(cfg.shape[2:])
    assert np.array_equal(multi_rank(inst.x_gt, L), cfg.multirank)
    assert np.array_equal(inst.multirank_gt, cfg.multirank)


def test_generate_bitwise_reproducible():
    a = generate(small_cfg(seed=9))
    b = generate(small_cfg(seed=9))
    assert a.y.tobytes() == b.y.tobytes()
    assert a.x_gt.tobytes() == b.x_gt.tobytes()
    assert a.s_gt.tobytes() == b.s_gt.tobytes()
    assert a.e_gt.tobytes() == b.e_gt.tobytes()
    c = generate(small_cfg(seed=10))
    assert c.y.tobytes() != a.y.tobytes()


def test_generate_rejects_asymmetric_pattern():
    pattern = np.array([2, 2, 1, 1, 1, 1, 1, 1])  # slice 1 vs mirror slice 7
    cfg = SynthConfig(shape=(12, 12, 8), base_rank=2, multirank=pattern,
                      rho=0.0, sigma_sq=0.0, seed=0)
    with pytest.raises(ValueError, match="mirror"):
        generate(cfg)


def test_generate_follows_the_mirror_of_an_explicit_transform():
    # a real orthogonal transform pairs no slices: any pattern is real
    pattern = [2, 1, 2, 2]
    cfg = SynthConfig(shape=(8, 7, 4), base_rank=2, multirank=pattern,
                      rho=0.0, sigma_sq=0.0, seed=3)
    q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((4, 4)))
    L = Transform.explicit([q])
    inst = generate(cfg, L)
    assert np.isrealobj(inst.x_gt)
    assert np.array_equal(multi_rank(inst.x_gt, L), pattern)
    # DFT matrices pair slices 1 and 3, so the same pattern is rejected
    with pytest.raises(ValueError, match="mirror"):
        generate(cfg, Transform.explicit([np.fft.fft(np.eye(4))]))


@pytest.mark.parametrize("trailing", [(5,), (3,)])
def test_generate_rejects_transform_of_another_trailing_shape(trailing):
    cfg = SynthConfig(shape=(8, 7, 4), base_rank=2, multirank=[2, 1, 2, 1],
                      rho=0.0, sigma_sq=0.0, seed=1)
    with pytest.raises(ValueError, match="does not match"):
        generate(cfg, Transform.dft(trailing))


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(shape=(12, 12), base_rank=2, multirank=[2], rho=0.0,
                    sigma_sq=0.0, seed=0)
    with pytest.raises(ValueError):
        SynthConfig(shape=(12, 12, 4), base_rank=2, multirank=[2, 2, 2],
                    rho=0.0, sigma_sq=0.0, seed=0)
    with pytest.raises(ValueError):
        SynthConfig(shape=(12, 12, 4), base_rank=2, multirank=[3, 2, 2, 2],
                    rho=0.0, sigma_sq=0.0, seed=0)
    with pytest.raises(ValueError):
        SynthConfig(shape=(12, 12, 4), base_rank=2, multirank=[2, 2, 2, 2],
                    rho=1.5, sigma_sq=0.0, seed=0)


def test_config_repr_lists_the_settings():
    text = repr(small_cfg())
    assert text.startswith("SynthConfig(shape=(12, 12, 8), base_rank=2, multirank=array(")
    assert text.endswith("rho=0.05, sigma_sq=0.0001, seed=3)")


@pytest.mark.parametrize("base_rank", [0, -1])
def test_config_rejects_base_rank_below_one(base_rank):
    # a rank-0 factor used to pass the entry checks and fail inside generate
    with pytest.raises(ValueError, match="base_rank"):
        SynthConfig(shape=(8, 8, 4), base_rank=base_rank, multirank=[0, 0, 0, 0],
                    rho=0.0, sigma_sq=0.0, seed=0)


@pytest.mark.parametrize("pattern", [[1.5] * 4, [True] * 4, [1.0] * 4])
def test_config_rejects_a_pattern_that_is_not_of_an_integer_dtype(pattern):
    # [1.5] * 4 was stored as [1, 1, 1, 1]
    with pytest.raises(ValueError, match=r"multirank must hold 4 integers in \[0, 2\]"):
        SynthConfig(shape=(8, 8, 4), base_rank=2, multirank=pattern,
                    rho=0.0, sigma_sq=0.0, seed=0)


def test_config_rejects_pattern_with_no_positive_rank():
    # the planted tensor would be zero, so x_err after the solve is undefined
    with pytest.raises(ValueError, match="no positive rank"):
        SynthConfig(shape=(8, 8, 4), base_rank=2, multirank=[0, 0, 0, 0],
                    rho=0.0, sigma_sq=0.0, seed=0)


@pytest.mark.parametrize("name,value", [("base_rank", 2.5), ("base_rank", "2"),
                                        ("seed", -1), ("seed", 1.5)])
def test_config_rejects_settings_that_are_not_integers(name, value):
    # these used to pass the entry checks and fail inside numpy in generate
    settings = dict(shape=(8, 8, 4), base_rank=2, multirank=[2, 1, 2, 1],
                    rho=0.0, sigma_sq=0.0, seed=0)
    settings[name] = value
    with pytest.raises(ValueError, match=name):
        SynthConfig(**settings)
    settings[name] = np.int64(2)
    assert SynthConfig(**settings).as_dict()[name] == 2


@pytest.mark.parametrize("name", ["base_rank", "seed"])
def test_config_rejects_a_bool_as_an_integer(name):
    # True compares as 1 and was stored as True
    settings = dict(shape=(8, 8, 4), base_rank=1, multirank=[1, 1, 1, 1],
                    rho=0.0, sigma_sq=0.0, seed=1)
    settings[name] = True
    with pytest.raises(ValueError, match=f"{name} must be"):
        SynthConfig(**settings)


def _dense_truncation(cfg, L):
    """The planted low-rank part by the dense route: the t-product of the
    same factor draws, truncated by an SVD of every I1 x I2 slice."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _FACTOR_STREAM]))
    trailing = cfg.shape[2:]
    u = rng.standard_normal((cfg.shape[0], cfg.base_rank) + trailing)
    v = rng.standard_normal((cfg.shape[1], cfg.base_rank) + trailing)
    return truncate_multi_rank(t_product(u, conj_transpose(v, L), L), L, cfg.multirank)


def _matrix(kind, n):
    r = np.random.default_rng(5)
    a = r.standard_normal((n, n))
    if kind == "unitary":
        a = a + 1j * r.standard_normal((n, n))
    return np.linalg.qr(a)[0]


@pytest.mark.parametrize("shape, pattern, transform", [
    ((9, 8, 7), desk_multirank((7,), 4), None),
    ((9, 8, 6), [4, 2, 0, 1, 0, 2], None),
    ((9, 8, 5, 5), desk_multirank((5, 5), 4), None),
    ((9, 8, 3, 3, 3), desk_multirank((3, 3, 3), 4), None),
    ((9, 8, 4), [4, 1, 0, 2], "orthogonal"),
    ((9, 8, 4), [4, 1, 0, 2], "unitary"),
], ids=["dft-7", "dft-6-zero-slices", "dft-5x5", "dft-3x3x3",
        "real-orthogonal", "complex-unitary"])
def test_generate_matches_the_dense_truncation(shape, pattern, transform):
    cfg = SynthConfig(shape=shape, base_rank=4, multirank=pattern,
                      rho=0.0, sigma_sq=0.0, seed=13)
    trailing = shape[2:]
    L = (Transform.dft(trailing) if transform is None
         else Transform.explicit([_matrix(transform, trailing[0])]))
    x_gt = generate(cfg, L).x_gt
    dense = _dense_truncation(cfg, L)
    assert x_gt.shape == dense.shape and x_gt.dtype == dense.dtype
    # the unitary transform is not real-safe: its planted tensor is complex
    assert np.iscomplexobj(x_gt) == (transform == "unitary")
    assert np.linalg.norm(x_gt - dense) <= 1e-12 * np.linalg.norm(dense)
    assert np.array_equal(multi_rank(x_gt, L), pattern)


def test_generate_decomposes_no_dense_slice(monkeypatch):
    # the truncation works on the base_rank x base_rank cores, never on
    # the I1 x I2 transform slices
    seen = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.append(np.shape(a)[-2:])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    cfg = SynthConfig(shape=(20, 18, 5, 5), base_rank=3,
                      multirank=desk_multirank((5, 5), 3),
                      rho=0.0, sigma_sq=0.0, seed=4)
    generate(cfg)
    assert seen
    assert all(m <= 3 and n <= 3 for m, n in seen), seen


def test_desk_patterns_are_symmetric_and_sized():
    for trailing in [(50,), (10,), (5, 5), (3, 3, 3)]:
        pattern = desk_multirank(trailing, 5)
        assert pattern.size == int(np.prod(trailing))
        assert np.array_equal(pattern[Transform.dft(trailing).mirror], pattern)
        assert set(pattern) == {5, 2}
    with pytest.raises(ValueError):
        desk_multirank((4, 4), 5)


def test_desk_pattern_block_fractions_order3():
    pattern = desk_multirank((50,), 5)
    assert pattern[0] == 5
    assert (pattern == 2).sum() == 20  # two 20% edge blocks


def test_full_scale_order3_header_pattern():
    # at 100 slices and base rank 10 the order-3 pattern is the block
    # layout {R, 0.5R x20, R x59, 0.5R x20}; a full-scale instance
    # carries exactly that multi-rank
    pattern = desk_multirank((100,), 10)
    expected = np.array([10] + [5] * 20 + [10] * 59 + [5] * 20)
    assert np.array_equal(pattern, expected)
    cfg = SynthConfig(shape=(100, 100, 100), base_rank=10, multirank=pattern,
                      rho=0.0, sigma_sq=0.0, seed=2)
    inst = generate(cfg)
    L = Transform.dft((100,))
    assert np.array_equal(multi_rank(inst.x_gt, L), pattern)


def test_uniform_multirank():
    assert np.array_equal(uniform_multirank((3, 2), 4), [4] * 6)


def test_r_err_cases():
    assert r_err([5, 5], [5, 5]) == 0.0
    assert r_err([5, 5], [5, 3]) == 1.0
    with pytest.raises(ValueError):
        r_err([5], [5, 3])
    assert r_err(np.array([2, 0], dtype=np.uint8), np.array([1, 3])) == 2.0


def test_r_err_rejects_rank_vectors_that_are_not_integers():
    # [1.7, 2.2] was truncated to [1, 2] and scored 0.0
    with pytest.raises(ValueError, match="^estimated rank vector must hold integers"):
        r_err([1.7, 2.2], [1, 2])
    with pytest.raises(ValueError, match="^ground_truth rank vector must hold integers"):
        r_err([1, 0], [True, False])


def test_x_err_cases():
    x = np.ones((2, 2, 2))
    assert x_err(x, x) == 0.0
    assert x_err(1.01 * x, x) == pytest.approx(0.01, rel=1e-12)
    with pytest.raises(ValueError):
        x_err(x, np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        x_err(np.ones((2, 2, 3)), x)


def test_corrupt_tensor_identity_case():
    x = np.random.default_rng(0).uniform(0, 255, (6, 6, 3))
    out = corrupt_tensor(x, rho=0.0, low=0.0, high=255.0, sigma_sq=0.0, seed=1)
    assert np.array_equal(out, x)


def test_corrupt_tensor_replacement_count():
    x = np.zeros((10, 10, 3, 4)) + 1000.0  # outside the corruption range
    out = corrupt_tensor(x, rho=0.2, low=0.0, high=255.0, sigma_sq=0.0, seed=1)
    changed = np.count_nonzero(out != 1000.0)
    assert changed == math.floor(0.2 * x.size) == 240
    replaced = out[out != 1000.0]
    assert replaced.min() >= 0.0 and replaced.max() < 255.0


def test_corrupt_tensor_normalize_then_noise_order():
    x = np.full((4, 4, 2), 510.0)
    out = corrupt_tensor(x, rho=0.0, low=0.0, high=255.0, sigma_sq=0.0,
                         seed=1, normalize=True)
    assert np.allclose(out, 2.0)  # (510 - 0) / 255; noise added after, zero here
    noisy = corrupt_tensor(x, rho=0.0, low=0.0, high=255.0, sigma_sq=1e-4,
                           seed=1, normalize=True)
    assert np.abs(noisy - 2.0).max() < 0.1


def test_corrupt_tensor_validation():
    x = np.zeros((3, 3, 2))
    with pytest.raises(ValueError):
        corrupt_tensor(x, rho=2.0, low=0.0, high=1.0, sigma_sq=0.0, seed=0)
    with pytest.raises(ValueError):
        corrupt_tensor(x, rho=0.1, low=1.0, high=1.0, sigma_sq=0.0, seed=0)


@pytest.mark.parametrize("seed", [1.5, -1, True])
def test_corrupt_tensor_rejects_seed_that_is_not_a_nonnegative_integer(seed):
    # seeds 1.5 and True silently drew seed 1's corruption
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        corrupt_tensor(np.zeros((3, 3, 2)), rho=0.2, low=0.0, high=1.0,
                       sigma_sq=0.1, seed=seed)


def test_corrupt_tensor_rejects_complex_input():
    with pytest.raises(ValueError, match="complex"):
        corrupt_tensor(np.ones((3, 3, 2)) + 1j, rho=0.1, low=0.0, high=1.0,
                       sigma_sq=0.0, seed=0)


def test_run_benchmark_empty_grid():
    report = run_benchmark([])
    assert report.results["cells"] == []


def test_run_benchmark_checks_init_rank_before_drawing_an_instance(monkeypatch):
    def no_generate(*args, **kwargs):
        raise AssertionError("an instance was drawn before the init_rank check")

    monkeypatch.setattr(synth, "generate", no_generate)
    cfg = SynthConfig((8, 8, 4), 2, uniform_multirank((4,), 2), 0.0, 0.0, seed=1)
    with pytest.raises(SettingError, match=r"^init_rank 9 exceeds the smaller slice side 8$"):
        run_benchmark([cfg], hp=HyperParams(9))


@pytest.mark.parametrize("shape", [(1, 8, 4), (8, 1, 4)])
def test_config_rejects_thin_slices(shape):
    # every 1 x n slice is full rank at rank 1: run_benchmark used to report
    # these clean rank-1 cells converged with x_err 0.80 and 0.54
    with pytest.raises(ValueError, match=re.escape(f"shape {shape} has")):
        SynthConfig(shape, 1, uniform_multirank((4,), 1), 0.0, 0.0, 3)


# what each corruption level must be, as its error message says
LEVEL_RULES = {"rho": r"rho must be a number in \[0, 1\]",
               "sigma_sq": "sigma_sq must be finite and nonnegative",
               "low": "low must be finite", "high": "high must be finite"}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["rho", "sigma_sq", "low", "high"])
def test_non_finite_corruption_levels_rejected(name, value):
    levels = dict(rho=0.1, sigma_sq=0.0, low=0.0, high=1.0)
    levels[name] = value
    with pytest.raises(ValueError, match=LEVEL_RULES[name]):
        corrupt_tensor(np.zeros((3, 3, 2)), seed=0, **levels)
    if name in ("rho", "sigma_sq"):
        with pytest.raises(ValueError, match=name):
            SynthConfig((4, 4, 2), 1, [1, 1], levels["rho"], levels["sigma_sq"], 0)


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("name", ["rho", "sigma_sq", "low", "high"])
def test_bool_corruption_levels_rejected(name, value):
    # True and False compare as 1 and 0, so each passed the range checks
    levels = dict(rho=0.1, sigma_sq=0.0, low=-10.0, high=10.0)
    levels[name] = value
    with pytest.raises(ValueError, match=LEVEL_RULES[name]):
        check_corruption(**levels)


@pytest.mark.parametrize("max_iter", [0, 40])
def test_run_benchmark_reports_the_estimated_noise_variance(max_iter):
    from lmhbrtf.model import HyperParams
    hp = HyperParams(init_rank=4, sigma0_sq=1.0, gamma=1.0, tol=1e-5, max_iter=max_iter)
    row, = run_benchmark([small_cfg(rho=0.05, sigma_sq=1e-4, seed=21)],
                         hp=hp).results["cells"][0]["repeats"]
    if max_iter:
        assert row["noise_var"] == 1.0 / row["trace"][-1]["tau_mean"]
    else:
        assert row["trace"] == [] and row["noise_var"] is None


@pytest.mark.parametrize("max_iter,message", [
    (0, "iteration budget is zero; returning initialization"),
    (3, "relative change still "),
], ids=["budget_zero", "budget_spent"])
def test_run_benchmark_rows_are_the_run_report_fields(max_iter, message):
    # a row said converged: false with no reason
    hp = HyperParams(init_rank=4, sigma0_sq=1.0, gamma=1.0, tol=1e-5, max_iter=max_iter)
    results = []
    row, = run_benchmark([small_cfg(seed=21)], hp=hp,
                         on_cell=lambda cfg, inst, result: results.append(result)
                         ).results["cells"][0]["repeats"]
    fields = results[0].report_fields()
    assert set(row) == {"seed", "r_err", "x_err", "timing", *fields}
    assert {key: row[key] for key in fields} == fields
    assert not row["converged"] and row["message"].startswith(message)


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["deepcopy", "pickle"])
@pytest.mark.parametrize("settings", [
    small_cfg(), HyperParams(3, sigma0_sq=0.5, gamma=None, tol=1e-5, max_iter=7),
], ids=["SynthConfig", "HyperParams"])
def test_copied_settings_are_rebuilt_frozen(clone, settings):
    # a copied SynthConfig held a writable multirank
    copied = clone(settings)
    assert type(copied) is type(settings) and repr(copied) == repr(settings)
    assert copied.as_dict() == settings.as_dict()
    if isinstance(settings, SynthConfig):
        assert not copied.multirank.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            copied.multirank[0] = 0
    with pytest.raises(AttributeError, match="cannot assign"):
        copied.seed = 1
    if isinstance(settings, HyperParams):
        assert repr(copied) == ("HyperParams(init_rank=3, sigma0_sq=0.5, gamma=None, "
                                "tol=1e-05, max_iter=7)")


def test_run_benchmark_deterministic_modulo_timing():
    cfg = small_cfg(rho=0.05, sigma_sq=1e-4, seed=21)
    from lmhbrtf.model import HyperParams
    hp = HyperParams(init_rank=4, sigma0_sq=1.0, gamma=1.0, tol=1e-5, max_iter=60)
    a = run_benchmark([cfg], hp=hp, model_seed=2)
    b = run_benchmark([cfg], hp=hp, model_seed=2)
    assert strip_timing(a.as_dict()) == strip_timing(b.as_dict())
    cell = a.results["cells"][0]
    assert cell["r_err_mean"] == 0.0
    assert cell["x_err_mean"] < 5e-3


def test_run_benchmark_repeats():
    cfg = small_cfg(rho=0.05, sigma_sq=1e-4, seed=40)
    from lmhbrtf.model import HyperParams
    hp = HyperParams(init_rank=4, sigma0_sq=1.0, gamma=1.0, tol=1e-5, max_iter=80)
    report = run_benchmark([cfg], hp=hp, repeats=2)
    rows = report.results["cells"][0]["repeats"]
    assert [row["seed"] for row in rows] == [40, 41]
    assert rows[0]["r_err"] == rows[1]["r_err"] == 0.0
    assert rows[0]["x_err"] != rows[1]["x_err"]  # different data draws
    for repeats in (0, -1):
        with pytest.raises(ValueError, match="repeats must be a positive integer"):
            run_benchmark([cfg], hp=hp, repeats=repeats)


def test_report_of_numpy_scalar_settings_round_trips(tmp_path):
    from lmhbrtf.model import HyperParams
    from lmhbrtf.report import RunReport
    hp = HyperParams(init_rank=np.int64(2), sigma0_sq=np.float32(0.5), max_iter=np.int32(3))
    report = run_benchmark([small_cfg()], hp=hp)
    path = tmp_path / "r.json"
    report.save(path)
    back = RunReport.load(path)
    assert back.as_dict() == report.as_dict()
    assert back.config["hyperparams"] == {"init_rank": 2, "sigma0_sq": 0.5, "gamma": None,
                                          "tol": 1e-4, "max_iter": 3}
