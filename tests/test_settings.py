"""Every numeric setting the library takes is checked by one rule.

``errors._check_number`` decides whether a scalar setting is valid: it
returns a plain ``int`` or finite ``float``, or raises a SettingError
(a ValueError) that names the setting.  The property test drives the rule
itself; the table below calls it through every public entry point that
takes a setting.  The library's other checks of a setting raise a
SettingError too, and its checks of the data a plain ValueError.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmhbrtf.errors import SettingError, _check_number
from lmhbrtf.metrics import ergas, psnr, ssim
from lmhbrtf.model import HyperParams, init_state, run
from lmhbrtf.synth import (
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
from lmhbrtf.tsvd import (
    factorize_lemma1,
    identity_tensor,
    multi_rank,
    t_svd,
    truncate_multi_rank,
)

INT64 = st.integers(-2**63, 2**63 - 1)
SCALARS = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.text(max_size=3), st.none(),
    INT64.map(np.int64), st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_),
    st.one_of(INT64, st.floats(), st.booleans(), st.text(max_size=3)).map(np.array),
    st.lists(st.floats(), min_size=1, max_size=2).map(np.array),
)
BOUND = st.one_of(st.none(), st.integers(-3, 3), st.floats(-3, 3))


@settings(deadline=None)  # a loaded host must not fail a microsecond check
@given(value=SCALARS, low=BOUND, high=BOUND, integer=st.booleans(), open_low=st.booleans())
def test_check_number_returns_a_plain_number_in_bounds_or_raises_value_error(
        value, low, high, integer, open_low):
    try:
        number = _check_number("setting", value, low, high, integer=integer,
                               open_low=open_low)
    except SettingError as exc:
        assert str(exc).startswith("setting must be ")
        return
    assert type(number) is (int if integer else float)
    assert -math.inf < number < math.inf
    assert low is None or number > low or (number == low and not open_low)
    assert high is None or number <= high
    element = value[()] if isinstance(value, np.ndarray) else value
    assert not isinstance(element, (bool, np.bool_, str)) and element is not None
    assert number == element


@pytest.mark.parametrize("value", [True, np.bool_(False), "1", None, math.nan, math.inf,
                                   np.array([1.0]), 2.0, 2.5, 1 + 0j])
def test_check_number_rejects_what_is_not_an_integer(value):
    with pytest.raises(ValueError, match="^count must be a nonnegative integer, got "):
        _check_number("count", value, 0, integer=True)


def test_check_number_words_each_kind_of_bound():
    cases = [((0, None, True, False), "a nonnegative integer"),
             ((1, None, True, False), "a positive integer"),
             ((None, None, False, False), "finite"),
             ((0, None, False, False), "finite and nonnegative"),
             ((0, None, False, True), "finite and positive"),
             ((0, 1, False, False), r"a number in \[0, 1\]"),
             ((1, 3, True, False), r"an integer in \[1, 3\]")]
    for (low, high, integer, open_low), words in cases:
        with pytest.raises(ValueError, match=f"^x must be {words}, got '-5'$"):
            _check_number("x", "-5", low, high, integer=integer, open_low=open_low)


def test_check_number_keeps_huge_integers_and_rejects_them_as_floats():
    assert _check_number("seed", 10**40, 0, integer=True) == 10**40
    with pytest.raises(ValueError, match="^tol must be finite"):
        _check_number("tol", 10**400, 0, open_low=True)


X = np.random.default_rng(0).standard_normal((4, 3, 3))
Y = np.random.default_rng(1).standard_normal((4, 4, 3))
REF = np.full((8, 8, 2), 2.0)
L3 = Transform.dft((3,))


def _config(**change):
    settings = dict(shape=(8, 8, 4), base_rank=2, multirank=[2, 1, 2, 1], rho=0.1,
                    sigma_sq=0.0, seed=0)
    return SynthConfig(**{**settings, **change})


# site: (setting named in the message, integer setting, a valid value,
# an out-of-range value or None where the setting has no range, the call)
SITES = {
    "HyperParams.init_rank": ("init_rank", True, 2, 0, lambda v: HyperParams(v)),
    "HyperParams.sigma0_sq": ("sigma0_sq", False, 0.5, 0.0,
                              lambda v: HyperParams(2, sigma0_sq=v)),
    "HyperParams.gamma": ("gamma", False, 2.0, -1.0, lambda v: HyperParams(2, gamma=v)),
    "HyperParams.tol": ("tol", False, 1e-3, 0.0, lambda v: HyperParams(2, tol=v)),
    "HyperParams.max_iter": ("max_iter", True, 0, -1, lambda v: HyperParams(2, max_iter=v)),
    "check_corruption.rho": ("rho", False, 0.5, 1.5, lambda v: check_corruption(v, 0.0)),
    "check_corruption.sigma_sq": ("sigma_sq", False, 0.0, -1e-9,
                                  lambda v: check_corruption(0.1, v)),
    "check_corruption.low": ("low", False, -1.0, None,
                             lambda v: check_corruption(0.1, 0.0, low=v)),
    "check_corruption.high": ("high", False, 1.0, None,
                              lambda v: check_corruption(0.1, 0.0, high=v)),
    "SynthConfig.shape": ("shape[2]", True, 4, 0, lambda v: _config(shape=(8, 8, v))),
    "SynthConfig.base_rank": ("base_rank", True, 2, 9, lambda v: _config(base_rank=v)),
    "SynthConfig.seed": ("seed", True, 3, -1, lambda v: _config(seed=v)),
    "run_benchmark.repeats": ("repeats", True, 2, 0, lambda v: run_benchmark([], repeats=v)),
    "run_benchmark.model_seed": ("model_seed", True, 0, -1,
                                 lambda v: run_benchmark([], model_seed=v)),
    "uniform_multirank.rank": ("rank", True, 0, -1, lambda v: uniform_multirank((4,), v)),
    "desk_multirank.base_rank": ("base_rank", True, 3, 0, lambda v: desk_multirank((5,), v)),
    # uniform_multirank((2.5,), 1) was a 2-entry pattern, desk_multirank((5.9,), 2)
    # the 5-slice one
    "uniform_multirank.trailing": ("size of trailing mode 3", True, 4, 0,
                                   lambda v: uniform_multirank((v,), 1)),
    "desk_multirank.trailing": ("size of trailing mode 4", True, 5, 0,
                                lambda v: desk_multirank((5, v), 2)),
    "Transform.dft": ("size of trailing mode 4", True, 2, 0,
                      lambda v: Transform.dft((3, v))),
    "ssim.window": ("SSIM window", True, 4, 0, lambda v: ssim(REF, REF, window=v)),
    "ergas.scale": ("ERGAS scale", False, 0.5, 0.0, lambda v: ergas(REF, REF, scale=v)),
    "t_svd.rank": ("skinny width", True, 2, 4, lambda v: t_svd(X, L3, rank=v)),
    "t_svd.tol": ("rank tolerance", False, 0.0, -1.0, lambda v: t_svd(X, L3, tol=v)),
    "multi_rank.tol": ("rank tolerance", False, 1e-3, -1.0, lambda v: multi_rank(X, L3, v)),
    "factorize_lemma1.r": ("factor width", True, 3, 4, lambda v: factorize_lemma1(X, L3, v)),
    "factorize_lemma1.tol": ("rank tolerance", False, 1e-8, -1.0,
                             lambda v: factorize_lemma1(X, L3, 3, tol=v)),
    "identity_tensor.size": ("size", True, 0, -1, lambda v: identity_tensor(v, L3)),
    "init_state.seed": ("seed", True, 5, -1, lambda v: init_state(Y, L3, HyperParams(2), v)),
    "run.seed": ("seed", True, 5, -1,
                 lambda v: run(Y, L3, HyperParams(2, max_iter=1), v)),
    "corrupt_tensor.seed": ("seed", True, 5, -1,
                            lambda v: corrupt_tensor(REF, 0.1, 0.0, 1.0, 0.0, v)),
}


# None selects a default here: phi for gamma, the full t-SVD for the rank
NONE_IS_DEFAULT = {"HyperParams.gamma", "t_svd.rank"}


@pytest.mark.parametrize("site", SITES)
def test_every_setting_rejects_what_is_not_a_valid_number(site):
    name, integer, valid, out_of_range, call = SITES[site]
    bad = [True, False, "1", math.nan, np.array([valid, valid])]
    bad += [] if site in NONE_IS_DEFAULT else [None]
    bad += [2.5, float(valid)] if integer else [math.inf]
    bad += [] if out_of_range is None else [out_of_range]
    for value in bad:
        with pytest.raises(SettingError, match=f"^{re.escape(name)} must be "):
            call(value)


@pytest.mark.parametrize("site", SITES)
def test_every_setting_takes_a_numpy_scalar(site):
    name, integer, valid, _, call = SITES[site]
    call(np.int32(valid) if integer else np.float32(valid))
    if site in NONE_IS_DEFAULT:
        call(None)


# rank-vector site: (vector named in the message, a valid value, the call);
# ``errors._check_integer_array`` checks each
VECTOR_SITES = {
    "SynthConfig.multirank": ("multirank", [2, 1, 2, 1], lambda v: _config(multirank=v)),
    "truncate_multi_rank.target": ("target multi-rank", [2, 1, 1],
                                   lambda v: truncate_multi_rank(X, L3, v)),
    # r_err([-3, 2], [1, 2]) was 2.0, two (2, 2) arrays and r_err(3, 3) were
    # 0.0, and r_err([], []) blamed only the dtype
    "r_err.estimated": ("estimated rank vector", [1, 2], lambda v: r_err(v, [1, 2])),
    "r_err.ground_truth": ("ground_truth rank vector", [1, 2], lambda v: r_err([1, 2], v)),
}


@pytest.mark.parametrize("site", VECTOR_SITES)
def test_every_rank_vector_rejects_what_is_not_a_vector_of_nonnegative_integers(site):
    name, valid, call = VECTOR_SITES[site]
    call(valid)
    call(np.array(valid, dtype=np.uint8))
    bad = [[-3, 2], np.ones((2, 2), dtype=int), 3, [], np.array(valid, dtype=float),
           [True] * len(valid), np.array(valid)[None], None, "12"]
    for value in bad:
        with pytest.raises(SettingError, match=f"^{re.escape(name)} must hold "):
            call(value)


def test_r_err_takes_two_nonempty_equal_length_vectors():
    assert r_err([3, 0, 2], np.array([1, 0, 5], dtype=np.int32)) == 5 / 3
    for args in (([-3, 2], [1, 2]), (np.ones((2, 2), int), np.ones((2, 2), int)), (3, 3),
                 ([], [])):
        with pytest.raises(ValueError, match=r"^estimated rank vector must hold integers, "
                                             r"one or more in a 1-D vector, in \[0, inf\)"):
            r_err(*args)
    with pytest.raises(ValueError, match=r"^rank vectors differ in length: 3 vs 2$"):
        r_err([1, 2, 3], [1, 2])


def test_settings_are_stored_as_plain_python_numbers():
    cfg = _config(shape=(np.int64(8), 8, np.uint8(4)), base_rank=np.int32(2),
                  rho=np.float32(0.25), sigma_sq=np.int64(0), seed=np.int64(7))
    assert [type(v) for v in vars(cfg).values()] == [tuple, int, np.ndarray, float, float, int]
    assert [type(n) for n in cfg.shape] == [int, int, int]
    assert cfg.as_dict() == {"shape": [8, 8, 4], "base_rank": 2, "multirank": [2, 1, 2, 1],
                             "rho": 0.25, "sigma_sq": 0.0, "seed": 7}
    assert check_corruption(np.float16(0.5), 0, np.int8(-1), np.float64(2.0)) == (0.5, 0.0,
                                                                                    -1.0, 2.0)
    assert [type(v) for v in check_corruption(np.float16(0.5), 0)] == [float] * 4
    assert type(Transform.dft((np.int64(3),)).trailing[0]) is int
    echo = run_benchmark([], repeats=np.int64(2), model_seed=np.uint16(4)).config
    assert (echo["repeats"], echo["model_seed"]) == (2, 4)
    assert [type(echo[k]) for k in ("repeats", "model_seed")] == [int, int]


def test_settings_objects_cannot_be_reassigned():
    # a reassigned field skipped its check: tol -1 ran every iteration, and
    # max_iter 2.5 or seed -1 failed later inside range or numpy
    hp, cfg = HyperParams(2), _config()
    for settings_object in (hp, cfg):
        for name, value in vars(settings_object).items():
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(settings_object, name, value)
    with pytest.raises(ValueError, match="read-only"):
        cfg.multirank[0] = 1
    assert (hp.tol, cfg.seed, cfg.multirank.tolist()) == (1e-4, 0, [2, 1, 2, 1])


# the library's checks beyond the one rule: a setting the caller passed
# raises SettingError, which the CLI reports as a usage error (exit 2) ...
SETTING_FAULTS = {
    "check_corruption.range": lambda: check_corruption(0.1, 0.0, low=1.0, high=1.0),
    "SynthConfig.order": lambda: _config(shape=(8, 8)),
    "SynthConfig.thin_slices": lambda: _config(shape=(1, 8, 4)),
    "SynthConfig.zero_pattern": lambda: _config(multirank=[0, 0, 0, 0]),
    "desk_multirank.few_slices": lambda: desk_multirank((4,), 2),
    "desk_multirank.trailing": lambda: desk_multirank((4, 4), 2),
    "generate.trailing": lambda: generate(_config(), Transform.dft((5,))),
    "generate.mirror": lambda: generate(_config(multirank=[2, 1, 2, 2])),
    "truncate_multi_rank.mirror": lambda: truncate_multi_rank(Y, L3, [2, 1, 2]),
    "Transform.dft.no_mode": lambda: Transform.dft(()),
    "Transform.explicit.no_matrix": lambda: Transform.explicit([]),
    "Transform.explicit.square": lambda: Transform.explicit([np.ones((2, 3))]),
    "Transform.explicit.finite": lambda: Transform.explicit([np.full((2, 2), np.nan)]),
    "Transform.explicit.empty": lambda: Transform.explicit([np.zeros((0, 0))]),
    "Transform.explicit.unitary": lambda: Transform.explicit([np.ones((2, 2))]),
    "run.init_rank": lambda: run(Y, L3, HyperParams(5, max_iter=1), 0),
}
# ... and a fault of the data a plain ValueError, a failure (exit 1)
NOT_REAL_SAFE = Transform.explicit([np.diag(np.exp(2j * np.pi * np.arange(3) / 6))])
DATA_FAULTS = {
    "run.thin_slices": lambda: run(np.ones((1, 4, 3)), L3, HyperParams(1), 0),
    "run.non_finite": lambda: run(np.where(Y > 1, np.nan, Y), L3, HyperParams(2), 0),
    "run.scale": lambda: run(Y * 1e-200, L3, HyperParams(2), 0),
    "run.real_safe": lambda: run(Y, NOT_REAL_SAFE, HyperParams(2), 0),
    "run.trailing_shape": lambda: run(Y, Transform.dft((4,)), HyperParams(2), 0),
    "x_err.shape": lambda: x_err(X, Y),
    "psnr.shape": lambda: psnr(X, Y),
}


@pytest.mark.parametrize("site", SETTING_FAULTS)
def test_a_bad_setting_raises_setting_error(site):
    with pytest.raises(SettingError):
        SETTING_FAULTS[site]()


@pytest.mark.parametrize("site", DATA_FAULTS)
def test_a_fault_of_the_data_raises_no_setting_error(site):
    with pytest.raises(ValueError) as exc:
        DATA_FAULTS[site]()
    assert not isinstance(exc.value, SettingError), exc.value
