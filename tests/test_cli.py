"""End-to-end CLI behavior: flags, exit codes, files, determinism."""

import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from lmhbrtf import cli, synth, transform
from lmhbrtf.cli import main
from lmhbrtf.metrics import psnr
from lmhbrtf.model import HyperParams
from lmhbrtf.npyio import read_tensor, write_tensor
from lmhbrtf.report import RunReport, strip_timing
from lmhbrtf.synth import SynthConfig, corrupt_tensor, generate, uniform_multirank
from lmhbrtf.tsvd import multi_rank


def make_lowrank_input(tmp_path, name="y.npy", rho=0.0, sigma_sq=0.0, seed=5):
    pattern = np.array([2, 1, 1, 2, 2, 2, 1, 1])
    cfg = SynthConfig(shape=(12, 12, 8), base_rank=2, multirank=pattern,
                      rho=rho, sigma_sq=sigma_sq, seed=seed)
    inst = generate(cfg)
    path = tmp_path / name
    write_tensor(path, inst.y)
    return path, inst


def test_synth_end_to_end(tmp_path):
    out = tmp_path / "report.json"
    code = main(["synth", "--dims", "12,12,8", "--rank", "2",
                 "--pattern", "2,1,1,2,2,2,1,1", "--rho", "0.05",
                 "--sigma2", "1e-4", "--seed", "7", "--out", str(out),
                 "--init-rank", "4", "--tol", "1e-5", "--max-iter", "80",
                 "--save-tensors", str(tmp_path / "tensors")])
    assert code == 0
    report = RunReport.load(out)
    cell = report.results["cells"][0]
    assert cell["r_err_mean"] == 0.0
    assert cell["x_err_mean"] < 5e-3
    for name in ("y", "x_gt", "s_gt", "e_gt", "x_hat", "s_hat"):
        assert (tmp_path / "tensors" / f"{name}.npy").exists()
    x_gt = read_tensor(tmp_path / "tensors" / "x_gt.npy")
    x_hat = read_tensor(tmp_path / "tensors" / "x_hat.npy")
    rel = np.linalg.norm(x_hat - x_gt) / np.linalg.norm(x_gt)
    assert rel == pytest.approx(cell["x_err_mean"], rel=1e-9)


def test_synth_missing_dims_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--rank", "2", "--rho", "0.0", "--sigma2", "0.0",
              "--seed", "1", "--out", "r.json"])
    assert exc.value.code == 2


def test_synth_has_no_threads_option(tmp_path, capsys):
    argv = ["synth", "--dims", "12,12,8", "--rank", "2", "--rho", "0.0",
            "--sigma2", "0.0", "--seed", "1", "--out", str(tmp_path / "r.json")]
    cfg = tmp_path / "cfg.json"
    # --threshold (a constant now) and --order (len(--dims)) went too
    for key, value in (("threads", 1), ("threshold", 1e-4), ("order", 3)):
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"--{key}", str(value)])
        assert exc.value.code == 2
        cfg.write_text(json.dumps({key: value}))
        capsys.readouterr()
        assert main(argv + ["--config", str(cfg)]) == 2
        assert "unknown option" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_denoise_has_no_transform_option(tmp_path, capsys):
    src, _ = make_lowrank_input(tmp_path)
    argv = ["denoise", "--input", str(src), "--seed", "1",
            "--out", str(tmp_path / "x.npy")]
    cfg = tmp_path / "cfg.json"
    for key, value in (("transform", "dft"), ("threshold", 1e-4)):
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"--{key}", str(value)])
        assert exc.value.code == 2
        cfg.write_text(json.dumps({key: value}))
        capsys.readouterr()
        assert main(argv + ["--config", str(cfg)]) == 2
        assert "unknown option" in capsys.readouterr().err
    assert not (tmp_path / "x.npy").exists()


def test_synth_bad_rho_is_usage_error(tmp_path):
    for rho, sigma2 in (("1.5", "0.0"), ("0.0", "-0.0001")):
        code = main(["synth", "--dims", "12,12,8", "--rank", "2", "--rho", rho,
                     "--sigma2", sigma2, "--seed", "1", "--out", str(tmp_path / "r.json")])
        assert code == 2


def test_synth_rank_zero_is_usage_error(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["synth", "--dims", "8,8,4", "--rank", "0", "--pattern", "0,0,0,0",
                 "--rho", "0.0", "--sigma2", "0.0", "--seed", "1", "--out", str(out)])
    assert code == 2
    assert "base_rank" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("pattern", ["2,1,2", "2,1,2,1,2", "2,1,3,1", "2,-1,2,-1"])
def test_synth_explicit_pattern_is_checked_by_the_config(tmp_path, capsys, pattern):
    # the pattern's count and range are SynthConfig's check, named in its words
    out = tmp_path / "r.json"
    code = main(["synth", "--dims", "8,8,4", "--rank", "2", "--pattern", pattern,
                 "--rho", "0.0", "--sigma2", "0.0", "--seed", "1", "--out", str(out)])
    assert code == 2
    assert "multirank must hold 4 integers in [0, 2]" in capsys.readouterr().err
    assert not out.exists()


def test_synth_deterministic_reports(tmp_path):
    out = tmp_path / "a.json"
    args = ["synth", "--dims", "12,12,8", "--rank", "2",
            "--pattern", "2,1,1,2,2,2,1,1", "--rho", "0.05", "--sigma2", "1e-4",
            "--seed", "3", "--init-rank", "4", "--tol", "1e-5",
            "--max-iter", "60", "--out", str(out)]
    assert main(args) == 0
    a = strip_timing(RunReport.load(out).as_dict())
    assert main(args) == 0
    b = strip_timing(RunReport.load(out).as_dict())
    assert a == b


def test_corrupt_identity_case(tmp_path):
    src, _ = make_lowrank_input(tmp_path)
    out = tmp_path / "c.npy"
    code = main(["corrupt", "--input", str(src), "--rho", "0", "--sigma2", "0",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    assert np.array_equal(read_tensor(out), read_tensor(src))


def test_corrupt_replacement_count_and_determinism(tmp_path):
    x = np.full((10, 10, 3, 4), 1000.0)
    src = tmp_path / "x.npy"
    write_tensor(src, x)
    out1, out2 = tmp_path / "y1.npy", tmp_path / "y2.npy"
    args = ["corrupt", "--input", str(src), "--rho", "0.2", "--sigma2", "0",
            "--low", "0", "--high", "255", "--seed", "9"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    y = read_tensor(out1)
    assert np.count_nonzero(y != 1000.0) == 240
    assert read_tensor(out2).tobytes() == y.tobytes()


def test_corrupt_invalid_range_usage_error(tmp_path):
    src, _ = make_lowrank_input(tmp_path)
    code = main(["corrupt", "--input", str(src), "--rho", "0.1", "--sigma2", "0",
                 "--low", "5", "--high", "5", "--seed", "1",
                 "--out", str(tmp_path / "o.npy")])
    assert code == 2


def test_corrupt_unreadable_input_runtime_error(tmp_path):
    code = main(["corrupt", "--input", str(tmp_path / "missing.npy"),
                 "--rho", "0.1", "--sigma2", "0", "--seed", "1",
                 "--out", str(tmp_path / "o.npy")])
    assert code == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--rho", "--sigma2", "--low", "--high"])
def test_corrupt_rejects_non_finite_level_before_reading(tmp_path, capsys, flag, value):
    # the input is missing: exit 2, not the read error's 1, shows that the
    # levels are checked before any file is touched
    out = tmp_path / "o.npy"
    code = main(["corrupt", "--input", str(tmp_path / "missing.npy"), "--seed", "1",
                 "--out", str(out), f"{flag}={value}"])
    assert code == 2
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--rho", "--sigma2"])
def test_synth_rejects_non_finite_level(tmp_path, capsys, flag, value):
    levels = {"--rho": "0.0", "--sigma2": "0.0", flag: value}
    out = tmp_path / "r.json"
    code = main(["synth", "--dims", "8,8,4", "--rank", "2", "--pattern", "uniform:2",
                 "--seed", "1", "--out", str(out)] + [f"{k}={v}" for k, v in levels.items()])
    assert code == 2
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dims", ["1,8,4", "8,1,4"])
def test_synth_rejects_thin_slices(tmp_path, capsys, dims):
    out, saved = tmp_path / "r.json", tmp_path / "tensors"
    code = main(["synth", "--dims", dims, "--rank", "1", "--pattern", "uniform:1",
                 "--rho", "0", "--sigma2", "0", "--seed", "3", "--out", str(out),
                 "--save-tensors", str(saved)])
    assert code == 2
    assert f"shape ({dims.replace(',', ', ')}) has" in capsys.readouterr().err
    assert not out.exists() and not saved.exists()


@pytest.mark.parametrize("shape", [(1, 8, 4), (8, 1, 4)])
def test_denoise_rejects_thin_slices_exit_code_1(tmp_path, capsys, shape):
    src, out = tmp_path / "y.npy", tmp_path / "x.npy"
    write_tensor(src, np.random.default_rng(3).standard_normal(shape))
    code = main(["denoise", "--input", str(src), "--seed", "1", "--out", str(out)])
    assert code == 1
    assert f"observation of shape {shape}" in capsys.readouterr().err
    assert not out.exists()


def test_denoise_clean_input_and_report(tmp_path):
    src, inst = make_lowrank_input(tmp_path)
    out = tmp_path / "xhat.npy"
    rep = tmp_path / "run.json"
    sparse = tmp_path / "shat.npy"
    code = main(["denoise", "--input", str(src), "--seed", "2",
                 "--out", str(out), "--report", str(rep),
                 "--sparse-out", str(sparse),
                 "--init-rank", "4", "--sigma0sq", "1.0", "--gamma", "1.0",
                 "--tol", "1e-6", "--max-iter", "100"])
    assert code == 0
    x_hat = read_tensor(out)
    rel = np.linalg.norm(x_hat - inst.x_gt) / np.linalg.norm(inst.x_gt)
    assert rel <= 1e-4
    assert np.linalg.norm(read_tensor(sparse)) <= 1e-3 * np.linalg.norm(inst.y)
    report = RunReport.load(rep)
    assert report.results["multirank"] == [2, 1, 1, 2, 2, 2, 1, 1]
    assert report.results["converged"]
    assert report.config["phi"] == 8.0
    assert report.config["transform"] == "dft"
    assert len(report.trace) == report.results["iterations"]


def test_denoise_max_iter_zero_returns_initialization(tmp_path):
    src, _ = make_lowrank_input(tmp_path, rho=0.05, sigma_sq=1e-4)
    out = tmp_path / "x0.npy"
    code = main(["denoise", "--input", str(src), "--seed", "2",
                 "--out", str(out), "--init-rank", "4", "--max-iter", "0"])
    assert code == 0
    assert read_tensor(out).shape == (12, 12, 8)


def test_denoise_deterministic_outputs(tmp_path):
    src, _ = make_lowrank_input(tmp_path, rho=0.05, sigma_sq=1e-4)
    args = ["denoise", "--input", str(src), "--seed", "4", "--init-rank", "4",
            "--sigma0sq", "1.0", "--gamma", "1.0", "--tol", "1e-5",
            "--max-iter", "50"]
    out1, out2 = tmp_path / "a.npy", tmp_path / "b.npy"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert read_tensor(out1).tobytes() == read_tensor(out2).tobytes()
    # --threads is a documented no-op that still parses
    out3 = tmp_path / "c.npy"
    assert main(args + ["--threads", "3", "--out", str(out3)]) == 0
    assert read_tensor(out1).tobytes() == read_tensor(out3).tobytes()


def test_denoise_transform_file_matches_builtin_dft(tmp_path):
    src, _ = make_lowrank_input(tmp_path, rho=0.05, sigma_sq=1e-4)
    n = 8
    k = np.arange(n)
    dft = np.exp(-2j * np.pi * np.outer(k, k) / n)
    mpath = tmp_path / "m3.npy"
    write_tensor(mpath, dft)
    common = ["--seed", "4", "--init-rank", "4", "--sigma0sq", "1.0",
              "--gamma", "1.0", "--tol", "1e-5", "--max-iter", "40"]
    out_fft, out_mat = tmp_path / "fft.npy", tmp_path / "mat.npy"
    rep = tmp_path / "mat.json"
    assert main(["denoise", "--input", str(src), "--out", str(out_fft)] + common) == 0
    assert main(["denoise", "--input", str(src), "--out", str(out_mat),
                 "--report", str(rep), "--transform-file", str(mpath)] + common) == 0
    a, b = read_tensor(out_fft), read_tensor(out_mat)
    assert np.linalg.norm(a - b) <= 1e-6 * np.linalg.norm(a)
    assert RunReport.load(rep).config["transform"] == "explicit"
    # a size-1 axis beyond two is dropped: an (8, 8, 1) file is the same matrix
    padded, out_padded = tmp_path / "m3_padded.npy", tmp_path / "padded.npy"
    write_tensor(padded, dft[:, :, np.newaxis])
    assert main(["denoise", "--input", str(src), "--out", str(out_padded),
                 "--transform-file", str(padded)] + common) == 0
    assert read_tensor(out_padded).tobytes() == b.tobytes()


@pytest.mark.parametrize("bad,message", [
    ("nan", "non-finite entry nan at index (1, 2, 3)"),
    ("tiny", "underflows"),
    ("huge", "overflows"),
])
def test_denoise_rejects_bad_input_exit_code_1(tmp_path, capsys, bad, message):
    src, inst = make_lowrank_input(tmp_path)
    y = inst.y.copy()
    if bad == "nan":
        y[1, 2, 3] = np.nan
    else:
        y = y * (1e-200 if bad == "tiny" else 1e200)
    write_tensor(src, y)
    out = tmp_path / "xhat.npy"
    code = main(["denoise", "--input", str(src), "--seed", "1",
                 "--init-rank", "2", "--max-iter", "5", "--out", str(out)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


# (flag, a value the library rejects, the setting's name in its message)
_BAD_MODEL_SETTINGS = [
    ("--max-iter", "-1", "max_iter"), ("--tol", "nan", "tol"),
    ("--tol", "-1", "tol"), ("--init-rank", "0", "init_rank"),
    ("--sigma0sq", "nan", "sigma0_sq"), ("--gamma", "-2", "gamma"),
]
_SETTING_NAMES = {flag: name for flag, _, name in _BAD_MODEL_SETTINGS}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--sigma0sq", "--gamma", "--tol"])
def test_denoise_rejects_non_finite_setting_exit_code_1(tmp_path, capsys, flag, value):
    # a model setting the library rejects is a usage error (exit 2), not a
    # failure of the data (exit 1)
    src, _ = make_lowrank_input(tmp_path)
    out = tmp_path / "xhat.npy"
    code = main(["denoise", "--input", str(src), "--seed", "1", "--init-rank", "2",
                 "--max-iter", "5", "--out", str(out), flag, value])
    assert code == 2
    err = capsys.readouterr().err
    assert f"lmhbrtf: usage error: {_SETTING_NAMES[flag]} must be" in err
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", _BAD_MODEL_SETTINGS)
def test_denoise_checks_model_settings_before_reading_input(tmp_path, capsys, flag,
                                                            value, message):
    # the input is missing: exit 2, not the read error's 1, shows that the
    # settings are checked before any file is touched
    out = tmp_path / "xhat.npy"
    code = main(["denoise", "--input", str(tmp_path / "missing.npy"), "--seed", "1",
                 "--out", str(out), flag, value])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("lmhbrtf: usage error: ")
    assert message in err and "missing.npy" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", _BAD_MODEL_SETTINGS)
def test_synth_checks_model_settings_before_generating(tmp_path, capsys, monkeypatch,
                                                       flag, value, message):
    _no_input_read(monkeypatch)
    code = main(["synth", "--dims", "8,8,4", "--rank", "2", "--pattern", "uniform:2",
                 "--rho", "0.0", "--sigma2", "0.0", "--seed", "1",
                 "--out", str(tmp_path / "r.json"), flag, value])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"lmhbrtf: usage error: {message} must be")
    assert list(tmp_path.iterdir()) == []


def test_synth_pattern_unequal_on_mirrored_slices_is_usage_error(tmp_path, capsys):
    # slices 1 and 3 of a 4-point DFT are conjugates: their ranks must agree
    out = tmp_path / "r.json"
    code = main(["synth", "--dims", "8,8,4", "--rank", "2", "--pattern", "2,1,2,2",
                 "--rho", "0.0", "--sigma2", "0.0", "--seed", "1", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "lmhbrtf: usage error: rank pattern is not symmetric")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["synth", "denoise"])
def test_init_rank_above_the_slice_side_is_usage_error(tmp_path, capsys, monkeypatch,
                                                      command):
    src, out = tmp_path / "y.npy", tmp_path / "out"
    write_tensor(src, generate(SynthConfig((8, 8, 4), 2, uniform_multirank((4,), 2),
                                           0.0, 0.0, seed=1)).y)

    def no_generate(*args, **kwargs):  # synth knows the slice side before it draws
        raise AssertionError("an instance was drawn before the init_rank check")

    monkeypatch.setattr(synth, "generate", no_generate)
    argv = {"synth": ["synth", "--dims", "8,8,4", "--rank", "2", "--pattern", "uniform:2",
                      "--rho", "0.0", "--sigma2", "0.0", "--seed", "1"],
            "denoise": ["denoise", "--input", str(src), "--seed", "1"]}[command]
    assert main(argv + ["--init-rank", "9", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "lmhbrtf: usage error: init_rank 9 exceeds the smaller slice side 8\n")
    assert list(tmp_path.iterdir()) == [src]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: the prune rule keeps every "
                   "column of a video-like input")
def test_denoise_returns_the_planted_multirank_of_a_video_like_input(tmp_path):
    # today: [10] * 12 after 275 iterations, converged
    x = generate(SynthConfig((20, 20, 3, 4), 2, uniform_multirank((3, 4), 2), 0.0, 0.0,
                             seed=900)).x_gt
    ref = (x - x.min()) / (x.max() - x.min())
    planted = multi_rank(ref, transform.Transform.dft((3, 4))).tolist()
    assert planted == [3] + [2] * 11  # the min-max offset adds one to the DC slice
    src, out, rep = tmp_path / "y.npy", tmp_path / "xhat.npy", tmp_path / "r.json"
    write_tensor(src, corrupt_tensor(ref, 0.2, 0.0, 1.0, 1e-4, seed=901))
    assert main(["denoise", "--input", str(src), "--out", str(out), "--report", str(rep),
                 "--seed", "902", "--init-rank", "10", "--sigma0sq", "1e-7",
                 "--tol", "1e-6", "--max-iter", "400"]) == 0
    assert RunReport.load(rep).results["multirank"] == planted


def test_denoise_at_its_defaults_runs_past_its_start_up_plateau(tmp_path):
    # ROADMAP item 17: with a CLI default of sigma0sq 1e-7 this run stopped
    # after 34 iterations, converged, with a 5.39 dB gain
    x = generate(SynthConfig((20, 20, 3, 4), 2, uniform_multirank((3, 4), 2), 0.0, 0.0,
                             seed=900)).x_gt
    ref = (x - x.min()) / (x.max() - x.min())
    y = corrupt_tensor(ref, 0.2, 0.0, 1.0, 1e-4, seed=901)
    src, out, rep = tmp_path / "y.npy", tmp_path / "xhat.npy", tmp_path / "r.json"
    write_tensor(src, y)
    assert main(["denoise", "--input", str(src), "--out", str(out), "--report", str(rep),
                 "--seed", "902"]) == 0
    assert psnr(read_tensor(out), ref) - psnr(y, ref) >= 20.0
    # every unset model setting is the library's: HyperParams' defaults, and
    # the init_rank of 'auto'
    assert RunReport.load(rep).config["hyperparams"] == HyperParams(init_rank=10).as_dict()


def test_synth_at_its_defaults_echoes_the_protocol_settings(tmp_path):
    out = tmp_path / "r.json"
    assert main(["synth", "--dims", "8,8,4", "--rank", "2", "--pattern", "uniform:2",
                 "--rho", "0.0", "--sigma2", "0.0", "--seed", "1", "--out", str(out)]) == 0
    assert RunReport.load(out).config["hyperparams"] == \
        synth.protocol_hyperparams((8, 8, 4)).as_dict()


def test_denoise_converges_where_mirror_slices_drifted_apart(tmp_path, capsys):
    # when both slices of a mirror pair were stored and updated apart, this
    # run exited 1 with an imaginary residue at iteration 106
    assert transform.RESIDUE_TOL == 1e-8
    cfg = SynthConfig((20, 20, 3, 4), 3, uniform_multirank((3, 4), 3), 0.0, 0.0, 0)
    x = generate(cfg).x_gt
    x = (x - x.min()) / (x.max() - x.min())
    src, out = tmp_path / "y.npy", tmp_path / "xhat.npy"
    write_tensor(src, corrupt_tensor(x, 0.2, 0, 1, 1e-4, seed=1))
    code = main(["denoise", "--input", str(src), "--out", str(out), "--init-rank", "10",
                 "--sigma0sq", "1", "--tol", "1e-6", "--max-iter", "400", "--seed", "902"])
    assert code == 0, capsys.readouterr().err
    assert "converged=True" in capsys.readouterr().out
    assert read_tensor(out).dtype == np.float64


def test_denoise_rejects_transform_that_is_not_real_safe(tmp_path, capsys):
    src, _ = make_lowrank_input(tmp_path)
    # unitary, but conjugation is no row permutation: slice products of a
    # real tensor's transform would not map back to a real tensor
    phase = np.diag(np.exp(2j * np.pi * np.arange(8) / 16))
    mpath = tmp_path / "m3.npy"
    write_tensor(mpath, phase)
    code = main(["denoise", "--input", str(src), "--seed", "1",
                 "--init-rank", "2", "--max-iter", "5",
                 "--out", str(tmp_path / "x.npy"), "--transform-file", str(mpath)])
    assert code == 1
    assert "real-safe" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [np.diag([1.0, np.inf] + [1.0] * 6), np.full((8, 8), np.nan)])
def test_denoise_rejects_non_finite_transform_matrix(tmp_path, capsys, bad):
    # diag(1, inf, ...) used to exit 1 as "not real-safe", and an all-NaN
    # matrix said only "SVD did not converge"
    src, _ = make_lowrank_input(tmp_path)
    mpath = tmp_path / "m3.npy"
    write_tensor(mpath, bad)
    code = main(["denoise", "--input", str(src), "--seed", "1",
                 "--init-rank", "2", "--max-iter", "5",
                 "--out", str(tmp_path / "x.npy"), "--transform-file", str(mpath)])
    assert code == 2
    assert "matrix of mode 3 has non-finite entries" in capsys.readouterr().err


def test_denoise_rejects_empty_transform_matrix(tmp_path, capsys):
    # an empty matrix failed with an IndexError traceback
    src, _ = make_lowrank_input(tmp_path)
    mpath = tmp_path / "m3.npy"
    write_tensor(mpath, np.zeros((0, 0)))
    code = main(["denoise", "--input", str(src), "--seed", "1",
                 "--out", str(tmp_path / "x.npy"), "--transform-file", str(mpath)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "transform matrix of mode 3 is empty" in err


def test_denoise_rejects_transform_of_another_trailing_shape(tmp_path, capsys):
    src, _ = make_lowrank_input(tmp_path)  # its third mode has size 8
    mpath, out = tmp_path / "m3.npy", tmp_path / "x.npy"
    write_tensor(mpath, np.eye(4))
    code = main(["denoise", "--input", str(src), "--seed", "1", "--out", str(out),
                 "--transform-file", str(mpath)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("lmhbrtf: usage error: transform trailing shape (4,)")
    assert "(12, 12, 8)" in err
    assert not out.exists()


def test_denoise_pads_matrix_input(tmp_path):
    m = np.random.default_rng(0).standard_normal((6, 5))
    src = tmp_path / "m.npy"
    write_tensor(src, m)
    out = tmp_path / "o.npy"
    code = main(["denoise", "--input", str(src), "--seed", "1",
                 "--init-rank", "2", "--max-iter", "5", "--out", str(out)])
    assert code == 0
    assert read_tensor(out).shape == (6, 5, 1)


def test_denoise_transform_file_of_size_one_mode(tmp_path, capsys):
    # [[c]] is the transform of a size-1 mode, as of every padded 2-d input
    src = tmp_path / "y.npy"
    write_tensor(src, np.random.default_rng(0).standard_normal((6, 5, 1)))
    common = ["denoise", "--input", str(src), "--seed", "1", "--max-iter", "20"]
    outs = {}
    for name, matrix in (("dft", None), ("one", [[1.0]]), ("two", [[2.0]])):
        outs[name] = tmp_path / f"{name}.out.npy"
        argv = common + ["--out", str(outs[name])]
        if matrix is not None:
            write_tensor(tmp_path / f"{name}.npy", np.array(matrix))
            argv += ["--transform-file", str(tmp_path / f"{name}.npy")]
        assert main(argv) == 0, capsys.readouterr().err
    assert np.array_equal(read_tensor(outs["one"]), read_tensor(outs["dft"]))


def test_denoise_transform_file_of_the_dft_matrix_reproduces_the_builtin_bitwise(tmp_path,
                                                                                capsys):
    src, _ = make_lowrank_input(tmp_path, rho=0.05, sigma_sq=1e-4)
    write_tensor(tmp_path / "m3.npy", transform.Transform.dft((8,)).matrices[0])
    common = ["denoise", "--input", str(src), "--seed", "1", "--init-rank", "4",
              "--max-iter", "30"]
    outs = tmp_path / "builtin.npy", tmp_path / "file.npy"
    assert main(common + ["--out", str(outs[0])]) == 0, capsys.readouterr().err
    assert main(common + ["--out", str(outs[1]),
                          "--transform-file", str(tmp_path / "m3.npy")]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_metrics_identical_inputs_sentinels(tmp_path):
    src, _ = make_lowrank_input(tmp_path)
    out = tmp_path / "m.json"
    code = main(["metrics", "--ref", str(src), "--est", str(src),
                 "--out", str(out)])
    assert code == 0
    raw = json.loads(out.read_text())
    assert raw["results"]["psnr"] == "+inf"
    assert raw["results"]["ssim"] == pytest.approx(1.0)
    assert raw["results"]["ergas"] == 0.0
    assert raw["results"]["sam"] == pytest.approx(0.0, abs=1e-5)
    report = RunReport.load(out)
    assert report.results["psnr"] == math.inf


def test_metrics_shape_mismatch_exit_code_1(tmp_path):
    a = tmp_path / "a.npy"
    b = tmp_path / "b.npy"
    write_tensor(a, np.zeros((10, 10, 2)) + 1.0)
    write_tensor(b, np.ones((10, 10, 3)))
    code = main(["metrics", "--ref", str(a), "--est", str(b),
                 "--out", str(tmp_path / "m.json")])
    assert code == 1


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--ref", "--est"])
def test_metrics_rejects_non_finite_entry_exit_code_1(tmp_path, capsys, flag, bad):
    # a NaN exited 0 with psnr nan; an inf in the estimate exited 1 with an
    # unnamed "math domain error", one in the reference 0 with every metric nan
    ref = np.random.default_rng(3).uniform(0.1, 1.0, (10, 10, 3))
    files = {"--ref": ref, "--est": ref + 0.01}
    files[flag][3, 4, 1] = float(bad)
    argv = ["metrics", "--out", str(tmp_path / "m.json")]
    for name, x in files.items():
        write_tensor(tmp_path / f"{name[2:]}.npy", x)
        argv += [name, str(tmp_path / f"{name[2:]}.npy")]
    assert main(argv) == 1
    side = "reference" if flag == "--ref" else "estimate"
    assert capsys.readouterr().err == (f"lmhbrtf: error: {side} has a non-finite entry "
                                       f"{bad} at index (3, 4, 1) (1 non-finite entries "
                                       "in all)\n")
    assert not (tmp_path / "m.json").exists()


def test_metrics_rejects_empty_tensor_exit_code_1(tmp_path, capsys):
    # psnr read +inf for it, and ssim failed in a numpy reduction
    src = tmp_path / "e.npy"
    write_tensor(src, np.zeros((8, 8, 0)))
    out = tmp_path / "m.json"
    code = main(["metrics", "--ref", str(src), "--est", str(src), "--out", str(out)])
    assert code == 1
    assert any(line.startswith("lmhbrtf: error:") and "(8, 8, 0)" in line
               for line in capsys.readouterr().err.splitlines())
    assert not out.exists()


def test_metrics_window_larger_than_a_frame_is_usage_error(tmp_path, capsys):
    # it exited 1, while init_rank beyond the slice side exits 2
    src = tmp_path / "x.npy"
    write_tensor(src, np.random.default_rng(0).uniform(0, 1, (8, 8, 2)))
    out = tmp_path / "m.json"
    code = main(["metrics", "--ref", str(src), "--est", str(src), "--window", "9",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == ("lmhbrtf: usage error: frame size (8, 8) is "
                                       "smaller than the 9x9 window\n")
    assert not out.exists()


def test_metrics_rejects_complex_estimate_exit_code_1(tmp_path, capsys):
    x = np.random.default_rng(0).uniform(0, 1, (10, 10, 2))
    ref, est = tmp_path / "x.npy", tmp_path / "c.npy"
    write_tensor(ref, x)
    write_tensor(est, x + 1j)
    out = tmp_path / "m.json"
    code = main(["metrics", "--ref", str(ref), "--est", str(est), "--out", str(out)])
    assert code == 1
    assert "complex" in capsys.readouterr().err
    assert not out.exists()


def test_corrupt_rejects_complex_input_exit_code_1(tmp_path, capsys):
    src, out = tmp_path / "c.npy", tmp_path / "o.npy"
    write_tensor(src, np.ones((4, 4, 2)) + 1j)
    code = main(["corrupt", "--input", str(src), "--rho", "0.1", "--sigma2", "0",
                 "--seed", "1", "--out", str(out)])
    assert code == 1
    assert "complex" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_corrupt_rejects_non_finite_input_exit_code_1(tmp_path, capsys, bad):
    # exited 0 and wrote the NaN or inf out
    src, out = tmp_path / "x.npy", tmp_path / "o.npy"
    x = np.ones((4, 4, 2))
    x[1, 2, 1] = float(bad)
    write_tensor(src, x)
    assert main(["corrupt", "--input", str(src), "--seed", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"lmhbrtf: error: input has a non-finite entry {bad} "
                                       "at index (1, 2, 1) (1 non-finite entries in all)\n")
    assert not out.exists()


def test_config_file_precedence(tmp_path):
    src, _ = make_lowrank_input(tmp_path, rho=0.05, sigma_sq=1e-4)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_iter": 2, "init_rank": 4,
                               "gamma": "1.0", "sigma0sq": 1.0}))
    rep = tmp_path / "r.json"
    # config supplies max_iter=2; the flag overrides it to 3
    code = main(["denoise", "--input", str(src), "--seed", "1",
                 "--out", str(tmp_path / "x.npy"), "--report", str(rep),
                 "--config", str(cfg), "--max-iter", "3"])
    assert code == 0
    assert RunReport.load(rep).results["iterations"] == 3


def test_config_file_unknown_key_usage_error(tmp_path):
    src, _ = make_lowrank_input(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_option": 1}))
    code = main(["denoise", "--input", str(src), "--seed", "1",
                 "--out", str(tmp_path / "x.npy"), "--config", str(cfg)])
    assert code == 2


def test_no_subcommand_prints_help(capsys):
    assert main([]) == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def _argv_with_missing_input(command, tmp_path):
    """A command line of *command* whose input files do not exist, so that
    exit code 2 (not the read error's 1) shows a check ran before reading."""
    missing = str(tmp_path / "missing.npy")
    return {
        "synth": ["synth", "--dims", "6,6,3", "--rank", "1", "--rho", "0",
                  "--sigma2", "0", "--seed", "1"],
        "corrupt": ["corrupt", "--input", missing, "--seed", "1"],
        "denoise": ["denoise", "--input", missing, "--seed", "1"],
        "metrics": ["metrics", "--ref", missing, "--est", missing],
    }[command] + ["--out", str(tmp_path / "out")]


@pytest.mark.parametrize("command,key,value", [
    ("denoise", "max_iter", 2.5),
    ("denoise", "max_iter", True),
    ("corrupt", "rho", "abc"),
    ("corrupt", "normalize", "false"),
    ("corrupt", "normalize", 0),
    ("denoise", "report", 5),
    ("denoise", "transform_file", 5),
    ("denoise", "transform_file", "a.npy,b.npy"),
    ("denoise", "gamma", None),
    ("synth", "save_tensors", 5),
    ("synth", "repeats", 1.5),
    ("synth", "repeats", 0),
    ("synth", "model_seed", -1),
    ("synth", "pattern", 3),
    ("metrics", "window", 7.5),
    ("metrics", "window", 0),
    ("metrics", "scale", "nan"),
    ("metrics", "scale", 0),
])
def test_config_value_of_wrong_type_or_range_is_usage_error(tmp_path, capsys,
                                                            command, key, value):
    argv = _argv_with_missing_input(command, tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert main(argv + ["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and repr(key) in err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command,flag,value", [
    ("synth", "--seed", "-1"),
    ("synth", "--model-seed", "-1"),
    ("synth", "--repeats", "0"),
    ("synth", "--repeats", "-1"),
    ("corrupt", "--seed", "-1"),
    ("denoise", "--seed", "-1"),
    ("metrics", "--window", "0"),
    ("metrics", "--scale", "nan"),
    ("metrics", "--scale", "inf"),
    ("metrics", "--scale", "0"),
])
def test_out_of_range_flag_is_usage_error(tmp_path, capsys, command, flag, value):
    argv = _argv_with_missing_input(command, tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# one value per settable option: (the flag's words, the same value in JSON)
_SAMPLES = {
    "pattern": (["uniform:2"], "uniform:2"),
    "repeats": (["3"], 3),
    "init_rank": (["7"], 7),
    "sigma0sq": (["1e-07"], 1e-7),
    "gamma": (["0.30000000000000004"], 0.1 + 0.2),
    "tol": (["2.2250738585072014e-308"], 2.2250738585072014e-308),
    "max_iter": (["17"], 17),
    "model_seed": (["123"], 123),
    "save_tensors": (["tensors"], "tensors"),
    "rho": (["0.1"], 0.1),
    "sigma2": (["1e-4"], 1e-4),
    "low": (["-3.5"], -3.5),
    "high": (["254.99999999999997"], 254.99999999999997),
    "normalize": ([], True),
    "transform_file": (["a.npy", "b.npy"], ["a.npy", "b.npy"]),
    "report": (["r.json"], "r.json"),
    "sparse_out": (["s.npy"], "s.npy"),
    "threads": (["3"], 3),
    "window": (["5"], 5),
    "scale": (["0.1"], 0.1),
}


@pytest.mark.parametrize("command", sorted(cli._OPTIONS))
def test_config_value_resolves_to_what_its_flag_gives(tmp_path, command):
    base = _argv_with_missing_input(command, tmp_path)
    parser = cli.build_parser()
    cfg = tmp_path / "cfg.json"
    settable = [row[0] for row in cli._OPTIONS[command][1] if row[2] is not cli._REQUIRED]
    assert settable and set(settable) <= set(_SAMPLES)
    for key in settable:
        words, value = _SAMPLES[key]
        flag = "--" + key.replace("_", "-")
        by_flag = cli._resolve(parser.parse_args(base + [flag] + words))
        # the JSON value, and for a one-word flag also the flag's own text
        for setting in [value] + (words if len(words) == 1 else []):
            cfg.write_text(json.dumps({key: setting}))
            by_config = cli._resolve(parser.parse_args(base + ["--config", str(cfg)]))
            got, want = by_config[key], by_flag[key]
            assert type(got) is type(want) and got == want, (key, setting)
            if isinstance(want, float):
                assert got.hex() == want.hex(), key


def test_readme_cli_examples_parse():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("lmhbrtf ")]
    assert len(lines) >= 4
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert args.func.__name__ == "cmd_" + args.subcommand


@pytest.mark.parametrize("shape", ["5", "(2.5, 3)", "(-1, 3)"])
@pytest.mark.parametrize("command", ["corrupt", "denoise", "transform", "metrics"])
def test_bad_tensor_file_is_error_not_traceback(tmp_path, capsys, command, shape):
    bad = tmp_path / "bad.npy"
    header = f"{{'descr': '<f8', 'fortran_order': True, 'shape': {shape}, }}\n"
    bad.write_bytes(b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little")
                    + header.encode("latin1") + bytes(48))
    good, _ = make_lowrank_input(tmp_path)
    out = tmp_path / "out.npy"
    argv = {
        "corrupt": ["corrupt", "--input", bad, "--seed", "1", "--out", out],
        "denoise": ["denoise", "--input", bad, "--seed", "1", "--out", out],
        "transform": ["denoise", "--input", good, "--seed", "1", "--out", out,
                      "--transform-file", bad],
        "metrics": ["metrics", "--ref", bad, "--est", good, "--out", out],
    }[command]
    assert main([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert any(line.startswith("lmhbrtf: error:") and str(bad) in line
               for line in err.splitlines())
    assert not out.exists()


def _no_input_read(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("an input was read before the output paths were checked")
    monkeypatch.setattr(cli, "read_tensor", fail)
    monkeypatch.setattr(cli, "run_benchmark", fail)


@pytest.mark.parametrize("kind", ["nodir", "isdir"])
@pytest.mark.parametrize("command,flag", [
    ("synth", "--out"), ("corrupt", "--out"), ("denoise", "--out"),
    ("denoise", "--report"), ("denoise", "--sparse-out"), ("metrics", "--out"),
])
def test_bad_output_path_is_usage_error_before_any_input(tmp_path, capsys, monkeypatch,
                                                         command, flag, kind):
    _no_input_read(monkeypatch)
    good = str(tmp_path / "good.out")
    argv = {
        "synth": ["synth", "--dims", "8,8,4", "--rank", "2", "--rho", "0.1",
                  "--sigma2", "0.0", "--seed", "1", "--out", good],
        "corrupt": ["corrupt", "--input", "x.npy", "--seed", "1", "--out", good],
        "denoise": ["denoise", "--input", "y.npy", "--seed", "1", "--out", good],
        "metrics": ["metrics", "--ref", "a.npy", "--est", "b.npy", "--out", good],
    }[command]
    # a path that cannot be written: in a missing directory, or a directory
    path = str(tmp_path / "nodir" / "f") if kind == "nodir" else str(tmp_path)
    assert main(argv + [flag, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"lmhbrtf: usage error: {flag} {path!r}")
    # the same check holds for a path from the config file
    cfg = tmp_path / "cfg.json"
    key = flag[2:].replace("-", "_")
    if key != "out":
        cfg.write_text(json.dumps({key: path}))
        assert main(argv + ["--config", str(cfg)]) == 2
        assert f"{flag} {path!r}" in capsys.readouterr().err
    assert not (tmp_path / "good.out").exists()


@pytest.mark.parametrize("first,second", [
    ("--out", "--report"), ("--out", "--sparse-out"), ("--report", "--sparse-out"),
])
def test_denoise_outputs_naming_one_file_are_usage_error(tmp_path, capsys, monkeypatch,
                                                         first, second):
    # --out b.npy --report b.npy exited 0 with the report in b.npy, x_hat lost
    _no_input_read(monkeypatch)
    (tmp_path / "sub").mkdir()
    path, alias = str(tmp_path / "b.npy"), str(tmp_path / "sub" / ".." / "b.npy")
    argv = ["denoise", "--input", "y.npy", "--seed", "1", first, path, second, alias]
    if "--out" not in (first, second):
        argv += ["--out", str(tmp_path / "x.npy")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"lmhbrtf: usage error: {first} {path!r} and "
                                       f"{second} {alias!r} name one file\n")
    assert not list(tmp_path.glob("*.npy"))


def test_denoise_output_from_config_naming_the_out_file_is_usage_error(tmp_path, capsys,
                                                                      monkeypatch):
    _no_input_read(monkeypatch)
    out, cfg = str(tmp_path / "b.npy"), tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"report": out}))
    assert main(["denoise", "--input", "y.npy", "--seed", "1", "--out", out,
                 "--config", str(cfg)]) == 2
    assert f"--out {out!r} and --report {out!r} name one file" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.npy"))


def test_an_input_may_also_be_the_output(tmp_path):
    src = tmp_path / "x.npy"
    write_tensor(src, np.ones((4, 4, 2)))
    assert main(["corrupt", "--input", str(src), "--seed", "1", "--out", str(src)]) == 0
    assert np.count_nonzero(read_tensor(src) != 1.0) > 0


def test_synth_save_tensors_naming_a_file_is_usage_error(tmp_path, capsys, monkeypatch):
    _no_input_read(monkeypatch)
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = ["synth", "--dims", "8,8,4", "--rank", "2", "--rho", "0.1", "--sigma2", "0.0",
            "--seed", "1", "--out", str(tmp_path / "r.json")]
    assert main(argv + ["--save-tensors", str(taken)]) == 2
    assert f"--save-tensors {str(taken)!r}" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"save_tensors": str(taken)}))
    assert main(argv + ["--config", str(cfg)]) == 2
    assert f"--save-tensors {str(taken)!r}" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("under", [("sub",), ("sub", "deeper")])
def test_synth_save_tensors_under_a_file_is_usage_error(tmp_path, capsys, monkeypatch,
                                                        under):
    # the directories used to fail only after the solve, with no report written
    _no_input_read(monkeypatch)
    taken = tmp_path / "taken"
    taken.write_text("")
    path = str(taken.joinpath(*under))
    argv = ["synth", "--dims", "8,8,4", "--rank", "2", "--rho", "0.1", "--sigma2", "0.0",
            "--seed", "1", "--out", str(tmp_path / "r.json")]
    assert main(argv + ["--save-tensors", path]) == 2
    assert (f"--save-tensors {path!r}: {str(taken)!r} exists and is not a directory"
            in capsys.readouterr().err)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"save_tensors": path}))
    assert main(argv + ["--config", str(cfg)]) == 2
    assert f"--save-tensors {path!r}" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("name", ["y", "s_hat"])
def test_synth_out_among_the_saved_tensors_is_usage_error(tmp_path, capsys, monkeypatch,
                                                           name):
    # --out d/y.npy --save-tensors d exited 0 with the report in y.npy, the
    # saved observation lost
    _no_input_read(monkeypatch)
    (tmp_path / "d").mkdir()
    saved = str(tmp_path / "d")
    out = str(tmp_path / "d" / f"{name}.npy")
    argv = ["synth", "--dims", "8,8,5", "--rank", "2", "--rho", "0.05", "--sigma2",
            "1e-4", "--seed", "1", "--max-iter", "3", "--out", out]
    message = (f"lmhbrtf: usage error: --out {out!r} and --save-tensors {saved!r} "
               f"({name}.npy) name one file\n")
    assert main(argv + ["--save-tensors", saved]) == 2
    assert capsys.readouterr().err == message
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"save_tensors": saved}))
    assert main(argv + ["--config", str(cfg)]) == 2
    assert capsys.readouterr().err == message
    assert not list((tmp_path / "d").iterdir())


def test_synth_report_beside_the_saved_tensors(tmp_path):
    saved = tmp_path / "d"
    saved.mkdir()
    assert main(["synth", "--dims", "8,8,5", "--rank", "2", "--rho", "0.05", "--sigma2",
                 "1e-4", "--seed", "1", "--max-iter", "3", "--out", str(saved / "report.json"),
                 "--save-tensors", str(saved)]) == 0
    assert RunReport.load(saved / "report.json").command == "synth"
    assert sorted(p.name for p in saved.glob("*.npy")) == sorted(
        f"{name}.npy" for name in cli._SAVED_TENSORS)
    assert read_tensor(saved / "y.npy").shape == (8, 8, 5)


def test_synth_save_tensors_makes_missing_directories(tmp_path):
    saved = tmp_path / "new" / "deeper"
    assert main(["synth", "--dims", "8,8,5", "--rank", "2", "--rho", "0.1", "--sigma2",
                 "0.0", "--seed", "1", "--max-iter", "2", "--out", str(tmp_path / "r.json"),
                 "--save-tensors", str(saved)]) == 0
    assert (saved / "x_hat.npy").exists()


def test_synth_all_zero_pattern_is_usage_error_before_generating(tmp_path, capsys,
                                                                 monkeypatch):
    _no_input_read(monkeypatch)
    out = tmp_path / "r.json"
    code = main(["synth", "--dims", "10,10,3", "--rank", "2", "--pattern", "uniform:0",
                 "--rho", "0.1", "--sigma2", "1e-4", "--seed", "1", "--out", str(out)])
    assert code == 2
    assert "no positive rank" in capsys.readouterr().err
    assert not out.exists()
