"""End-to-end CLI behavior: flags, exit codes, files, determinism."""

import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from lmhbrtf import cli, transform
from lmhbrtf.cli import main
from lmhbrtf.npyio import read_tensor, write_tensor
from lmhbrtf.report import RunReport, strip_timing
from lmhbrtf.synth import SynthConfig, corrupt_tensor, generate, uniform_multirank


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


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--sigma0sq", "--gamma", "--tol"])
def test_denoise_rejects_non_finite_setting_exit_code_1(tmp_path, capsys, flag, value):
    src, _ = make_lowrank_input(tmp_path)
    out = tmp_path / "xhat.npy"
    code = main(["denoise", "--input", str(src), "--seed", "1", "--init-rank", "2",
                 "--max-iter", "5", "--out", str(out), flag, value])
    assert code == 1
    assert "lmhbrtf: error: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--max-iter", "-1", "max_iter"), ("--tol", "nan", "tol"),
    ("--tol", "-1", "tol"), ("--init-rank", "0", "init_rank"),
])
def test_denoise_checks_model_settings_before_reading_input(tmp_path, capsys, flag,
                                                            value, message):
    out = tmp_path / "xhat.npy"
    code = main(["denoise", "--input", str(tmp_path / "missing.npy"), "--seed", "1",
                 "--out", str(out), flag, value])
    assert code == 1
    err = capsys.readouterr().err
    assert message in err and "missing.npy" not in err
    assert not out.exists()


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


def test_denoise_pads_matrix_input(tmp_path):
    m = np.random.default_rng(0).standard_normal((6, 5))
    src = tmp_path / "m.npy"
    write_tensor(src, m)
    out = tmp_path / "o.npy"
    code = main(["denoise", "--input", str(src), "--seed", "1",
                 "--init-rank", "2", "--max-iter", "5", "--out", str(out)])
    assert code == 0
    assert read_tensor(out).shape == (6, 5, 1)


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
