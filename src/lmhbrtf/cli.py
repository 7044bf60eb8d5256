"""Command-line driver: synth, corrupt, denoise and metrics subcommands.

Exit codes: 0 on success, 1 on numerical or data failure, 2 on usage
errors.  Every run is reproducible from its --seed; wall-clock times are
confined to the report's timing fields.  Option precedence is CLI flag
over --config file over built-in default.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import ImaginaryResidueError, NumericalBreakdownError
from .metrics import compute_all
from .model import HyperParams, run
from .npyio import read_tensor, write_tensor
from .report import RunReport
from .synth import (
    SynthConfig,
    corrupt_tensor,
    desk_multirank,
    protocol_hyperparams,
    run_benchmark,
    uniform_multirank,
)
from .transform import Transform


class UsageError(Exception):
    """Bad flag combination or value; maps to exit code 2."""


_DEFAULTS = {
    "synth": {
        "pattern": "desk", "repeats": 1, "init_rank": "auto",
        "sigma0sq": 1.0, "gamma": "1.0", "tol": 1e-6, "max_iter": 2500,
        "model_seed": 11, "save_tensors": None,
    },
    "corrupt": {
        "rho": 0.2, "sigma2": 1e-4, "low": 0.0, "high": 255.0,
        "normalize": False,
    },
    "denoise": {
        "transform_file": None, "init_rank": "auto",
        "sigma0sq": 1e-7, "tol": 1e-4, "max_iter": 200, "gamma": "auto",
        "report": None, "sparse_out": None, "threads": 0,
    },
    "metrics": {"window": 8, "scale": 1.0},
}


# Slice threads were removed: every phase updates all slices in one batched
# expression.  denoise --threads (and its "threads" config key) still parse,
# as a no-op, because the benchmark's denoise workload (bench/workloads.py)
# passes --threads 1; the flag can go with the benchmark change that drops it.
_THREADS_HELP = ("ignored (no-op): slice updates are batched, there are no "
                 "slice threads; accepted so that existing command lines, such "
                 "as the benchmark's denoise workload, still parse")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmhbrtf",
        description="Robust Bayesian factorization of higher-order tensors: "
                    "decompose a corrupted tensor into low-multi-rank, "
                    "sparse and noise parts.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", metavar="COMMAND")
    # no prefix matching: a removed flag must not parse as a longer one
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("synth", help="generate a synthetic instance, recover it "
                                 "and score the recovery")
    p.add_argument("--dims", required=True,
                   help="comma-separated tensor sizes, e.g. 50,50,5,5")
    p.add_argument("--rank", type=int, required=True, help="base rank R of the planted factors")
    p.add_argument("--rho", type=float, required=True, help="fraction of outlier entries")
    p.add_argument("--sigma2", type=float, required=True, help="dense noise variance")
    p.add_argument("--seed", type=int, required=True, help="data seed")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--pattern", help="'desk', 'uniform:N' or an explicit comma list of"
                                     " per-slice ranks (default desk)")
    p.add_argument("--repeats", type=int, help="rerun with shifted data seeds and average")
    p.add_argument("--init-rank", dest="init_rank", help="starting rank per slice, or 'auto'")
    p.add_argument("--sigma0sq", type=float, help="initial sparse variance")
    p.add_argument("--gamma", help="refinement divisor, or 'auto' for phi")
    p.add_argument("--tol", type=float, help="convergence threshold")
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--model-seed", dest="model_seed", type=int,
                   help="seed of the inference initialization")
    p.add_argument("--save-tensors", dest="save_tensors",
                   help="directory for the generated/recovered tensors")
    p.add_argument("--config", help="JSON file with default flag values")
    p.set_defaults(func=cmd_synth)

    p = add_parser("corrupt", help="outlier-corrupt a tensor file, optionally "
                                   "normalize, then add Gaussian noise")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rho", type=float)
    p.add_argument("--sigma2", type=float)
    p.add_argument("--low", type=float)
    p.add_argument("--high", type=float)
    p.add_argument("--normalize", action="store_const", const=True,
                   help="map to [0,1] via (x - low)/(high - low) before adding noise")
    p.add_argument("--config", help="JSON file with default flag values")
    p.set_defaults(func=cmd_corrupt)

    p = add_parser("denoise", help="recover the low-rank and sparse parts of a tensor")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="output path for the low-rank estimate")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--transform-file", dest="transform_file", nargs="+",
                   help="explicit transform: one NPY matrix per mode 3..d "
                        "(default: the DFT)")
    p.add_argument("--init-rank", dest="init_rank", help="starting rank per slice, or 'auto'")
    p.add_argument("--sigma0sq", type=float, help="initial sparse variance")
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--gamma", help="refinement divisor, or 'auto' for phi")
    p.add_argument("--report", help="optional report JSON path")
    p.add_argument("--sparse-out", dest="sparse_out", help="optional path for the sparse estimate")
    p.add_argument("--threads", type=int, help=_THREADS_HELP)
    p.add_argument("--config", help="JSON file with default flag values")
    p.set_defaults(func=cmd_denoise)

    p = add_parser("metrics", help="PSNR/SSIM/ERGAS/SAM between two tensor files")
    p.add_argument("--ref", required=True)
    p.add_argument("--est", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, help="SSIM window size")
    p.add_argument("--scale", type=float, help="ERGAS scale factor")
    p.add_argument("--config", help="JSON file with default flag values")
    p.set_defaults(func=cmd_metrics)

    return parser


def _resolve(args, command: str) -> dict:
    """Merge CLI values over config-file values over built-in defaults."""
    merged = dict(_DEFAULTS[command])
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                from_file = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {config_path}: {exc}")
        if not isinstance(from_file, dict):
            raise UsageError(f"config file {config_path} must hold a JSON object")
        for key, value in from_file.items():
            key = key.replace("-", "_")
            if key not in merged:
                raise UsageError(f"config file {config_path}: unknown option {key!r}")
            merged[key] = value
    for key in merged:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _parse_dims(text: str) -> tuple:
    try:
        dims = tuple(int(part) for part in str(text).split(","))
    except ValueError:
        raise UsageError(f"--dims must be comma-separated integers, got {text!r}")
    if len(dims) < 3 or any(n < 1 for n in dims):
        raise UsageError(f"--dims must name an order >= 3 tensor, got {dims}")
    return dims


def _parse_pattern(spec, dims: tuple, rank: int) -> np.ndarray:
    j = int(np.prod(dims[2:]))
    if spec == "desk":
        try:
            return desk_multirank(dims[2:], rank)
        except ValueError as exc:
            raise UsageError(str(exc))
    text = str(spec)
    if text.startswith("uniform:"):
        try:
            return uniform_multirank(dims[2:], int(text.split(":", 1)[1]))
        except ValueError:
            raise UsageError(f"bad uniform pattern {spec!r}")
    try:
        pattern = np.array([int(p) for p in text.split(",")], dtype=np.int64)
    except ValueError:
        raise UsageError(f"--pattern must be 'desk', 'uniform:N' or a comma list, got {spec!r}")
    if pattern.size != j:
        raise UsageError(f"--pattern lists {pattern.size} ranks but the tensor has {j} slices")
    return pattern


def _parse_init_rank(value, shape) -> int:
    if value == "auto":
        return protocol_hyperparams(shape).init_rank
    try:
        return int(value)
    except (TypeError, ValueError):
        raise UsageError(f"--init-rank must be an integer or 'auto', got {value!r}")


def _parse_gamma(value):
    if value == "auto" or value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        raise UsageError(f"--gamma must be a number or 'auto', got {value!r}")


def _load_input_tensor(path) -> np.ndarray:
    arr = read_tensor(path)
    while arr.ndim < 3:  # pad trailing singleton modes; the library rejects order < 3
        arr = arr[..., np.newaxis]
    return arr


def _hyperparams(opts, shape) -> HyperParams:
    """The model settings from the resolved options of synth or denoise."""
    return HyperParams(
        init_rank=_parse_init_rank(opts["init_rank"], shape),
        sigma0_sq=float(opts["sigma0sq"]),
        gamma=_parse_gamma(opts["gamma"]),
        tol=float(opts["tol"]),
        max_iter=int(opts["max_iter"]),
    )


def cmd_synth(args) -> None:
    opts = _resolve(args, "synth")
    dims = _parse_dims(args.dims)
    pattern = _parse_pattern(opts["pattern"], dims, args.rank)
    try:
        cfg = SynthConfig(shape=dims, base_rank=args.rank, multirank=pattern,
                          rho=args.rho, sigma_sq=args.sigma2, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc))
    hp = _hyperparams(opts, dims)
    saved = {}

    def keep_tensors(cfg_rep, inst, result):
        if opts["save_tensors"] and not saved:
            outdir = opts["save_tensors"]
            os.makedirs(outdir, exist_ok=True)
            for name, arr in (("y", inst.y), ("x_gt", inst.x_gt),
                              ("s_gt", inst.s_gt), ("e_gt", inst.e_gt),
                              ("x_hat", result.x_hat), ("s_hat", result.s_hat)):
                write_tensor(os.path.join(outdir, f"{name}.npy"), arr)
            saved["done"] = True

    report = run_benchmark([cfg], hp=hp, model_seed=int(opts["model_seed"]),
                           repeats=int(opts["repeats"]),
                           on_cell=keep_tensors)
    report.command = "synth"
    report.config.update({
        "argv": _echo_argv(args),
        "dims": list(dims),
        "pattern": [int(p) for p in pattern],
    })
    report.save(args.out)
    cell = report.results["cells"][0]
    print(f"r_err={cell['r_err_mean']:g} x_err={cell['x_err_mean']:.6e} "
          f"-> {args.out}")


def cmd_corrupt(args) -> None:
    opts = _resolve(args, "corrupt")
    rho, sigma2 = float(opts["rho"]), float(opts["sigma2"])
    low, high = float(opts["low"]), float(opts["high"])
    if not 0.0 <= rho <= 1.0:
        raise UsageError("--rho must lie in [0, 1]")
    if sigma2 < 0:
        raise UsageError("--sigma2 must be nonnegative")
    if high <= low:
        raise UsageError(f"--low/--high range [{low}, {high}] is empty")
    x = _load_input_tensor(args.input)
    y = corrupt_tensor(x, rho=rho, low=low, high=high, sigma_sq=sigma2,
                       seed=args.seed, normalize=bool(opts["normalize"]))
    write_tensor(args.out, y)
    print(f"corrupted {args.input} -> {args.out}")


def _build_transform(opts, trailing) -> Transform:
    if opts.get("transform_file"):
        paths = opts["transform_file"]
        if isinstance(paths, str):
            paths = paths.split(",")
        mats = []
        for path in paths:
            m = read_tensor(path)
            m = np.squeeze(m)
            if m.ndim != 2:
                raise UsageError(f"{path}: transform file must hold a matrix")
            mats.append(m)
        if len(mats) != len(trailing):
            raise UsageError(
                f"got {len(mats)} transform matrices for {len(trailing)} trailing modes")
        try:
            return Transform.explicit(mats)
        except ValueError as exc:
            raise UsageError(str(exc))
    return Transform.dft(trailing)


def cmd_denoise(args) -> None:
    opts = _resolve(args, "denoise")
    y = _load_input_tensor(args.input)
    transform = _build_transform(opts, y.shape[2:])
    if transform.trailing != y.shape[2:]:
        raise UsageError(
            f"transform trailing shape {transform.trailing} does not match "
            f"input {y.shape}")
    hp = _hyperparams(opts, y.shape)
    t0 = time.perf_counter()
    result = run(y, transform, hp, seed=args.seed)
    elapsed = time.perf_counter() - t0
    write_tensor(args.out, result.x_hat)
    if opts["sparse_out"]:
        write_tensor(opts["sparse_out"], result.s_hat)
    if opts["report"]:
        report = RunReport(
            command="denoise",
            config={
                "argv": _echo_argv(args),
                "input": str(args.input),
                "shape": list(y.shape),
                "transform": "explicit" if opts.get("transform_file") else "dft",
                "phi": transform.phi,
                "seed": int(args.seed),
                "hyperparams": hp.as_dict(),
            },
            results={
                "multirank": [int(r) for r in result.multirank],
                "converged": result.trace.converged,
                "iterations": len(result.trace.records),
                "message": result.trace.message,
            },
            trace=result.trace.as_dicts(),
            timing={"run_s": elapsed},
        )
        report.save(opts["report"])
    print(f"denoised {args.input} -> {args.out} "
          f"(iterations={len(result.trace.records)}, "
          f"converged={result.trace.converged})")


def cmd_metrics(args) -> None:
    opts = _resolve(args, "metrics")
    ref = _load_input_tensor(args.ref)
    est = _load_input_tensor(args.est)
    reportable = compute_all(est, ref, window=int(opts["window"]),
                             scale=float(opts["scale"]))
    report = RunReport(
        command="metrics",
        config={"argv": _echo_argv(args), "ref": str(args.ref),
                "est": str(args.est), "window": int(opts["window"]),
                "scale": float(opts["scale"])},
        results=reportable.as_dict(),
    )
    report.save(args.out)
    print(f"psnr={reportable.psnr:.3f} ssim={reportable.ssim:.4f} "
          f"ergas={reportable.ergas:.4f} sam={reportable.sam:.4f} -> {args.out}")


def _echo_argv(args) -> list:
    echo = getattr(args, "_argv_echo", None)
    return list(echo) if echo is not None else []


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help(file=sys.stderr)
        return 2
    args._argv_echo = list(argv)
    try:
        args.func(args)
    except UsageError as exc:
        print(f"lmhbrtf: usage error: {exc}", file=sys.stderr)
        return 2
    except (NumericalBreakdownError, ImaginaryResidueError,
            np.linalg.LinAlgError, ValueError, OSError) as exc:
        print(f"lmhbrtf: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
