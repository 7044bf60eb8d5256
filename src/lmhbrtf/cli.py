"""Command-line driver: synth, corrupt, denoise and metrics subcommands.

Exit codes: 0 on success, 2 on a usage error (a bad flag or any
:class:`errors.SettingError`) and 1 on any other failure: bad data, a
numerical breakdown or a file error.  Every run is reproducible from its
--seed; wall-clock times are confined to the report's timing fields.
An argument @PATH stands for the lines of that file, one argument per
line, so a later argument overrides an earlier one; an unset model
setting of synth or denoise takes the library's preset for it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import NumericalBreakdownError, SettingError, _check_number
from .metrics import compute_all
from .model import HyperParams, run
from .npyio import read_tensor, write_tensor
from .report import RunReport
from .synth import (
    SynthConfig,
    check_corruption,
    corrupt_tensor,
    desk_multirank,
    protocol_hyperparams,
    run_benchmark,
    uniform_multirank,
)
from .transform import Transform


def _checked(parse, low, **rule):
    """The parse function of a numeric option: *parse* of its text, from
    *low* up by the library's rule (:func:`errors._check_number`)."""
    def number(text):
        value = parse(text)
        try:
            return _check_number("value", value, low, **rule)
        except SettingError as exc:  # argparse would print only the text
            raise argparse.ArgumentTypeError(str(exc)) from None
    number.__name__ = parse.__name__  # for argparse's "invalid int value: '2.5'"
    return number


_SEED, _COUNT = _checked(int, 0, integer=True), _checked(int, 1, integer=True)


def _or_auto(parse):
    """The parse function of an option that takes a number or 'auto'."""
    def number_or_auto(text):
        return text if text == "auto" else parse(text)
    return number_or_auto


def _dims(text) -> tuple:
    dims = tuple(int(part) for part in text.split(","))
    if len(dims) < 3 or min(dims) < 1:
        raise argparse.ArgumentTypeError(f"must name an order >= 3 tensor, got {dims}")
    return dims


_REQUIRED = object()  # the default of a flag that every call must give

# the files synth --save-tensors writes, each <name>.npy in that directory
_SAVED_TENSORS = ("y", "x_gt", "s_gt", "e_gt", "x_hat", "s_hat")
# the report path of each command: unlike a tensor output, it may not be an input
_REPORT = {"synth": "out", "denoise": "report", "metrics": "out"}

# The model settings of synth and denoise, with no default of their own: a
# given one overrides the command's library preset (see _hyperparams).
_MODEL_OPTIONS = (
    ("init_rank", _or_auto(int), None, "starting rank of every slice, or 'auto'"),
    ("sigma0sq", float, None, "initial sparse variance"),
    ("gamma", _or_auto(float), None, "refinement divisor, or 'auto' for phi"),
    ("tol", float, None, "convergence threshold on the relative change"),
    ("max_iter", int, None, "iteration budget"),
)

# One table per subcommand: its help and its option rows (name, parse
# function or argparse keywords, default, help), from which build_parser()
# makes the flags.  The flag is the name with '-' for '_'.
_OPTIONS = {
    "synth": ("generate a synthetic instance, recover it and score the recovery; "
              "unset model settings: synth.protocol_hyperparams(dims)", (
        ("dims", _dims, _REQUIRED, "comma-separated tensor sizes, e.g. 50,50,5,5"),
        ("rank", int, _REQUIRED, "base rank R of the planted factors"),
        ("rho", float, _REQUIRED, "fraction of outlier entries"),
        ("sigma2", float, _REQUIRED, "dense noise variance"),
        ("seed", _SEED, _REQUIRED, "data seed"),
        ("out", str, _REQUIRED, "report JSON path"),
        ("pattern", str, "desk",
         "'desk', 'uniform:N' or an explicit comma list of per-slice ranks "
         "(default desk)"),
        ("repeats", _COUNT, 1, "rerun with shifted data seeds and average"),
        *_MODEL_OPTIONS,
        ("model_seed", _SEED, 11, "seed of the inference initialization"),
        ("save_tensors", str, None, "directory for the generated/recovered tensors"),
    )),
    "corrupt": ("outlier-corrupt a tensor file, optionally normalize, then add "
                "Gaussian noise", (
        ("input", str, _REQUIRED, "input tensor path"),
        ("out", str, _REQUIRED, "output tensor path"),
        ("seed", _SEED, _REQUIRED, "corruption seed"),
        ("rho", float, 0.2, "fraction of outlier entries"),
        ("sigma2", float, 1e-4, "dense noise variance"),
        ("low", float, 0.0, "lower end of the outlier range"),
        ("high", float, 255.0, "upper end of the outlier range"),
        ("normalize", {"action": "store_true"}, False,
         "map to [0,1] via (x - low)/(high - low) before adding noise"),
    )),
    "denoise": ("recover the low-rank and sparse parts of a tensor; unset model "
                "settings: model.HyperParams' defaults, init_rank 'auto'", (
        ("input", str, _REQUIRED, "observed tensor path"),
        ("out", str, _REQUIRED, "output path for the low-rank estimate"),
        ("seed", _SEED, _REQUIRED, "seed of the inference initialization"),
        ("transform_file", {"nargs": "+"}, None,
         "explicit transform: one NPY matrix per mode 3..d (default: the DFT)"),
        *_MODEL_OPTIONS,
        ("report", str, None, "optional report JSON path"),
        ("sparse_out", str, None, "optional path for the sparse estimate"),
        # parses only because the benchmark's denoise workload passes it
        ("threads", int, 0, "ignored (no-op): slice updates are batched"),
    )),
    "metrics": ("PSNR/SSIM/ERGAS/SAM between two tensor files", (
        ("ref", str, _REQUIRED, "reference tensor path"),
        ("est", str, _REQUIRED, "estimate tensor path"),
        ("out", str, _REQUIRED, "report JSON path"),
        ("window", _COUNT, 8, "SSIM window size"),
        ("scale", _checked(float, 0, open_low=True), 1.0, "ERGAS scale factor"),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmhbrtf",
        description="Robust Bayesian factorization of higher-order tensors: "
                    "decompose a corrupted tensor into low-multi-rank, "
                    "sparse and noise parts.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", metavar="COMMAND")
    # looked up on every call: the benchmark's tracer replaces these names
    commands = {"synth": cmd_synth, "corrupt": cmd_corrupt,
                "denoise": cmd_denoise, "metrics": cmd_metrics}
    for command, (summary, rows) in _OPTIONS.items():
        # no prefix matching: a removed flag must not parse as a longer one
        p = sub.add_parser(command, help=summary, description=summary, allow_abbrev=False)
        for name, parse, default, text in rows:
            required = default is _REQUIRED
            p.add_argument("--" + name.replace("_", "-"),
                           **(parse if isinstance(parse, dict) else {"type": parse}),
                           required=required, default=None if required else default,
                           help=text)
        p.set_defaults(func=commands[command])
    return parser


def _read_args_files(argv) -> tuple:
    """*argv* with each '@PATH' word replaced by the lines of that file, one
    argument per line and none expanded again, and the paths of those files."""
    words, files = [], []
    for word in argv:
        if not word.startswith("@"):
            words.append(word)
            continue
        try:
            with open(word[1:], "r", encoding="utf-8") as fh:
                words += fh.read().splitlines()
        except (OSError, ValueError) as exc:
            raise SettingError(f"cannot read args file {word[1:]!r}: {exc}") from None
        files.append(word[1:])
    return words, files


def _check_outputs(opts: dict, command: str, args_files: list) -> None:
    """Fail before any input is read on an output path that cannot be
    written, on two output files (--save-tensors' six among them) that
    resolve to one path, or on a report path that resolves to an input,
    args files among them."""
    inputs = {os.path.realpath(path): f"args file {path!r}" for path in args_files}
    for key in ("input", "ref", "est", "transform_file"):
        for path in [opts[key]] if isinstance(opts.get(key), str) else opts.get(key) or []:
            inputs.setdefault(os.path.realpath(path), f"--{key.replace('_', '-')} {path!r}")
    files = {}
    for key in ("out", "report", "sparse_out", "save_tensors"):
        path = opts.get(key)
        if path is None:
            continue
        where = f"--{key.replace('_', '-')} {path!r}"
        written = {where: path}
        if key == "save_tensors":
            # the directories are made after the solve, under the nearest
            # existing ancestor, which must therefore be a directory
            existing = os.path.abspath(path)
            while not os.path.exists(existing):
                existing = os.path.dirname(existing)
            if not os.path.isdir(existing):
                raise SettingError(f"{where}: {existing!r} exists and is not a directory")
            written = {f"{where} ({name}.npy)": os.path.join(path, f"{name}.npy")
                       for name in _SAVED_TENSORS}
        elif not path or os.path.isdir(path):
            raise SettingError(f"{where} is not a file path")
        elif not os.path.isdir(os.path.dirname(path) or "."):
            raise SettingError(f"{where}: directory {os.path.dirname(path)!r} does not exist")
        elif key == _REPORT.get(command) and os.path.realpath(path) in inputs:
            raise SettingError(f"{inputs[os.path.realpath(path)]} and {where} name one file")
        for label, file in written.items():
            first = files.setdefault(os.path.realpath(file), label)
            if first != label:
                raise SettingError(f"{first} and {label} name one file")


def _parse_pattern(spec: str, dims: tuple, rank: int) -> np.ndarray:
    if spec == "desk":
        return desk_multirank(dims[2:], rank)
    if spec.startswith("uniform:"):
        try:
            uniform = int(spec.split(":", 1)[1])
        except ValueError:
            raise SettingError(f"bad uniform pattern {spec!r}")
        return uniform_multirank(dims[2:], uniform)
    try:  # SynthConfig checks the count and range of the ranks
        return np.array([int(p) for p in spec.split(",")], dtype=np.int64)
    except ValueError:
        raise SettingError(f"--pattern must be 'desk', 'uniform:N' or a comma list, got {spec!r}")


def _load_input_tensor(path) -> np.ndarray:
    arr = read_tensor(path)
    while arr.ndim < 3:  # pad trailing singleton modes; the library rejects order < 3
        arr = arr[..., np.newaxis]
    return arr


def _hyperparams(opts, preset: HyperParams) -> HyperParams:
    """*preset* with the model settings given: 'auto' keeps the preset's
    init_rank and selects phi for gamma."""
    hp = preset.as_dict()
    for name, *_ in _MODEL_OPTIONS:
        value = opts[name]
        if value is not None and (name, value) != ("init_rank", "auto"):
            hp["sigma0_sq" if name == "sigma0sq" else name] = None if value == "auto" else value
    return HyperParams(**hp)


def cmd_synth(opts: dict, argv: list) -> None:
    dims = opts["dims"]
    pattern = _parse_pattern(opts["pattern"], dims, opts["rank"])
    cfg = SynthConfig(shape=dims, base_rank=opts["rank"], multirank=pattern,
                      rho=opts["rho"], sigma_sq=opts["sigma2"], seed=opts["seed"])
    hp = _hyperparams(opts, protocol_hyperparams(dims))
    saved = {}

    def keep_tensors(cfg_rep, inst, result):
        if opts["save_tensors"] and not saved:
            outdir = opts["save_tensors"]
            os.makedirs(outdir, exist_ok=True)
            tensors = {**vars(inst), **result._asdict()}
            for name in _SAVED_TENSORS:
                write_tensor(os.path.join(outdir, f"{name}.npy"), tensors[name])
            saved["done"] = True

    report = run_benchmark([cfg], hp=hp, model_seed=opts["model_seed"],
                           repeats=opts["repeats"], on_cell=keep_tensors)
    report.command = "synth"
    report.config.update({
        "argv": argv,
        "dims": list(dims),
        "pattern": [int(p) for p in pattern],
    })
    report.save(opts["out"])
    cell = report.results["cells"][0]
    print(f"r_err={cell['r_err_mean']:g} x_err={cell['x_err_mean']:.6e} "
          f"-> {opts['out']}")


def cmd_corrupt(opts: dict, argv: list) -> None:
    rho, sigma2, low, high = opts["rho"], opts["sigma2"], opts["low"], opts["high"]
    check_corruption(rho, sigma2, low, high)
    x = _load_input_tensor(opts["input"])
    y = corrupt_tensor(x, rho=rho, low=low, high=high, sigma_sq=sigma2,
                       seed=opts["seed"], normalize=opts["normalize"])
    write_tensor(opts["out"], y)
    print(f"corrupted {opts['input']} -> {opts['out']}")


def _drop_extra_singletons(m: np.ndarray) -> np.ndarray:
    """*m* without its size-1 axes beyond two: a size-1 mode's matrix is [[c]]."""
    while m.ndim > 2 and 1 in m.shape:
        m = m.squeeze(axis=m.shape.index(1))
    return m


def _build_transform(paths, trailing) -> Transform:
    if not paths:
        return Transform.dft(trailing)
    if len(paths) != len(trailing):
        raise SettingError(
            f"got {len(paths)} transform matrices for {len(trailing)} trailing modes")
    mats = [_drop_extra_singletons(read_tensor(path)) for path in paths]
    for path, m in zip(paths, mats):
        if m.ndim != 2:
            raise SettingError(f"{path}: transform file must hold a matrix")
    return Transform.explicit(mats)


def cmd_denoise(opts: dict, argv: list) -> None:
    _hyperparams(opts, HyperParams(init_rank=1))  # bad settings fail before the read
    y = _load_input_tensor(opts["input"])
    transform = _build_transform(opts["transform_file"], y.shape[2:])
    if transform.trailing != y.shape[2:]:
        raise SettingError(
            f"transform trailing shape {transform.trailing} does not match "
            f"input {y.shape}")
    hp = _hyperparams(opts, HyperParams(init_rank=protocol_hyperparams(y.shape).init_rank))
    t0 = time.perf_counter()
    result = run(y, transform, hp, seed=opts["seed"])
    elapsed = time.perf_counter() - t0
    write_tensor(opts["out"], result.x_hat)
    if opts["sparse_out"]:
        write_tensor(opts["sparse_out"], result.s_hat)
    if opts["report"]:
        results = result.report_fields()
        trace = results.pop("trace")  # the report's own top-level field
        report = RunReport(
            command="denoise",
            config={
                "argv": argv,
                "input": opts["input"],
                "shape": list(y.shape),
                "transform": "explicit" if opts["transform_file"] else "dft",
                "phi": transform.phi,
                "seed": opts["seed"],
                "hyperparams": hp.as_dict(),
            },
            results=results,
            trace=trace,
            timing={"run_s": elapsed},
        )
        report.save(opts["report"])
    why = "" if result.trace.converged else f": {result.trace.message}"
    print(f"denoised {opts['input']} -> {opts['out']} "
          f"(iterations={len(result.trace.records)}, "
          f"converged={result.trace.converged}){why}")


def cmd_metrics(opts: dict, argv: list) -> None:
    ref = _load_input_tensor(opts["ref"])
    est = _load_input_tensor(opts["est"])
    reportable = compute_all(est, ref, window=opts["window"], scale=opts["scale"])
    report = RunReport(
        command="metrics",
        config={"argv": argv, "ref": opts["ref"], "est": opts["est"],
                "window": opts["window"], "scale": opts["scale"]},
        results=reportable.as_dict(),
    )
    report.save(opts["out"])
    print(f"psnr={reportable.psnr:.3f} ssim={reportable.ssim:.4f} "
          f"ergas={reportable.ergas:.4f} sam={reportable.sam:.4f} -> {opts['out']}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        argv, args_files = _read_args_files(sys.argv[1:] if argv is None else argv)
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_help(file=sys.stderr)
            return 2
        opts = vars(args)
        _check_outputs(opts, args.subcommand, args_files)
        args.func(opts, argv)
    except SettingError as exc:
        print(f"lmhbrtf: usage error: {exc}", file=sys.stderr)
        return 2
    except (NumericalBreakdownError, ValueError, OSError) as exc:
        print(f"lmhbrtf: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
