"""Benchmark of lmhbrtf: time to a converged, checked solution.

Run one workload (untraced; prints the end-to-end metrics):

    python3 bench/run.py --workload hinoise_o4 --seed 0 --seconds 25 --trace 0

The traced run (prints the per-layer metrics and the tracing overhead):

    python3 bench/run.py --workload hinoise_o4 --seed 0 --seconds 25 --trace 1

A run repeats the workload (set-up, solve, scored output) while another
repetition fits into ``--seconds``, and at least twice, so that every
run can check that repeated solves of one seed are bit-identical.  In a
traced run the repetitions alternate untraced and traced.  The last
line of standard output is one JSON object: ``correct``, ``attempted``
and ``failed`` count solves, ``metrics`` holds the medians over the
untraced repetitions (``--trace 0``) or the traced layer metrics
(``--trace 1``).  A full record, with run metadata, is written to
``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import os

# One BLAS thread: at these matrix sizes (at most 60x30) a second OpenBLAS
# thread bought no measurable speed on a 2-core host, and with one thread the
# result bits do not depend on the host's core count.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_REPS = 2      # the determinism check compares two solves of one seed
MIN_SETUPS = 7    # set-up is short, so it is sampled more often

# name -> unit; all lower-is-better.  Mirrors BENCHMARK.json.
END_TO_END = {"ms_per_iter": "ms", "setup_s": "s", "peak_rss_mb": "MB",
              "x_err_max": "ratio"}


def per_layer_units() -> dict:
    from tracing import MODEL_PHASES

    units = {}
    for p in MODEL_PHASES:
        units[f"model.{p}.self_ms_warm"] = "ms"
        if p != "init_state":
            units[f"model.{p}.self_ms_pruned"] = "ms"
        units[f"model.{p}.calls"] = "count"
    units.update({
        "model.run.self_ms_per_iter": "ms", "model.iters_warm": "count",
        "model.iters_pruned": "count", "model.cols_mean": "columns",
        "model.iter_ms_p50": "ms", "model.iter_ms_p90": "ms",
        "transform.forward.ms": "ms", "transform.forward.calls": "count",
        "transform.inverse.ms": "ms", "transform.inverse.calls": "count",
        "transform.bytes_per_call": "bytes_computed",
        "tensor.to_slice_stack.ms": "ms", "tensor.to_slice_stack.calls": "count",
        "tsvd.t_product.ms": "ms", "tsvd.truncate_multi_rank.ms": "ms",
        "synth.generate.ms": "ms",
        "npyio.read_tensor.ms": "ms", "npyio.write_tensor.ms": "ms",
        "npyio.bytes": "bytes", "report.save.ms": "ms",
        "metrics.compute_all.ms": "ms",
        "cli.denoise.self_ms": "ms", "cli.metrics.self_ms": "ms",
        "trace.overhead_s": "s",
    })
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="shift of every acceptance data seed (0 = acceptance)")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library() -> float:
    """Import lmhbrtf from this checkout's src/ and return its import time.

    numpy is imported first and not counted: no change to this repository
    can move numpy's import time, which varies by tens of milliseconds
    from run to run with the host's file cache.
    """
    if not (SRC / "lmhbrtf" / "__init__.py").is_file():
        raise SystemExit(f"bench: no library source under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    t0 = time.perf_counter()
    import lmhbrtf
    elapsed = time.perf_counter() - t0
    if Path(lmhbrtf.__file__).resolve().parent != SRC / "lmhbrtf":
        raise SystemExit(f"bench: imported lmhbrtf from {lmhbrtf.__file__}, "
                         f"not from {SRC}")
    return elapsed


def _blas_threads():
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def metadata() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    src_lines = sum(len(f.read_text().splitlines())
                    for f in sorted((SRC / "lmhbrtf").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "src_lines": src_lines,
    }


def run_repetitions(wl, seed, seconds, trace, workdir):
    from tracing import Tracer, summarize

    reps, last_tracer = [], None
    start = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        tracer = Tracer() if traced else None
        with tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            prepared = wl.setup(seed, workdir)
            t1 = time.perf_counter()
            raw = wl.solve(prepared, seed, workdir)
            t2 = time.perf_counter()
        rep = {"traced": traced, "setup_s": t1 - t0, "wall_s": t2 - t0,
               "solves": wl.check(prepared, raw)}
        if traced:
            rep["layers"] = summarize(tracer.spans, wl.layers)
            last_tracer = tracer
        reps.append(rep)
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break

    setups = [r["setup_s"] for r in reps if not r["traced"]]
    while len(setups) < MIN_SETUPS:
        t0 = time.perf_counter()
        wl.setup(seed, workdir)
        setups.append(time.perf_counter() - t0)
    return reps, setups, last_tracer


def check_determinism(reps) -> None:
    """Fail every solve whose digest differs from the first repetition's."""
    first = {s.label: s.digest for s in reps[0]["solves"]}
    for rep in reps[1:]:
        for s in rep["solves"]:
            if s.digest != first.get(s.label):
                s.failed.append("digest equals repetition 1")


def end_to_end(reps, setups, import_s) -> dict:
    """Medians over untraced repetitions, plus the unchecked extras."""
    plain = [r for r in reps if not r["traced"]]
    solve_s = [sum(s.solve_s for s in r["solves"]) for r in plain]
    iters = [sum(s.iters for s in r["solves"]) for r in plain]
    quality = [s.quality for s in reps[0]["solves"]]
    out = {
        "ms_per_iter": statistics.median(1e3 * t / n if n else float("nan")
                                         for t, n in zip(solve_s, iters)),
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "x_err_max": max((q["x_err"] for q in quality if "x_err" in q),
                         default=float("nan")),
        "solve_s": statistics.median(solve_s),
        "iters": iters[0],
        "wall_s": import_s + statistics.median(r["wall_s"] for r in plain),
        "import_s": import_s,
    }
    if all("r_err" in q for q in quality):
        out["r_err_max"] = max(q["r_err"] for q in quality)
    if all("psnr_gain_db" in q for q in quality):
        out["psnr_gain_db"] = min(q["psnr_gain_db"] for q in quality)
    return out


def traced_layers(reps) -> dict:
    from tracing import merge

    traced = [r for r in reps if r["traced"]]
    layers = merge([r["layers"] for r in traced])
    solve = {t: statistics.median(sum(s.solve_s for s in r["solves"])
                                  for r in reps if r["traced"] == t)
             for t in (False, True)}
    layers["trace.overhead_s"] = solve[True] - solve[False]
    return layers


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    import_s = import_library()
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    workdir = OUT / "work" / wl.name
    workdir.mkdir(parents=True, exist_ok=True)
    reps, setups, tracer = run_repetitions(wl, args.seed, args.seconds,
                                           bool(args.trace), str(workdir))
    check_determinism(reps)
    solves = [s for r in reps for s in r["solves"]]
    failed = [s for s in solves if s.failed]
    meta = metadata()
    for i, rep in enumerate(reps, 1):
        for s in rep["solves"]:
            print(f"rep {i}{' traced' if rep['traced'] else ''} {s.label}: "
                  f"solve {s.solve_s:.3f} s, {s.iters} iterations, "
                  + ", ".join(f"{k} {v:.4g}" for k, v in s.quality.items())
                  + (f"  FAILED: {'; '.join(s.failed)}" if s.failed else ""))

    e2e = end_to_end(reps, setups, import_s)
    e2e["fail_frac"] = len(failed) / len(solves)
    units = dict(END_TO_END, solve_s="s", iters="count", wall_s="s", import_s="s",
                 r_err_max="slices", psnr_gain_db="dB", fail_frac="ratio")
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {units[name]}")
    record = {"workload": wl.name, "why": wl.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "meta": meta,
              "end_to_end": e2e,
              "solves": [dict(vars(s), rep=i) for i, r in enumerate(reps, 1)
                         for s in r["solves"]]}
    if args.trace:
        layers = traced_layers(reps)
        wanted = per_layer_units()
        metrics = {k: {"value": layers[k], "unit": u} for k, u in wanted.items()}
        record["per_layer"] = layers
        record["cols_per_iter"] = [r["layers"]["_cols_per_iter"]
                                   for r in reps if r["traced"]]
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
        tracer.dump(OUT / f"spans-{wl.name}-seed{args.seed}.json", meta)
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    print("meta: " + json.dumps(meta, sort_keys=True))
    with open(OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps({"correct": not failed, "attempted": len(solves),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
