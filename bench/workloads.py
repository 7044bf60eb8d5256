"""The benchmark's workloads: inputs made from a seed, solves and checks.

Each workload has three steps.  ``setup`` makes the inputs (instance
generation and the input files), ``solve`` runs the program on them up
to its scored output, and ``check`` verifies that output outside the
timed region.  Every call into the library goes through a module
attribute (``synth.generate``, ``model.run``, ``cli.main``) so that the
tracer's hooks see it.

The data seed shifts every acceptance seed: ``--seed 0`` reproduces the
acceptance cells of ``tests/test_acceptance.py`` exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from lmhbrtf import cli, metrics, model, npyio, synth
from lmhbrtf.transform import Transform

from tracing import ITERATION_PHASES

# inference seed of the acceptance recovery grids
MODEL_SEED = 11

MODEL_LAYERS = ("model.run", "model.init_state", "transform.forward",
                "transform.inverse", "tensor.to_slice_stack") + tuple(
    "model." + p for p in ITERATION_PHASES)
SETUP_LAYERS = ("synth.generate", "tsvd.t_product", "tsvd.truncate_multi_rank")
CLI_LAYERS = ("npyio.read_tensor", "npyio.write_tensor", "report.save",
              "metrics.compute_all", "cli.denoise", "cli.metrics")


@dataclass
class Solve:
    """One checked solve: its timing, work and the checks it failed."""

    label: str
    solve_s: float
    iters: int
    digest: str
    failed: list
    quality: dict = field(default_factory=dict)


def _digest(x_hat, s_hat, multirank) -> str:
    h = hashlib.sha256()
    for arr in (x_hat, s_hat, np.asarray(multirank, dtype=np.int64)):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _failed(checks) -> list:
    return [name for name, ok in checks if not ok]


class SynthWorkload:
    """Acceptance-grid cells solved by ``model.run`` with the protocol settings."""

    layers = MODEL_LAYERS + SETUP_LAYERS

    def __init__(self, name, why, cells):
        self.name, self.why, self.cells = name, why, cells

    def setup(self, seed, workdir):
        out = []
        for shape, rho, sigma_sq, base_seed in self.cells:
            cfg = synth.SynthConfig(
                shape=shape, base_rank=5,
                multirank=synth.desk_multirank(shape[2:], 5),
                rho=rho, sigma_sq=sigma_sq, seed=base_seed + seed)
            out.append((cfg, synth.generate(cfg)))
        return out

    def solve(self, prepared, seed, workdir):
        out = []
        for cfg, inst in prepared:
            hp = synth.protocol_hyperparams(cfg.shape)
            transform = Transform.dft(cfg.shape[2:])
            t0 = time.perf_counter()
            result = model.run(inst.y, transform, hp, seed=MODEL_SEED)
            out.append((result, time.perf_counter() - t0))
        return out

    def check(self, prepared, raw):
        solves = []
        for (cfg, inst), (result, solve_s) in zip(prepared, raw):
            x_err = synth.x_err(result.x_hat, inst.x_gt)
            r_err = synth.r_err(result.multirank, inst.multirank_gt)
            bound = 1e-3 if cfg.sigma_sq <= 1e-3 else 3e-2
            solves.append(Solve(
                label="x".join(map(str, cfg.shape)) + f" seed {cfg.seed}",
                solve_s=solve_s,
                iters=len(result.trace.records),
                digest=_digest(result.x_hat, result.s_hat, result.multirank),
                failed=_failed([("converged", result.trace.converged),
                                ("r_err == 0", r_err == 0.0),
                                (f"x_err <= {bound:g}", x_err <= bound)]),
                quality={"x_err": x_err, "r_err": r_err}))
        return solves


def _cli(*argv) -> int:
    # the subcommands' progress lines go to stderr: stdout ends in the result
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main([str(a) for a in argv])


class VideoWorkload:
    """Criterion-9 video-like input through ``corrupt``, ``denoise`` and ``metrics``."""

    layers = MODEL_LAYERS + SETUP_LAYERS + CLI_LAYERS
    shape = (60, 60, 3, 10)
    min_gain_db = 10.0

    def __init__(self, name, why):
        self.name, self.why = name, why

    def setup(self, seed, workdir):
        files = {k: os.path.join(workdir, k + ext) for k, ext in (
            ("clean", ".npy"), ("ref", ".npy"), ("y", ".npy"), ("xhat", ".npy"),
            ("shat", ".npy"), ("report", ".json"), ("metrics", ".json"))}
        cfg = synth.SynthConfig(
            shape=self.shape, base_rank=5,
            multirank=synth.uniform_multirank(self.shape[2:], 5),
            rho=0.0, sigma_sq=0.0, seed=900 + seed)
        x_gt = synth.generate(cfg).x_gt
        clean255 = 255.0 * (x_gt - x_gt.min()) / (x_gt.max() - x_gt.min())
        npyio.write_tensor(files["clean"], clean255)
        npyio.write_tensor(files["ref"], clean255 / 255.0)
        rc = _cli("corrupt", "--input", files["clean"], "--out", files["y"],
                  "--seed", 901 + seed, "--rho", 0.2, "--sigma2", 1e-4,
                  "--low", 0, "--high", 255, "--normalize")
        if rc != 0:
            raise RuntimeError(f"lmhbrtf corrupt exited with {rc}")
        return files, seed

    def solve(self, prepared, seed, workdir):
        files, _ = prepared
        rc_denoise = _cli(
            "denoise", "--input", files["y"], "--out", files["xhat"],
            "--sparse-out", files["shat"], "--report", files["report"],
            "--seed", 902 + seed, "--init-rank", 30, "--sigma0sq", 1e-7,
            "--tol", 1e-6, "--max-iter", 400, "--gamma", "auto", "--threads", 1)
        rc_metrics = _cli("metrics", "--ref", files["ref"], "--est", files["xhat"],
                          "--out", files["metrics"]) if rc_denoise == 0 else None
        return rc_denoise, rc_metrics

    def check(self, prepared, raw):
        files, seed = prepared
        rc_denoise, rc_metrics = raw
        label = "x".join(map(str, self.shape)) + f" seed {900 + seed}"
        if rc_denoise != 0 or rc_metrics != 0:
            return [Solve(label, 0.0, 0, "", [f"exit codes {raw} == (0, 0)"])]
        with open(files["report"], encoding="utf-8") as fh:
            rep = json.load(fh)
        with open(files["metrics"], encoding="utf-8") as fh:
            psnr_denoised = json.load(fh)["results"]["psnr"]
        ref, y = np.load(files["ref"]), np.load(files["y"])
        x_hat, s_hat = np.load(files["xhat"]), np.load(files["shat"])
        gain = psnr_denoised - metrics.psnr(y, ref)
        x_err = float(np.linalg.norm(x_hat - ref) / np.linalg.norm(ref))
        return [Solve(
            label=label,
            solve_s=rep["timing"]["run_s"],
            iters=rep["results"]["iterations"],
            digest=_digest(x_hat, s_hat, rep["results"]["multirank"]),
            failed=_failed([(f"psnr gain >= {self.min_gain_db:g} dB",
                             gain >= self.min_gain_db)]),
            quality={"x_err": x_err, "psnr_gain_db": gain})]


WORKLOADS = {w.name: w for w in (
    SynthWorkload(
        "hinoise_o4",
        "high-noise 50x50x5x5 cell: ~1,500 iterations at ~3 columns per slice "
        "after pruning; stresses transforms, update_s/reconstruct_x, "
        "per-iteration bookkeeping and the iteration count",
        [((50, 50, 5, 5), 0.1, 0.1, 203)]),
    VideoWorkload(
        "denoise_video",
        "60x60x3x10 video-like input through the CLI; never prunes (30 columns "
        "on 30 slices), so factor updates dominate; the only npyio/report/"
        "metrics/cli user"),
    SynthWorkload(
        "lownoise_grid",
        "the three low-noise cells, one per order (1-, 2- and 3-axis "
        "transforms); warm-to-pruned transition and the heaviest set-up",
        [((50, 50, 50), 0.1, 1e-4, 102), ((50, 50, 5, 5), 0.1, 1e-4, 202),
         ((50, 50, 3, 3, 3), 0.1, 1e-4, 302)]),
)}
