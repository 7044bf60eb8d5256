"""The benchmark's tracer contract: every layer it hooks still fires.

``bench/tracing.py`` times the library by replacing module-level names
(``synth.t_product``, ``model.update_u``, ...) while a ``Tracer`` is
active, and ``summarize`` raises when an expected layer never fired.  A
refactor that calls one of these by another route would break every
traced benchmark run; these tests catch it, the second by running the
CLI workload once.  Nothing under ``bench/`` is edited: only ``tracing`` and
``workloads`` are imported from it.
"""

import sys
from pathlib import Path

import pytest

from lmhbrtf import model, synth
from lmhbrtf.model import HyperParams
from lmhbrtf.transform import Transform

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return tracing, workloads


def test_generate_and_run_fire_every_hooked_layer(bench_modules):
    tracing, workloads = bench_modules
    cfg = synth.SynthConfig(shape=(12, 10, 2, 3), base_rank=2,
                            multirank=synth.uniform_multirank((2, 3), 2),
                            rho=0.05, sigma_sq=1e-4, seed=0)
    hp = HyperParams(init_rank=3, tol=1e-12, max_iter=3)
    with tracing.Tracer() as tracer:
        inst = synth.generate(cfg)
        model.run(inst.y, Transform.dft(cfg.shape[2:]), hp, seed=11)
    out = tracing.summarize(tracer.spans,
                            workloads.MODEL_LAYERS + workloads.SETUP_LAYERS)
    assert out["model.update_u.calls"] == 3
    # the half transforms are reached through Transform.forward/inverse,
    # where the tracer wraps them
    assert out["transform.forward.calls"] == 5
    assert out["transform.inverse.calls"] == 4


def test_denoise_video_workload_runs_traced(bench_modules, tmp_path):
    # the benchmark's own corrupt/denoise/metrics command lines, hooks included
    tracing, workloads = bench_modules
    w = workloads.WORKLOADS["denoise_video"]
    with tracing.Tracer() as tracer:
        prepared = w.setup(0, str(tmp_path))
        raw = w.solve(prepared, 0, str(tmp_path))
    solves = w.check(prepared, raw)
    assert [s.failed for s in solves] == [[]]
    tracing.summarize(tracer.spans, w.layers)
