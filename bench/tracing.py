"""In-memory span tracer that hooks the library's module-level names.

The benchmark never edits the library.  While a :class:`Tracer` is
active it replaces the names that ``lmhbrtf.model.run``,
``lmhbrtf.synth.generate`` and ``lmhbrtf.cli`` look up at call time with
timing wrappers, and puts the originals back when it leaves.  Each call
becomes one span: name, start, end, parent span and an exact work count
(retained factor columns for model phases, computed bytes for
transforms, array bytes for file IO).  Self time is a span's duration
minus the durations of its direct children.

:func:`summarize` turns the spans of one workload repetition into the
per-layer metrics and fails loudly (:class:`TraceError`) when a hooked
name stopped firing, e.g. because a refactor calls the code by another
route.
"""

from __future__ import annotations

import json
import time

import numpy as np

from lmhbrtf import cli, model, npyio, report, synth, transform

# Phases that run() must call exactly once per iteration; reconstruct_x is
# called from update_s.  init_state runs once, before the first iteration.
ITERATION_PHASES = ("update_u", "update_v", "update_lambda", "update_s",
                    "reconstruct_x", "update_beta", "expected_residual_sq",
                    "update_tau", "compute_fit", "prune_columns")
MODEL_PHASES = ("init_state",) + ITERATION_PHASES

# Layer spans counted only inside model.run: the generator also transforms.
SOLVE_LAYERS = ("transform.forward", "transform.inverse",
                "tensor.to_slice_stack")
# Layers whose inclusive time is reported as a per-run total.
TOTAL_LAYERS = SOLVE_LAYERS + (
    "tsvd.t_product", "tsvd.truncate_multi_rank", "synth.generate",
    "npyio.read_tensor", "npyio.write_tensor", "report.save",
    "metrics.compute_all")
SELF_LAYERS = ("cli.denoise", "cli.metrics")

_COMPLEX_BYTES = np.dtype(np.complex128).itemsize


class TraceError(RuntimeError):
    """A hooked layer did not fire where the program must call it."""


def _cols(args):
    return int(args[0].factors.ranks.sum())


def _transform_bytes(args):
    # complex128 in and complex128 out, whatever dtype the caller passed
    return 2 * _COMPLEX_BYTES * int(np.size(args[1]))


def _hooks():
    """(owner, attribute, span name, pre(args), post(result, args))."""
    hooks = []
    for phase in ITERATION_PHASES:
        hooks.append((model, phase, "model." + phase, _cols, None))
    hooks += [
        (model, "init_state", "model.init_state", None,
         lambda r, a: int(r.factors.ranks.sum())),
        (model, "to_slice_stack", "tensor.to_slice_stack", None, None),
        (transform.Transform, "forward", "transform.forward",
         _transform_bytes, None),
        (transform.Transform, "inverse", "transform.inverse",
         _transform_bytes, None),
        (synth, "generate", "synth.generate", None, None),
        (synth, "t_product", "tsvd.t_product", None, None),
        (synth, "truncate_multi_rank", "tsvd.truncate_multi_rank", None, None),
        (report.RunReport, "save", "report.save", None, None),
        (cli, "compute_all", "metrics.compute_all", None, None),
        (cli, "cmd_denoise", "cli.denoise", None, None),
        (cli, "cmd_metrics", "cli.metrics", None, None),
    ]
    run_post = lambda r, a: len(r.trace.records)  # noqa: E731
    read_post = lambda r, a: int(r.nbytes)  # noqa: E731
    write_pre = lambda a: int(np.asarray(a[1]).nbytes)  # noqa: E731
    for owner in (model, cli):
        hooks.append((owner, "run", "model.run", None, run_post))
    for owner in (npyio, cli):
        hooks.append((owner, "read_tensor", "npyio.read_tensor", None, read_post))
        hooks.append((owner, "write_tensor", "npyio.write_tensor", write_pre, None))
    return hooks


class Tracer:
    """Records spans while used as a context manager.

    Spans are lists ``[name, start, end, parent, info]``; a span's id is
    its index in :attr:`spans` and ``parent`` is -1 at the top level.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, original, name, pre, post):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   pre(args) if pre else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post:
                rec[4] = post(result, args)
            return result

        traced.__wrapped__ = original
        return traced

    def __enter__(self):
        for owner, attr, name, pre, post in _hooks():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, pre, post))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def dump(self, path, meta: dict) -> None:
        rows = [{"id": i, "name": s[0], "start": s[1], "end": s[2],
                 "parent": s[3], "info": s[4]} for i, s in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": rows}, fh)
            fh.write("\n")


def _self_times(spans):
    self_t = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_t[s[3]] -= s[2] - s[1]
    return self_t


def _check_run(run_id, spans, children):
    """Split one model.run span into iterations and check every phase fired.

    Returns the (start, end) time of each iteration, the retained column
    count at the start of each iteration and the initial column count.
    """
    kids = children.get(run_id, [])
    names = [spans[k][0] for k in kids]
    if names[:2] != ["model.init_state", "model.reconstruct_x"]:
        raise TraceError("model.init_state and the initial model.reconstruct_x "
                         f"did not open model.run: {names[:2]}")
    starts = [i for i, n in enumerate(names) if n == "model.update_u"]
    if len(starts) != spans[run_id][4]:
        raise TraceError(f"model.run reported {spans[run_id][4]} iterations "
                         f"but model.update_u fired {len(starts)} times")
    want = sorted("model." + p for p in ITERATION_PHASES)
    bounds, cols = [], []
    for n, first in enumerate(starts):
        last = starts[n + 1] if n + 1 < len(starts) else len(kids)
        got = names[first:last] + [
            spans[c][0] for k in kids[first:last] if spans[k][0] == "model.update_s"
            for c in children.get(k, []) if spans[c][0] == "model.reconstruct_x"]
        if sorted(got) != want:
            raise TraceError(f"iteration {n + 1}: expected each of "
                             f"{ITERATION_PHASES} once, got {sorted(got)}")
        end = spans[kids[last]][1] if last < len(kids) else spans[run_id][2]
        bounds.append((spans[kids[first]][1], end))
        cols.append(spans[kids[first]][4])
    return bounds, cols, spans[kids[0]][4]


def _is_under(span_id, ancestor_name, spans):
    p = spans[span_id][3]
    while p >= 0:
        if spans[p][0] == ancestor_name:
            return True
        p = spans[p][3]
    return False


def summarize(spans, expected_layers) -> dict:
    """Per-layer metrics of the spans of one workload repetition.

    *expected_layers* names the spans this workload must produce; any
    that did not fire raise :class:`TraceError`.
    """
    self_t = _self_times(spans)
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)
    fired = {s[0] for s in spans}
    missing = sorted(set(expected_layers) - fired)
    if missing:
        raise TraceError(f"hooked layers never fired: {missing}")

    out = {}
    warm = {p: [] for p in MODEL_PHASES}
    pruned = {p: [] for p in MODEL_PHASES}
    iter_ms, cols_all = [], []
    iters_warm = iters_pruned = 0
    run_self = 0.0
    for rid, s in enumerate(spans):
        if s[0] != "model.run":
            continue
        bounds, cols, init_cols = _check_run(rid, spans, children)
        run_self += self_t[rid]
        iter_ms += [1e3 * (b - a) for a, b in bounds]
        cols_all += cols
        iters_warm += sum(c == init_cols for c in cols)
        iters_pruned += sum(c != init_cols for c in cols)
        stack = list(children.get(rid, []))
        while stack:
            k = stack.pop()
            name = spans[k][0]
            if name.startswith("model."):
                phase = name[len("model."):]
                cols_k = spans[k][4]
                (warm if cols_k == init_cols else pruned)[phase].append(self_t[k])
            stack.extend(children.get(k, []))

    for p in MODEL_PHASES:
        w, q = warm[p], pruned[p]
        out[f"model.{p}.self_ms_warm"] = 1e3 * sum(w) / len(w) if w else 0.0
        if p != "init_state":
            out[f"model.{p}.self_ms_pruned"] = 1e3 * sum(q) / len(q) if q else 0.0
        out[f"model.{p}.calls"] = len(w) + len(q)
    n_iter = iters_warm + iters_pruned
    out["model.run.self_ms_per_iter"] = 1e3 * run_self / n_iter
    out["model.iters_warm"] = iters_warm
    out["model.iters_pruned"] = iters_pruned
    out["model.cols_mean"] = float(np.mean(cols_all))
    out["model.iter_ms_p50"] = float(np.percentile(iter_ms, 50))
    out["model.iter_ms_p90"] = float(np.percentile(iter_ms, 90))

    totals = {name: [0.0, 0, 0] for name in TOTAL_LAYERS + SELF_LAYERS}
    for i, s in enumerate(spans):
        acc = totals.get(s[0])
        if acc is None:
            continue
        if s[0] in SOLVE_LAYERS and not _is_under(i, "model.run", spans):
            continue
        acc[0] += self_t[i] if s[0] in SELF_LAYERS else s[2] - s[1]
        acc[1] += 1
        acc[2] += s[4] or 0
    for name in TOTAL_LAYERS:
        out[f"{name}.ms"] = 1e3 * totals[name][0]
    for name in SELF_LAYERS:
        out[f"{name}.self_ms"] = 1e3 * totals[name][0]
    for name in SOLVE_LAYERS:
        out[f"{name}.calls"] = totals[name][1]
    fwd, inv = totals["transform.forward"], totals["transform.inverse"]
    out["transform.bytes_per_call"] = (fwd[2] + inv[2]) / max(1, fwd[1] + inv[1])
    out["npyio.bytes"] = totals["npyio.read_tensor"][2] + totals["npyio.write_tensor"][2]
    out["_cols_per_iter"] = cols_all
    return out


def merge(summaries) -> dict:
    """Average per-layer metrics over several traced repetitions.

    Counts are identical in every repetition of one seed, so they stay
    exact integers.
    """
    merged = {}
    for key, value in summaries[0].items():
        if key.startswith("_"):
            continue
        if isinstance(value, int):
            merged[key] = value
        else:
            merged[key] = sum(s[key] for s in summaries) / len(summaries)
    return merged
