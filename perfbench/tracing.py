"""Outside-in tracer: spans around calls into modnls, installed from here.

The package itself is not instrumented. `Tracer.install` replaces module
attributes of modnls with wrappers that record one span per call:
name, start, end, parent span and run id, plus a few counters computed
from the call's arguments or result. Every module binding of a wrapped
function is replaced, so names a module imported directly (for example
`solver.x_increment` or `resonance.fold`) are traced too; `uninstall`
restores the originals. Spans stay in memory until `dump` writes them.
A target the package no longer has is skipped and listed in `missing`;
its metrics read 0.

Counters repeat exactly for a given input because they are derived from
array shapes and call arguments, never from timings.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from pathlib import Path
from statistics import median

import numpy as np
from scipy.fft import next_fast_len

NAME, START, END, PARENT, RUN, ATTRS = range(6)

# per-layer metric -> unit; time metrics are totals over one repetition
METRICS = {
    "paths.make_fbm_path.s": "s",
    "phi._phi_at_times.s": "s",
    "phi._phi_at_times.cells": "count",
    "phi.estimate_irregularity.self_s": "s",
    "phi.build_phi_table.s": "s",
    "fold.dense.calls": "count",
    "fold.dense.s": "s",
    "fold.dense.ops": "count",
    "fold.fft.calls": "count",
    "fold.fft.s": "s",
    "fold.fft.entries": "count",
    "fold.fft.bytes": "bytes_computed",
    "fold.auto.dense_picks": "count",
    "fold.auto.fft_picks": "count",
    "fold.kept_frac": "1",
    "young.x_increment.calls": "count",
    "young.x_increment.self_s": "s",
    "solver.solve_picard.s": "s",
    "solver.sweeps": "count",
    "solver.sweep_s": "s",
    "solver.residual_s": "s",
    "solver.guard_s": "s",
    "spectral.save_state_csv.s": "s",
    "spectral.save_state_csv.bytes": "bytes",
    "cli._load_experiment.self_s": "s",
    "cli.run_command.self_s": "s",
    "resonance.eq21_ratio.self_s": "s",
    "resonance._eq21_weight.s": "s",
    "resonance.eq26_mu_sweep.self_s": "s",
    "resonance._shell_witnesses.s": "s",
    "resonance.enumerate_A.calls": "count",
    "resonance.enumerate_A.s": "s",
    "resonance.verify_counting_partition.self_s": "s",
    "trace.overhead_s": "s",  # traced minus untraced wall_s, set by worker.py
}

# metrics that must repeat exactly between repetitions of one input
COUNT_METRICS = tuple(
    k for k in METRICS
    if k.endswith((".calls", ".ops", ".entries", ".bytes", ".cells", "_picks"))
    or k in ("solver.sweeps", "fold.kept_frac"))


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _phi_cells(attrs, args, kwargs, out):
    """Frequencies x merged segments, the work _phi_at_times integrates."""
    path, a_values, times = (_arg(args, kwargs, i, n)
                             for i, n in enumerate(("path", "a_values", "times")))
    t_req = np.asarray(times, dtype=float)
    grid = path.t_grid
    inner = grid[(grid > 0) & (grid < t_req.max())]
    segments = np.unique(np.concatenate([[0.0], inner, t_req])).size - 1
    n_a = int(np.atleast_1d(a_values).size)
    attrs["cells"] = n_a * int(segments)
    # one complex segment block per frequency chunk (the default chunking)
    chunk = min(n_a, max(1, 4_000_000 // max(1, segments)))
    attrs["array_bytes"] = chunk * int(segments) * 16


def _fold_result(attrs, args, kwargs, out):
    attrs["method"] = _arg(args, kwargs, 2, "method", "auto")
    attrs["produced"] = int(out.table.size)
    out._bench_fold = attrs  # lets crop_spatial report what the caller kept


def _crop_kept(attrs, args, kwargs, out):
    source = getattr(args[0], "_bench_fold", None)
    if source is not None:
        source["kept"] = int(out.table.size)


def _slot_geometry(args, kwargs):
    slots, d = _arg(args, kwargs, 0, "slots"), _arg(args, kwargs, 1, "d")
    N = (slots[0].values.shape[0] - 1) // 2
    return slots, d, N


def _dense_ops(attrs, args, kwargs, out):
    """Sum over slots of nnz x accumulator entries, as fold's auto estimate."""
    slots, d, N = _slot_geometry(args, kwargs)
    ops = 0
    for j, sl in enumerate(slots, start=1):
        acc = (j * d * N * N + 1) * (2 * j * N + 1) ** d
        ops += int(np.count_nonzero(sl.values)) * acc
    attrs["ops"] = ops
    attrs["array_bytes"] = int(out.table.nbytes)


def _fft_size(attrs, args, kwargs, out):
    """Padded-grid entries Q*P^d and the bytes of the arrays fold_fft allocates.

    The byte count is computed from array shapes (embedding, forward
    spectra, running product, inverse transform, cropped copy), not
    measured.
    """
    slots, d, N = _slot_geometry(args, kwargs)
    m = len(slots)
    dn2 = d * N * N
    q_full = dn2 * m + 1
    s_full = 2 * m * N + 1
    Q, P = next_fast_len(q_full), next_fast_len(s_full)
    real = all(not np.iscomplexobj(sl.values) for sl in slots)
    item = 8 if real else 16
    embed = (dn2 + 1) * (2 * N + 1) ** d * item
    spec = Q * P ** (d - 1) * (P // 2 + 1 if real else P) * 16
    inverse = Q * P ** d * item
    crop = q_full * s_full ** d * item
    attrs["entries"] = Q * P ** d
    attrs["bytes"] = m * embed + (2 * m - 1) * spec + inverse + crop
    attrs["array_bytes"] = max(spec, inverse)


def _file_bytes(attrs, args, kwargs, out):
    target = Path(str(_arg(args, kwargs, 1, "filename")))
    attrs["bytes"] = os.path.getsize(target) + os.path.getsize(
        target.with_suffix(".json"))


# (module, attribute, span name, counter hook)
_TARGETS = (
    ("paths", "make_fbm_path", "paths.make_fbm_path", None),
    ("phi", "_phi_at_times", "phi._phi_at_times", _phi_cells),
    ("phi", "estimate_irregularity", "phi.estimate_irregularity", None),
    ("phi", "build_phi_table", "phi.build_phi_table", None),
    ("_fold", "fold", "fold", _fold_result),
    ("_fold", "fold_dense", "fold.dense", _dense_ops),
    ("_fold", "fold_fft", "fold.fft", _fft_size),
    ("young", "x_increment", "young.x_increment", None),
    ("solver", "solve_picard", "solver.solve_picard", None),
    ("solver", "_distance", "solver._distance", None),
    ("solver", "_guard", "solver._guard", None),
    ("spectral", "save_state_csv", "spectral.save_state_csv", _file_bytes),
    ("cli", "_load_experiment", "cli._load_experiment", None),
    ("cli", "run_command", "cli.run_command", None),
    ("resonance", "eq21_ratio", "resonance.eq21_ratio", None),
    ("resonance", "_eq21_weight", "resonance._eq21_weight", None),
    ("resonance", "eq26_mu_sweep", "resonance.eq26_mu_sweep", None),
    ("resonance", "_shell_witnesses", "resonance._shell_witnesses", None),
    ("resonance", "enumerate_A", "resonance.enumerate_A", None),
    ("resonance", "verify_counting_partition",
     "resonance.verify_counting_partition", None),
)

_MODULES = ("_fold", "cli", "paths", "phi", "resonance", "solver",
            "spectral", "young")


class Tracer:
    """In-memory span recorder; `run` tags the spans of one repetition."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.missing: list[str] = []

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run, {}]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(rec[ATTRS], args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        by_name = {}
        for m in _MODULES:
            try:
                by_name[m] = importlib.import_module(f"modnls.{m}")
            except ImportError:
                pass
        mods = list(by_name.values())
        self.missing = []
        for home, attr, name, hook in _TARGETS:
            fn = getattr(by_name.get(home), attr, None)
            if fn is None:
                self.missing.append(f"{home}.{attr}")
                continue
            traced = self._wrap(fn, name, hook)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, traced)
        fold_result = getattr(by_name.get("_fold"), "FoldResult", None)
        crop = getattr(fold_result, "crop_spatial", None)
        if crop is None:
            self.missing.append("_fold.FoldResult.crop_spatial")
            return
        self._patches.append((fold_result, "crop_spatial", crop))
        fold_result.crop_spatial = self._wrap(crop, "fold.crop", _crop_kept)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, fn = self._patches.pop()
            setattr(owner, key, fn)

    def dump(self, filename) -> None:
        with open(filename, "w") as fh:
            for i, (name, t0, t1, parent, run, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0,
                                     "end": t1, "parent": parent, "run": run,
                                     **attrs}) + "\n")

    def largest_array_bytes(self) -> int:
        return max((s[ATTRS].get("array_bytes", 0) for s in self.spans),
                   default=0)

    def metrics(self, run: int) -> dict:
        """Per-layer metrics of one repetition, derived from its spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        children: dict[int, list[int]] = {}
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
                children.setdefault(s[PARENT], []).append(i)
        mine = [i for i, s in enumerate(spans) if s[RUN] == run]
        total: dict[str, float] = {}
        self_t: dict[str, float] = {}
        calls: dict[str, int] = {}
        attr_sum: dict[tuple, float] = {}
        for i in mine:
            name = spans[i][NAME]
            dur = spans[i][END] - spans[i][START]
            total[name] = total.get(name, 0.0) + dur
            self_t[name] = self_t.get(name, 0.0) + dur - child_time[i]
            calls[name] = calls.get(name, 0) + 1
            for key, val in spans[i][ATTRS].items():
                if isinstance(val, (int, float)):
                    attr_sum[name, key] = attr_sum.get((name, key), 0) + val

        out = {}
        for metric in METRICS:
            name, _, kind = metric.rpartition(".")
            if kind == "s":
                out[metric] = total.get(name, 0.0)
            elif kind == "self_s":
                out[metric] = self_t.get(name, 0.0)
            elif kind == "calls":
                out[metric] = calls.get(name, 0)
            elif (name, kind) in attr_sum:
                out[metric] = attr_sum[name, kind]

        folds = [i for i in mine if spans[i][NAME] == "fold"]
        picks = {"fold.dense": 0, "fold.fft": 0}
        produced = kept = 0
        for i in folds:
            attrs = spans[i][ATTRS]
            produced += attrs["produced"]
            kept += attrs.get("kept", attrs["produced"])
            if attrs["method"] == "auto":
                for c in children.get(i, []):
                    if spans[c][NAME] in picks:
                        picks[spans[c][NAME]] += 1
        out["fold.auto.dense_picks"] = picks["fold.dense"]
        out["fold.auto.fft_picks"] = picks["fold.fft"]
        out["fold.kept_frac"] = kept / produced if produced else 0.0

        sweeps = []
        for i in mine:
            if spans[i][NAME] != "solver.solve_picard":
                continue
            edge = spans[i][START]
            for c in children.get(i, []):
                if spans[c][NAME] == "solver._distance":
                    sweeps.append(spans[c][START] - edge)
                    edge = spans[c][END]
        out["solver.sweeps"] = len(sweeps)
        out["solver.sweep_s"] = median(sweeps) if sweeps else 0.0
        out["solver.residual_s"] = total.get("solver._distance", 0.0)
        out["solver.guard_s"] = total.get("solver._guard", 0.0)
        for metric in METRICS:
            out.setdefault(metric, 0)
        return out
