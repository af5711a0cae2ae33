"""In-memory span tracing of one ``ascl`` invocation, from outside the package.

``Tracer.install`` replaces each traced function in every ``activescalar``
module namespace that binds it, so callers that looked it up with
``from .grid import advect`` reach the wrapper too.  The numpy and scipy
FFT entry points are wrapped the same way, on their own modules.  Each call
records a span (id, name, start, end, parent id, thread id) in a list; the
spans stay in memory until ``dump`` writes them out after the run.

A span opened on a worker thread with nothing open on that thread takes the
innermost span open on the main thread as its parent: that is the call that
submitted the work.  Self time is a span's duration minus the union of the
intervals its children cover.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np
import numpy.fft
import scipy.fft

# Traced package functions, named by the module that defines them.
TRACED = (
    "grid.advect",
    "grid.divergence_residual",
    "grid.linf_norm",
    "multipliers.apply_drift",
    "multipliers.build_symbol_table",
    "stepping.run",
    "stepping.step",
    "stepping.cfl_dt",
    "diagnostics.record",
    "tangent.lyapunov_run",
    "tangent.tangent_step",
    "tangent.reorthonormalize",
    "experiments.nu_sweep_attractor",
    "experiments.attractor_sample",
    "experiments.semidistance",
    "cli.parse_config",
    "cli.save_checkpoint",
    "cli.write_csv",
    "cli.write_manifest",
)
LAYERS = ("grid", "multipliers", "stepping", "diagnostics", "tangent", "experiments", "cli")

TRANSFORM = "grid.transform"
_COMPLEX_FFTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
_REAL_FORWARD = ("rfft", "rfft2", "rfftn")
_REAL_INVERSE = ("irfft", "irfft2", "irfftn")
ROOT = "bench.main"


class Tracer:
    def __init__(self, run_id: str, lattice_size: int):
        self.run_id = run_id
        self.lattice_size = lattice_size  # N^d, the size of one reference transform
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread)
        self.transforms: dict[int, tuple[float, int]] = {}  # span id -> (weight, bytes)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._local.stack = []  # the constructing thread is the main one

    def _open(self) -> tuple[list, int | None, int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        sid = next(self._ids)
        stack.append(sid)
        return stack, parent, sid

    def _close(self, stack: list, parent, sid: int, name: str, start: float) -> None:
        end = time.perf_counter()
        stack.pop()
        self.spans.append((sid, name, start, end, parent, threading.get_ident()))

    def wrap(self, fn, name: str):
        """``fn`` recording one span named ``name`` per call."""
        def traced(*args, **kwargs):
            stack, parent, sid = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(stack, parent, sid, name, start)

        traced.__wrapped__ = fn
        return traced

    def _wrap_transform(self, fn, real: str | None):
        local = self._local

        def traced(a, *args, **kwargs):
            if getattr(local, "in_transform", False):  # an entry point calling another
                return fn(a, *args, **kwargs)
            local.in_transform = True
            stack, parent, sid = self._open()
            start = time.perf_counter()
            try:
                out = fn(a, *args, **kwargs)
            finally:
                self._close(stack, parent, sid, TRANSFORM, start)
                local.in_transform = False
            self.transforms[sid] = _transform_cost(a, out, real, self.lattice_size)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the traced functions and the FFT entry points in place."""
        for qualified in TRACED:
            module, attr = qualified.split(".")
            original = getattr(importlib.import_module(f"activescalar.{module}"), attr)
            wrapper = self.wrap(original, qualified)
            for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "activescalar"]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        for mod in (numpy.fft, scipy.fft):
            for attr in _COMPLEX_FFTS + _REAL_FORWARD + _REAL_INVERSE:
                real = "forward" if attr in _REAL_FORWARD else "inverse" if attr in _REAL_INVERSE else None
                setattr(mod, attr, self._wrap_transform(getattr(mod, attr), real))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, thread in sorted(self.spans):
                rec = {"run": self.run_id, "id": sid, "name": name, "start": start,
                       "end": end, "parent": parent, "thread": thread}
                if sid in self.transforms:
                    rec["weight"], rec["bytes"] = self.transforms[sid]
                fh.write(json.dumps(rec) + "\n")


def _transform_cost(a, out, real: str | None, lattice_size: int) -> tuple[float, int]:
    """Weight relative to one complex N^d transform, and computed bytes in+out.

    Real transforms count as half of the complex transform of their real
    length; bytes are array sizes, not measured traffic.
    """
    a = np.asarray(a)
    logical = out.size if real != "forward" else a.size
    weight = logical / lattice_size * (0.5 if real else 1.0)
    return weight, int(a.nbytes + out.nbytes)


# ---------------------------------------------------------------------------
# Aggregation


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _layer(name: str) -> str | None:
    head = name.split(".")[0]
    return head if head in LAYERS else None


def layer_metrics(tracer: Tracer, steps: int, threads: int, ckpt_bytes: int) -> dict:
    """Per-layer metrics of one traced invocation (see BENCHMARK.json)."""
    spans = {s[0]: s for s in tracer.spans}
    kids = defaultdict(list)
    for s in tracer.spans:
        if s[4] is not None:
            kids[s[4]].append(s)
    root = next(s for s in tracer.spans if s[1] == ROOT)
    main_thread = root[5]
    run_s = root[3] - root[2]

    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    for sid, name, start, end, _, _ in tracer.spans:
        calls[name] += 1
        total[name] += end - start
        self_s[name] += (end - start) - _union_length((k[2], k[3]) for k in kids[sid])

    def under_step(sid: int) -> bool:
        parent = spans[sid][4]
        while parent is not None:
            if spans[parent][1] == "stepping.step":
                return True
            parent = spans[parent][4]
        return False

    weights = sum(w for w, _ in tracer.transforms.values())
    fft_bytes = sum(b for _, b in tracer.transforms.values())
    step_weights = sum(w for sid, (w, _) in tracer.transforms.items() if under_step(sid))
    attractor = [s for s in tracer.spans if s[1] == "experiments.attractor_sample"]
    member_busy = sum(s[3] - s[2] for s in attractor if s[5] != main_thread)
    reference = sum(s[3] - s[2] for s in attractor if s[5] == main_thread)
    ckpt_self = self_s["cli.save_checkpoint"]

    m = {}
    for name in ("grid.advect", "grid.linf_norm", "multipliers.apply_drift", "stepping.step",
                 "stepping.cfl_dt", "diagnostics.record", "tangent.tangent_step",
                 "tangent.reorthonormalize", "cli.save_checkpoint"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_ms"] = 1e3 * self_s[name]
    for name in ("grid.divergence_residual", "experiments.semidistance", "cli.write_csv"):
        m[f"{name}.self_ms"] = 1e3 * self_s[name]
    m["diagnostics.record.share"] = total["diagnostics.record"] / run_s
    m["grid.transform.count_per_step"] = weights / steps
    m["grid.transform.self_ms"] = 1e3 * self_s[TRANSFORM]
    m["grid.transform.bytes_per_step"] = fft_bytes / steps
    m["stepping.step.transforms_per_call"] = (
        step_weights / calls["stepping.step"] if calls["stepping.step"] else 0.0
    )
    m["multipliers.build_symbol_table.ms"] = 1e3 * total["multipliers.build_symbol_table"]
    m["experiments.attractor_sample.calls"] = calls["experiments.attractor_sample"]
    m["experiments.attractor_sample.ms"] = 1e3 * total["experiments.attractor_sample"]
    m["experiments.parallel_efficiency"] = member_busy / (threads * run_s)
    m["experiments.serial_share"] = reference / run_s
    m["cli.parse_config.ms"] = 1e3 * total["cli.parse_config"]
    m["cli.save_checkpoint.mb_per_s"] = ckpt_bytes / ckpt_self / 1e6 if ckpt_self else 0.0
    m.update(blocking_path(root, kids))
    return m


def blocking_path(root: tuple, kids: dict) -> dict:
    """Self time by layer along the spans that block the result, in ms.

    Below a span, same-thread children block it; of the children on other
    threads, only those of the thread that finishes last do.  Self time of
    the root (time in no traced function) is the uncovered remainder, so
    the layer values and ``layer.uncovered_ms`` add up to the traced run_s.
    """
    by_layer = defaultdict(float)
    todo = [root]
    while todo:
        span = todo.pop()
        children = kids[span[0]]
        blocking = [k for k in children if k[5] == span[5]]
        others = [k for k in children if k[5] != span[5]]
        if others:
            last = max(others, key=lambda k: k[3])[5]
            blocking += [k for k in others if k[5] == last]
        own = (span[3] - span[2]) - _union_length((k[2], k[3]) for k in blocking)
        by_layer[_layer(span[1]) or "uncovered"] += own
        todo.extend(blocking)
    out = {f"layer.{name}.self_ms": 1e3 * by_layer[name] for name in LAYERS}
    out["layer.uncovered_ms"] = 1e3 * by_layer["uncovered"]
    return out
