"""Span tracing of one elemsparse command, and the per-layer figures made from it.

Run as a script, it wraps every public function of every elemsparse layer
(a function named in its defining module's ``__all__``), rebinding it in
each elemsparse namespace that imported it, then runs ``python -m
elemsparse`` with the given arguments and writes the spans it kept in
memory to a JSON file when the command ends::

    python3 perfbench/tracer.py SPANS.json -- sparsify --input X.mtx ...

Each call is a span: name, layer, start, end and parent. In a worker thread
the parent of an outermost span is the main thread's open span, the one
waiting on the pool. ``layer_figures`` turns one command's spans into self
times: each instant of the command is split evenly between the innermost
spans open at that instant, so the self times of all spans add up to the
traced command's run time, and two busy trial threads each get half.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import runpy
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("io", "generate", "matrix", "distributions", "bounds", "sampler", "kernels", "spectral", "experiment", "cli")

# Functions whose self time is reported on its own.
FUNCTIONS = (
    "kernels.alias_build",
    "kernels.alias_draw",
    "kernels.power_iter_diff",
    "kernels.power_iter_dense",
    "io.load_matrix",
    "io.write_matrix_market",
    "sampler.sampling_operator",
)

COUNTERS = (
    "sampler.draws",
    "sampler.nnz",
    "spectral.solves",
    "spectral.iterations",
    "spectral.converged",
    "matrix.cells",
    "io.bytes_read",
    "io.bytes_written",
)


class Recorder:
    """Spans and work counts of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent index or None]
        self.counts = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            local.solves = 0
        return local

    def wrap(self, layer: str, name: str, fn):
        full = f"{layer}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = self._state()
            stack = local.stack
            main = self._main_stack
            if stack:
                parent = stack[-1]
            else:
                parent = main[-1] if main and stack is not main else None
            outermost = all(self.spans[i][1] != layer for i in stack)
            solves_before = local.solves
            with self._lock:
                index = len(self.spans)
                self.spans.append([full, layer, time.perf_counter(), None, parent])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                self._count(local, layer, name, outermost, solves_before, args, result)
                return result
            finally:
                stack.pop()
                self.spans[index][3] = time.perf_counter()

        return traced

    def _count(self, local, layer, name, outermost, solves_before, args, result):
        counts = self.counts
        if local.solves == solves_before:
            # innermost solver call only: a public solver's own result, or a
            # power-iteration kernel's (value, iterations, converged)
            if hasattr(result, "iterations") and hasattr(result, "converged"):
                solve = (result.iterations, result.converged)
            elif layer == "kernels" and name.startswith("power_iter") and isinstance(result, tuple):
                solve = (result[1], result[2])
            else:
                solve = None
            if solve is not None:
                local.solves += 1
                with self._lock:
                    counts["spectral.solves"] += 1
                    counts["spectral.iterations"] += int(solve[0])
                    counts["spectral.converged"] += int(bool(solve[1]))
        if not outermost:
            return
        with self._lock:
            if layer == "sampler" and hasattr(result, "matrix") and hasattr(result, "s"):
                counts["sampler.draws"] += int(result.s)
                counts["sampler.nnz"] += int(result.matrix.nnz)
            elif layer == "matrix" and args and hasattr(args[0], "m") and hasattr(args[0], "n"):
                counts["matrix.cells"] += int(args[0].m) * int(args[0].n)
            elif layer == "io" and name.startswith("load") and args:
                counts["io.bytes_read"] += os.path.getsize(args[0])
            elif layer == "io" and name.startswith("write") and args:
                counts["io.bytes_written"] += os.path.getsize(args[0])

    def dump(self, path) -> None:
        now = time.perf_counter()
        for span in self.spans:
            if span[3] is None:
                span[3] = now
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def install(recorder: Recorder) -> None:
    """Rebind every public function of every layer to a traced wrapper. A
    layer or function a later change removed is simply absent."""
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"elemsparse.{layer}")
        except ImportError:
            continue
    namespaces = [mod for key, mod in sys.modules.items() if key == "elemsparse" or key.startswith("elemsparse.")]
    for layer, mod in modules.items():
        for name in getattr(mod, "__all__", ()):
            fn = getattr(mod, name, None)
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            wrapped = recorder.wrap(layer, name, fn)
            for ns in namespaces:
                for attr in [a for a, v in vars(ns).items() if v is fn]:
                    setattr(ns, attr, wrapped)


def layer_figures(doc: dict) -> dict:
    """Self time per layer and per listed function, calls per layer, and the
    work counts, for one traced command."""
    spans = doc["spans"]
    events = sorted([(s[2], 1, k) for k, s in enumerate(spans)] + [(s[3], 0, k) for k, s in enumerate(spans)])
    self_s = [0.0] * len(spans)
    open_children = [0] * len(spans)
    active = set()
    previous = None
    for t, starts, k in events:
        if active and t > previous:
            leaves = [j for j in active if open_children[j] == 0]
            share = (t - previous) / len(leaves)
            for j in leaves:
                self_s[j] += share
        previous = t
        parent = spans[k][4]
        if starts:
            active.add(k)
            if parent in active:
                open_children[parent] += 1
        else:
            active.discard(k)
            if parent in active:
                open_children[parent] -= 1
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    out.update({f"{layer}.calls": 0 for layer in LAYERS})
    out.update({f"{name}.self_s": 0.0 for name in FUNCTIONS})
    for k, s in enumerate(spans):
        out[f"{s[1]}.self_s"] += self_s[k]
        out[f"{s[1]}.calls"] += 1
        if s[0] in FUNCTIONS:
            out[f"{s[0]}.self_s"] += self_s[k]
    counts = {name: doc["counts"].get(name, 0) for name in COUNTERS}
    out.update(counts)
    out["sampler.distinct_ratio"] = counts["sampler.nnz"] / counts["sampler.draws"] if counts["sampler.draws"] else 0.0
    out["spectral.converged_ratio"] = counts["spectral.converged"] / counts["spectral.solves"] if counts["spectral.solves"] else 0.0
    out["trace.self_sum_s"] = sum(self_s)
    return out


def main(argv) -> None:
    if len(argv) < 2 or argv[1] != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- ELEMSPARSE-ARGUMENTS...")
    recorder = Recorder()
    install(recorder)
    sys.argv = ["elemsparse", *argv[2:]]
    try:
        runpy.run_module("elemsparse", run_name="__main__", alter_sys=True)
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    main(sys.argv[1:])
