"""Outside-in tracer: wraps the public functions of every densemble module.

Spans are recorded from the benchmark's own code, without touching the
program.  Several modules import public functions by name (``from .model
import forward``), so wrapping only the defining module would miss those
calls; :meth:`Tracer.install` therefore rebinds *every* module attribute
that holds a wrapped function and :meth:`Tracer.restore` puts each one
back.

A span is ``[name, start_ns, end_ns, parent_index, child_ns]``; spans are
kept in memory and written out when the run ends.  Self time is a span's
duration minus the time its child spans cover (children are disjoint:
the program is single-threaded).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "densemble"
# Every module but the CLI, whose commands the benchmark times as root spans.
MODULES = ("autodiff", "fourier", "signals", "storage", "model", "decorrelation",
           "attacks", "ensemble", "config")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.tensors = 0  # Tensor constructions seen while active
        self._stack: list[int] = []
        self._suspended = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def suspended(self):
        """Run benchmark-side helper code without recording it."""
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    # -- wrapping --------------------------------------------------------
    def wrap(self, fn, name, pre=None, post=None):
        """`name` is a string or a function of the call's args giving one;
        `pre(args, kwargs)` runs before the span opens and
        `post(args, kwargs, result)` after it closes, both untraced."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._suspended:
                return fn(*args, **kwargs)
            if pre is not None:
                with tracer.suspended():
                    pre(args, kwargs)
            idx = tracer._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if post is not None:
                with tracer.suspended():
                    post(args, kwargs, result)
            return result

        return traced

    def _rebind(self, original, replacement) -> None:
        """Point every densemble module attribute bound to `original` at
        `replacement`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self, hooks: dict[str, dict]) -> None:
        """Wrap every public function of every densemble module.

        `hooks` maps a qualified name (``"model.forward"``) to optional
        ``name``/``pre``/``post`` arguments of :meth:`wrap`.
        """
        from densemble import autodiff

        for short in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                    continue
                qual = f"{short}.{attr}"
                opts = hooks.get(qual, {})
                wrapper = self.wrap(fn, opts.get("name", qual), opts.get("pre"), opts.get("post"))
                self._rebind(fn, wrapper)

        tensor = autodiff.Tensor
        backward = tensor.backward
        self._patches.append((tensor, "backward", backward))
        tensor.backward = self.wrap(backward, "autodiff.backward")

        init = tensor.__init__
        tracer = self

        def counting_init(obj, *args, **kwargs):
            if not tracer._suspended:
                tracer.tensors += 1
            init(obj, *args, **kwargs)

        self._patches.append((tensor, "__init__", init))
        tensor.__init__ = counting_init

    def restore(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    # -- results ---------------------------------------------------------
    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms and self ms."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for name, start, end, _parent, child in self.spans:
            agg = out[name]
            agg["calls"] += 1
            agg["ms"] += (end - start) / 1e6
            agg["self_ms"] += (end - start - child) / 1e6
        return out

    def self_ms_under(self, root: str) -> dict[str, float]:
        """Self time of every span inside a `root` span (the root's own
        self time included), summed by name."""
        inside: dict[int, bool] = {}
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, child) in enumerate(self.spans):
            flag = name == root or (parent >= 0 and inside[parent])
            inside[i] = flag
            if flag:
                out[name] += (end - start - child) / 1e6
        return dict(out)

    def write(self, path: str, meta: dict) -> None:
        """All spans as JSON lines (gzip), after one metadata line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with gzip.open(tmp, "wt") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "meta": meta}) + "\n")
            for i, (name, start, end, parent, _child) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "run_id": self.run_id}) + "\n")
        os.replace(tmp, path)
