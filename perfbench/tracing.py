"""Span tracing of the plasso layers from outside the package.

While `installed(tracer)` is active, each public function of a plasso layer
module is replaced, at every module attribute through which callers look it
up, by a wrapper that records one span: name, start, end, parent span and
operation id.  Leaving the block puts the original attributes back.  Spans
stay in memory in typed arrays until `Tracer.reduce` turns them into calls,
busy time and self time per span name, and `Tracer.save` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from array import array
from time import perf_counter_ns

import numpy as np

# the layers, one per module; plasso.simulate only makes inputs in set-up
LAYERS = ("cli", "io", "cv", "path", "preprocess", "solver", "model", "extras")
# classes whose construction does real work, traced like functions
TRACED_CLASSES = (("solver", "Workspace"),)
# every namespace a caller may look a layer function up in
LOOKUP_MODULES = ("plasso",) + tuple(f"plasso.{m}"
                                     for m in LAYERS + ("simulate",))

_SPAN_ATTR = "__perfbench_span__"


def _targets() -> dict:
    """id(original) -> (span name, original) for every traced callable."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"plasso.{layer}")
        names = getattr(mod, "__all__", None)
        if names is None:
            names = [n for n in vars(mod) if not n.startswith("_")]
        for attr in names:
            obj = getattr(mod, attr)
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__) \
                    or (layer, attr) in TRACED_CLASSES:
                out[id(obj)] = (f"{layer}.{attr}", obj)
    return out


class Tracer:
    """In-memory span store for one traced pass.

    ``op_id`` is set by the caller before each operation; every span opened
    until the next change carries it.  Calls returning a
    ``(fit, FitDiagnostics)`` pair from ``solver.fit_single_lambda`` also
    record the pass count and KKT maximum of that fit.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._depth: list[int] = []
        self._stack: list[int] = []
        self.op_id = -1
        self.name = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.outer = array("b")
        self.start = array("q")
        self.end = array("q")
        self.fit_op = array("i")
        self.fit_passes = array("q")
        self.fit_kkt = array("d")

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def _observe_fit(self, result):
        if isinstance(result, tuple) and len(result) == 2 \
                and hasattr(result[1], "n_passes"):
            self.fit_op.append(self.op_id)
            self.fit_passes.append(result[1].n_passes)
            self.fit_kkt.append(result[1].kkt.max_violation)

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        depth, stack = self._depth, self._stack
        observe = self._observe_fit if name == "solver.fit_single_lambda" \
            else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.outer.append(depth[nid] == 0)
            self.end.append(0)
            depth[nid] += 1
            stack.append(sid)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter_ns()
                stack.pop()
                depth[nid] -= 1
            if observe is not None:
                observe(result)
            return result

        setattr(traced, _SPAN_ATTR, name)
        return traced

    def _arrays(self) -> dict:
        return {k: np.asarray(getattr(self, k))
                for k in ("name", "parent", "op", "outer", "start", "end")}

    def reduce(self) -> dict:
        """name -> {"calls", "busy_s", "self_s"} over all recorded spans.

        Busy time is the union of a name's span intervals (nested spans of
        the same name count once); self time is each span's duration minus
        the durations of its direct children.
        """
        a = self._arrays()
        dur = (a["end"] - a["start"]).astype(float)
        child = np.zeros(dur.size)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        m = len(self.names)
        calls = np.bincount(a["name"], minlength=m)
        busy = np.bincount(a["name"], weights=dur * a["outer"], minlength=m)
        own = np.bincount(a["name"], weights=dur - child, minlength=m)
        return {n: {"calls": int(calls[i]), "busy_s": float(busy[i]) * 1e-9,
                    "self_s": float(own[i]) * 1e-9}
                for i, n in enumerate(self.names)}

    def calls_per_op(self) -> dict:
        """(op id, span name) -> calls, plus (op id, "passes") -> the
        solver passes of that operation's fits."""
        a = self._arrays()
        m = len(self.names)
        keys, counts = np.unique(a["op"].astype(np.int64) * m + a["name"],
                                 return_counts=True)
        out = {(int(k) // m, self.names[int(k) % m]): int(c)
               for k, c in zip(keys, counts)}
        for op, passes in zip(self.fit_op, self.fit_passes):
            out[(op, "passes")] = out.get((op, "passes"), 0) + passes
        return out

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self._arrays())


def installed_wrappers() -> list:
    """(module, attribute) pairs that currently hold a span wrapper."""
    found = []
    for modname in LOOKUP_MODULES:
        mod = importlib.import_module(modname)
        found += [(modname, attr) for attr, val in vars(mod).items()
                  if hasattr(val, _SPAN_ATTR)]
    return found


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every layer function for the duration of the block."""
    targets = _targets()
    wrappers = {}
    patched = []
    try:
        for modname in LOOKUP_MODULES:
            mod = importlib.import_module(modname)
            for attr, val in list(vars(mod).items()):
                hit = targets.get(id(val))
                if hit is None or hit[1] is not val:
                    continue
                name, fn = hit
                if name not in wrappers:
                    wrappers[name] = tracer.wrap(name, fn)
                patched.append((mod, attr, val))
                setattr(mod, attr, wrappers[name])
        yield tracer
    finally:
        for mod, attr, val in reversed(patched):
            setattr(mod, attr, val)
