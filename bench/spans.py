"""Span tracing of corrvec's public call boundaries, installed from outside.

``Tracer.install`` wraps every public function and public method defined in
the traced modules, and rebinds each wrapped function in every corrvec
module that imported it by name, so ``from .circuits import run_pure`` in
another module is traced too.  Spans (name, parent, start, end) go into
flat arrays in memory and are written out once, at the end of the run.
Work counters are computed at the same boundaries from the call arguments.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("pauli", "molham", "circuits", "vqe", "solver", "oracle", "greens",
          "store")


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._child = [0.0]
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        nid = self._id(name)
        sid = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(sid)
        self._child.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            inner = self._child.pop()
            self._child[-1] += t1 - t0
            self.span_start[sid] = t0
            self.span_end[sid] = t1
            self.calls[name] += 1
            self.incl[name] += t1 - t0
            self.self_s[name] += t1 - t0 - inner

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is None:
                return tracer.span(name, fn, *args, **kwargs)
            return hook(tracer, name, fn, args, kwargs)

        return traced

    def install(self) -> None:
        """Wrap the public functions and methods of every traced module."""
        pkg = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "corrvec" or n.startswith("corrvec."))]
        for layer in LAYERS:
            mod = sys.modules[f"corrvec.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for other in pkg:
                        if vars(other).get(attr) is obj:
                            setattr(other, attr, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{layer}.{attr}", obj)

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(name, raw))

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "incl_s": dict(self.incl),
                "self_s": dict(self.self_s), "counts": dict(self.counts),
                "spans": len(self.span_start)}


# ---------------------------------------------------------------------------
# work counters, computed at the wrapped boundaries


def _count_gates(key):
    def hook(tr, name, fn, args, kwargs):
        n = len(_arg(args, kwargs, 0, "circ").gates)
        tr.counts["circuits.gate_applications"] += n
        tr.counts[key] += n
        return tr.span(name, fn, *args, **kwargs)
    return hook


def _estimated(tr, n_strings, settings, noise, parts):
    if settings.mode != "sampled" and not noise.enabled:
        return
    levels = 2 if noise.enabled and noise.zne else 1
    n = n_strings * levels * parts
    tr.counts["circuits.strings_estimated"] += n
    if settings.mode == "sampled":
        tr.counts["circuits.shots"] += n * settings.shots


def _sample_hook(tr, name, fn, args, kwargs):
    op = _arg(args, kwargs, 2, "op")
    ident = "I" * op.width
    n = sum(1 for label, _ in op if label != ident)
    _estimated(tr, n, _arg(args, kwargs, 3, "settings"),
               _arg(args, kwargs, 4, "noise"), parts=1)
    return tr.span(name, fn, *args, **kwargs)


def _estimate_sum_hook(tr, name, fn, args, kwargs):
    engine, op = args[0], _arg(args, kwargs, 2, "op")
    _estimated(tr, len(op), engine.settings, engine.noise, parts=2)
    return tr.span(name, fn, *args, **kwargs)


def _rotosolve_hook(tr, name, fn, args, kwargs):
    cost = _arg(args, kwargs, 0, "cost")

    def counted(theta):
        tr.counts["vqe.cost_evals"] += 1
        return cost(theta)

    return tr.span(name, fn, counted, *args[1:], **kwargs)


def _solve_cv_hook(tr, name, fn, args, kwargs):
    before = tr.calls["solver.CorrectionProblem.make_cost"]
    sol = tr.span(name, fn, *args, **kwargs)
    made = tr.calls["solver.CorrectionProblem.make_cost"] - before
    tr.counts["solver.sweeps"] += sol.sweeps
    tr.counts["solver.depth_growths"] += max(0, made - 2)
    if _arg(args, kwargs, 7, "epsilon") is not None:
        tr.counts["solver.resolves"] += 1
    return sol


def _solve_column_hook(tr, name, fn, args, kwargs):
    records = tr.span(name, fn, *args, **kwargs)
    tr.counts["solver.points"] += len(records)
    return records


def _write_hook(tr, name, fn, args, kwargs):
    tr.counts["store.write_text_atomic.bytes"] += len(
        _arg(args, kwargs, 1, "text").encode())
    return tr.span(name, fn, *args, **kwargs)


_HOOKS = {
    "circuits.run_pure": _count_gates("circuits.pure_gates"),
    "circuits.run_density": _count_gates("circuits.density_gates"),
    "circuits.sample_pauli_expectation": _sample_hook,
    "circuits.OverlapEngine.estimate_sum": _estimate_sum_hook,
    "vqe.rotosolve_sweep": _rotosolve_hook,
    "solver.solve_correction_vector": _solve_cv_hook,
    "solver.solve_column": _solve_column_hook,
    "store.write_text_atomic": _write_hook,
}
