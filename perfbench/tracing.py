"""Span tracing of npk's layers, installed from outside the package.

Each layer is one module of npk.  Its entry points are the names in the
module's ``__all__`` (plus the named entry points in ``NAMED``): public
functions, and the public methods, arithmetic operators and constructors
of its public classes.  ``install`` replaces each of them by a wrapper,
rebinding the name in every ``npk.*`` namespace that imported it (modules
bind names with ``from .points import lift``), and patching methods on
their classes.

A wrapper opens a span only where a call crosses from one layer into
another, so recursion inside ``expr.diff`` or calls within ``weil`` stay
inside one span.  A named entry point also opens a span when it is
called from another entry point of its own layer, so that its self time
is its own; a direct recursive call does not.  Every call through a
wrapper is counted.  Spans are kept in flat in-memory arrays and written
out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("weil", "expr", "points", "functions", "fields", "forms", "cohomology", "sampling", "checks")

# reported entry point -> (module, attribute path)
NAMED = {
    "weil.build_algebra": ("weil", "build_algebra"),
    "weil.derivation_basis": ("weil", "derivation_basis"),
    "weil.is_derivation": ("weil", "is_derivation"),
    "weil.mul": ("weil", "AElement.__mul__"),
    "weil.invert": ("weil", "AElement.invert"),
    "expr.diff": ("expr", "diff"),
    "expr.evaluate": ("expr", "evaluate"),
    "expr.expr_key": ("expr", "expr_key"),
    "points.lift": ("points", "lift"),
    "points.lift_map": ("points", "lift_map"),
    "functions.afn_build": ("functions", "AFunction.__init__"),
    "functions.afn_eval": ("functions", "AFunction.evaluate"),
    "functions.tangent_apply": ("functions", "tangent_apply"),
    "fields.apply": ("fields", "AVectorField.apply"),
    "fields.apply_fn": ("fields", "AVectorField.apply_fn"),
    "fields.bracket": ("fields", "bracket"),
    "forms.contract": ("forms", "AForm.contract"),
    "forms.evaluate": ("forms", "AForm.evaluate"),
    "forms.d_a": ("forms", "exterior_derivative"),
    "forms.palais_eval": ("forms", "palais_eval"),
    "forms.wedge": ("forms", "wedge"),
    "cohomology.homotopy_poly": ("cohomology", "homotopy_poly"),
    "cohomology.a_primitive": ("cohomology", "a_primitive"),
}

# Operators and constructors wrapped on public classes besides public methods.
_DUNDERS = ("__init__", "__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__truediv__", "__call__")

BENCH = "bench"  # the benchmark's own time, outside every layer


class Tracer:
    """In-memory span store: one row per span (name id, start, end, parent row)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.stack: list[tuple[int, str, int]] = []  # (row, layer, name id)
        self.errors: dict[str, int] = {}
        self.terms_in = 0
        self.terms_kept = 0

    def name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        return len(self.names) - 1

    def wrap(self, fn, name: str, layer: str, named: bool):
        nid = self.name_id(name, layer)
        stack, calls, errors = self.stack, self.calls, self.errors
        rows, starts, ends, parents = self.span_name, self.span_start, self.span_end, self.span_parent
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            top = stack[-1] if stack else None
            if top is not None and top[1] == layer and (not named or top[2] == nid):
                return fn(*args, **kwargs)
            row = len(rows)
            rows.append(nid)
            parents.append(top[0] if top is not None else -1)
            ends.append(0.0)
            stack.append((row, layer, nid))
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if top is None or top[1] != layer:
                    errors[layer] = errors.get(layer, 0) + 1
                raise
            finally:
                ends[row] = clock()
                stack.pop()

        return wrapper

    def span(self, name: str):
        """Reusable context manager for a span of the benchmark's own time; not re-entrant."""
        return _BenchSpan(self, self.name_id(name, BENCH))

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
        }

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-span self time: duration minus the time its child spans cover."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        return a["name"], dur - child

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), layers=np.array(self.layer_of), **self.arrays())

    def summary(self) -> dict:
        """Self time and span count per layer, calls and self time per entry point."""
        name, self_t = self.self_times()
        n = len(self.names)
        per_name = np.bincount(name, weights=self_t, minlength=n)
        spans = np.bincount(name, minlength=n)
        out: dict[str, float] = {}
        for layer in LAYERS + (BENCH,):
            ids = [i for i in range(n) if self.layer_of[i] == layer]
            out[f"{layer}.self_s"] = float(per_name[ids].sum()) if ids else 0.0
            out[f"{layer}.calls"] = int(spans[ids].sum()) if ids else 0
            if layer != BENCH:
                out[f"{layer}.errors"] = self.errors.get(layer, 0)
        for i, label in enumerate(self.names):
            if label in NAMED:
                out[f"{label}.calls"] = self.calls[i]
                out[f"{label}.self_s"] = float(per_name[i])
        out["functions.afn_build.terms_in"] = self.terms_in
        out["functions.afn_build.kept_ratio"] = self.terms_kept / self.terms_in if self.terms_in else 0.0
        return out


class _BenchSpan:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        t = self.tracer
        t.calls[self.nid] += 1
        top = t.stack[-1] if t.stack else None
        self.row = len(t.span_name)
        t.span_name.append(self.nid)
        t.span_parent.append(top[0] if top is not None else -1)
        t.span_end.append(0.0)
        t.stack.append((self.row, BENCH, self.nid))
        t.span_start.append(time.perf_counter())
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.span_end[self.row] = time.perf_counter()
        t.stack.pop()
        return False


def _counting_init(tracer: Tracer, init):
    """AFunction.__init__ that also counts the terms passed in and the terms kept."""

    @functools.wraps(init)
    def counted(self, algebra, chart, terms=()):
        terms = list(terms)
        init(self, algebra, chart, terms)
        tracer.terms_in += len(terms)
        tracer.terms_kept += len(self.terms)

    return counted


def _targets(mod, expr_node: type) -> list[tuple[object, str, str]]:
    """(owner, attribute, label) for every entry point defined in module mod.

    Expression nodes are skipped: expr builds them in bulk, and wrapping them
    would only add overhead.
    """
    layer = mod.__name__.rsplit(".", 1)[1]
    out = []
    names = set(getattr(mod, "__all__", ())) | {path.split(".")[0] for m, path in NAMED.values() if m == layer}
    for name in sorted(names):
        obj = getattr(mod, name, None)
        if obj is None or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((mod, name, f"{layer}.{name}"))
        elif inspect.isclass(obj) and not issubclass(obj, (BaseException, expr_node)):
            for attr, value in vars(obj).items():
                if attr.startswith("_") and attr not in _DUNDERS:
                    continue
                if inspect.isfunction(value) or isinstance(value, staticmethod):
                    out.append((obj, attr, f"{layer}.{name}.{attr}"))
    return out


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points and rebind them throughout npk."""
    modules = {layer: importlib.import_module(f"npk.{layer}") for layer in LAYERS}
    namespaces = [importlib.import_module(f"npk.{m}") for m in ("cli", "literals")]
    namespaces += list(modules.values()) + [importlib.import_module("npk")]
    labels = {f"{m}.{path}": label for label, (m, path) in NAMED.items()}
    replaced: dict[int, object] = {}
    for layer, mod in modules.items():
        for owner, attr, label in _targets(mod, modules["expr"].Expr):
            label = labels.get(label, label)
            named = label in NAMED
            raw = vars(owner)[attr] if inspect.isclass(owner) else getattr(owner, attr)
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            if label == "functions.afn_build":
                fn = _counting_init(tracer, fn)
            wrapped = tracer.wrap(fn, label, layer, named)
            setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)
            if not inspect.isclass(owner):
                replaced[id(raw)] = wrapped
    # rebind module-level functions in every namespace that imported them
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            new = replaced.get(id(value))
            if new is not None:
                setattr(ns, attr, new)
