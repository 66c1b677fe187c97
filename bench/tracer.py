"""Spans and counters installed on the library from the benchmark side.

``Tracer.install`` wraps every public module-level function of each layer
in a span recorder and rebinds the wrapper wherever a ``frobsym.*`` module
namespace holds the same function object: ``battery`` imports most names
directly (``from .symplectic import integrate``), so patching only the
defining module would miss those calls.  Callables handed to ``numdiff``
are wrapped to count field evaluations, and ``PhasePoint`` constructions
and ``Observable.gradient`` calls are counted on the classes.

A span is ``[name, start_ns, end_ns, parent index, battery id, tag]``.
Spans stay in memory until ``write`` dumps them after the run; a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from collections import defaultdict

LAYERS = ("paracomplex", "statmanifold", "geometry", "frobenius",
          "symplectic", "poisson", "numdiff", "battery")
JACOBI_SITES = (64, 256, 1024, 4096)

# span tags: the argument a per-layer metric is normalised by
_TAGS = {
    "symplectic.integrate": lambda a, k: k.get("steps", a[3] if len(a) > 3 else None),
    "poisson.lattice_jacobi_residual": lambda a, k: a[0].sites,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.battery = None
        self._stack = []
        self._undo = []

    # -- recording -----------------------------------------------------

    def span(self, name: str, fn, tag=None):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter_ns, self

        def wrapper(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, tracer.battery,
                      tag(args, kwargs) if tag else None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _numdiff(self, name: str, fn):
        """Span plus evaluation counting on the callable the caller hands in.

        numdiff's own helpers pass an already-counted callable down (e.g.
        derivative_tensor -> central_partial), which is not wrapped twice.
        """
        spanned = self.span(name, fn)
        counting = self._counting_field

        def wrapper(field, *args, **kwargs):
            if callable(field) and not getattr(field, "_bench_counted", False):
                field = counting(field)
            return spanned(field, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_field(self, field):
        counts = self.counts

        def counted(*args, **kwargs):
            counts["numdiff.evals"] += 1
            return field(*args, **kwargs)

        counted._bench_counted = True
        return counted

    # -- installation --------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import frobsym.battery  # noqa: F401  (loads every layer)
        from frobsym.symplectic import Observable, PhasePoint, Trajectory

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"frobsym.{layer}"]
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                if layer == "numdiff":
                    wrappers[obj] = self._numdiff(name, obj)
                else:
                    wrappers[obj] = self.span(name, obj, _TAGS.get(name))
        for modname, module in list(sys.modules.items()):
            if modname != "frobsym" and not modname.startswith("frobsym."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(module, attr, wrappers[obj])
        self._set(PhasePoint, "__post_init__",
                  self.counter("symplectic.phasepoint_inits", PhasePoint.__post_init__))
        self._set(Observable, "gradient",
                  self.counter("symplectic.gradient_calls", Observable.gradient))
        self._set(Trajectory, "records",
                  self.span("symplectic.Trajectory.records", Trajectory.records))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path, meta: dict):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta) + "\n")
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


# -- summaries -----------------------------------------------------------


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> list[int]:
    """Self time of each span in ns: its duration minus its children's."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_breakdown(spans) -> dict:
    """Self time per layer in ms; the root 'bench' spans hold the untraced
    remainder of each battery."""
    out = defaultdict(float)
    for record, own in zip(spans, self_times(spans)):
        out[_layer(record[0])] += own / 1e6
    return dict(out)


def _growth(points: dict) -> float:
    """Least-squares slope of log(time) against log(sites)."""
    xs = [math.log(s) for s in points]
    ys = [math.log(t) for t in points.values()]
    if len(xs) < 2:
        return 0.0
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def per_layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers for one traced pass; a layer the workload does not
    reach reads 0."""
    spans, counts = tracer.spans, tracer.counts
    calls = defaultdict(int)
    total_ns = defaultdict(int)
    for name, start, end, _, _, _ in spans:
        calls[name] += 1
        total_ns[name] += end - start
    layer_ms = layer_breakdown(spans)

    def mean(name, scale):
        return total_ns[name] / calls[name] / scale if calls[name] else 0.0

    def layer_calls(layer):
        return sum(n for name, n in calls.items() if _layer(name) == layer)

    def layer_ns(layer):
        return sum(t for name, t in total_ns.items() if _layer(name) == layer)

    steps = sum(rec[5] for rec in spans if rec[0] == "symplectic.integrate")
    children = defaultdict(lambda: defaultdict(int))
    for name, _, _, parent, _, _ in spans:
        if parent >= 0:
            children[parent][name] += 1
    newton = sum(children[i]["statmanifold.dual_coordinates"] - 1
                 for i, rec in enumerate(spans)
                 if rec[0] == "statmanifold.natural_from_dual")
    products = calls["geometry.cone_multiply"]
    christoffel_in_products = sum(children[i]["geometry.christoffel"]
                                  for i, rec in enumerate(spans)
                                  if rec[0] == "geometry.cone_multiply")
    jacobi = defaultdict(list)
    for name, start, end, _, _, sites in spans:
        if name == "poisson.lattice_jacobi_residual":
            jacobi[sites].append(end - start)
    jacobi_us = {s: sum(v) / len(v) / 1e3 for s, v in jacobi.items()}
    evals = counts["numdiff.evals"]
    para_calls = layer_calls("paracomplex")

    return {
        "symplectic.steps": steps,
        "symplectic.us_per_step": total_ns["symplectic.integrate"] / steps / 1e3 if steps else 0.0,
        "symplectic.gradient_calls": counts["symplectic.gradient_calls"],
        "symplectic.phasepoint_inits": counts["symplectic.phasepoint_inits"],
        "symplectic.records_ms": total_ns["symplectic.Trajectory.records"] / 1e6,
        "symplectic.self_ms": layer_ms.get("symplectic", 0.0),
        "statmanifold.potential_eval.calls": calls["statmanifold.potential_eval"],
        "statmanifold.potential_eval.us_per_call": mean("statmanifold.potential_eval", 1e3),
        "statmanifold.cumulant_tensor.us_per_call": mean("statmanifold.cumulant_tensor", 1e3),
        "statmanifold.newton_iters": newton,
        "statmanifold.self_ms": layer_ms.get("statmanifold", 0.0),
        "numdiff.evals": evals,
        "numdiff.us_per_eval": layer_ms.get("numdiff", 0.0) * 1e3 / evals if evals else 0.0,
        "numdiff.self_ms": layer_ms.get("numdiff", 0.0),
        "geometry.christoffel.calls": calls["geometry.christoffel"],
        "geometry.christoffel.us_per_call": mean("geometry.christoffel", 1e3),
        "geometry.christoffel_per_product": christoffel_in_products / products if products else 0.0,
        "geometry.riemann_tensor.us_per_call": mean("geometry.riemann_tensor", 1e3),
        "geometry.self_ms": layer_ms.get("geometry", 0.0),
        "frobenius.find_idempotents_rank2.ms_per_call": mean("frobenius.find_idempotents_rank2", 1e6),
        "frobenius.self_ms": layer_ms.get("frobenius", 0.0),
        "paracomplex.calls": para_calls,
        "paracomplex.us_per_call": layer_ns("paracomplex") / para_calls / 1e3 if para_calls else 0.0,
        "paracomplex.self_ms": layer_ms.get("paracomplex", 0.0),
        **{f"poisson.jacobi_us.{s}": jacobi_us.get(s, 0.0) for s in JACOBI_SITES},
        "poisson.jacobi_growth": _growth({s: t for s, t in jacobi_us.items() if s >= 64}),
        "poisson.bracket_suite_ms": mean("poisson.bracket_property_residuals", 1e6),
        "poisson.self_ms": layer_ms.get("poisson", 0.0),
        "battery.validate_us": mean("battery.load_manifold_spec", 1e3),
        "battery.emit_us": mean("battery.emit_report", 1e3),
        "battery.self_ms": layer_ms.get("battery", 0.0),
    }
