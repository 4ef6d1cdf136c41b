"""Traced mode: spans around the public functions of each symbolkit
layer, recorded from the benchmark's side of the call.

``Tracer.install`` replaces each function listed below at every
symbolkit module that holds it by name (``from .x import f`` makes a
second reference), and the listed methods on their classes;
``uninstall`` puts the originals back.  A span records its name,
start, end, parent span and operation id, plus counts taken at the
boundary.  Expression evaluations run about 4·10^5 times per
``indices`` round, too often for a span each: their calls, points and time are
added to the enclosing span instead and treated as its child time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter


def _ensemble(args, kwargs, ens):
    n, m, _ = ens.values.shape
    return {"path_steps": n * (m - 1),
            "recorded_bytes": ens.values.nbytes + ens.status.nbytes + ens.invalid.nbytes}


def _snapshots(args, kwargs, result):
    times, values, status, _ = result
    dt = args[4] if len(args) > 4 else kwargs["dt"]
    return {"path_steps": values.shape[1] * round(max(times) / dt),
            "recorded_bytes": values.nbytes + status.nbytes}


def _pairs(args, kwargs, result):
    return {"pairs": len(result)}


def _once(key):
    return lambda args, kwargs, result: {key: 1}


# (layer, module, function, counts taken from (args, kwargs, result))
FUNCTIONS = (
    ("config", "symbolkit.config", "load_config", None),
    ("config", "symbolkit.config", "compile_model", None),
    ("simulate", "symbolkit.simulate", "sample_levy", _ensemble),
    ("simulate", "symbolkit.simulate", "sample_autonomous", _ensemble),
    ("simulate", "symbolkit.simulate", "sample_sde", _ensemble),
    ("simulate", "symbolkit.simulate", "snapshot_run", _snapshots),
    ("symbol", "symbolkit.symbol", "estimate_symbol", _once("probes")),
    ("symbol", "symbolkit.symbol", "symbol_independence_check", None),
    ("martingale", "symbolkit.martingale", "killing_compensator_check", None),
    ("martingale", "symbolkit.martingale", "exponential_martingale_check", None),
    ("martingale", "symbolkit.martingale", "canonical_representation_residual", None),
    ("indices", "symbolkit.indices", "estimate_indices", None),
    ("triplet", "symbolkit.triplet", "eval_symbol", None),
    ("triplet", "symbolkit.triplet", "check_growth", None),
    ("triplet", "symbolkit.triplet", "check_sector", None),
    ("serialize", "symbolkit.serialize", "dump_json", None),
    ("serialize", "symbolkit.serialize", "write_csv", None),
)
# (layer, module, class, method, counts)
METHODS = (
    ("triplet", "symbolkit.triplet", "StateModel", "symbol_many", _pairs),
    ("triplet", "symbolkit.triplet", "DensityMeasure", "__init__", None),
    ("triplet", "symbolkit.triplet", "DensityMeasure", "_exponent_scalar", _once("xi")),
)
EXPR_METHODS = ("evaluate", "evaluate_lenient")


class Span:
    __slots__ = ("sid", "name", "layer", "parent", "op", "start", "end", "counts",
                 "expr_calls", "expr_points", "expr_s")

    def __init__(self, sid, name, layer, parent, op):
        self.sid, self.name, self.layer, self.parent, self.op = sid, name, layer, parent, op
        self.start = self.end = 0.0
        self.counts = None
        self.expr_calls = self.expr_points = 0
        self.expr_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self, t0: float) -> dict:
        rec = {"id": self.sid, "parent": self.parent, "op": self.op, "name": self.name,
               "start": self.start - t0, "end": self.end - t0}
        if self.counts:
            rec["counts"] = self.counts
        if self.expr_calls:
            rec["expr"] = {"calls": self.expr_calls, "points": self.expr_points,
                           "s": self.expr_s}
        return rec


def _points(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None or len(shape) < 2:
        return 1
    return shape[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        # per thread: expression calls made outside every span of that
        # thread (simulation workers have no spans of their own)
        self.loose_spans: list[Span] = []

    def _state(self) -> tuple[list[Span], Span]:
        local = self._local
        try:
            return local.stack, local.loose
        except AttributeError:
            local.stack, local.loose = [], Span(-1, "loose", "expr", None, None)
            self.loose_spans.append(local.loose)
            return local.stack, local.loose

    def call(self, name: str, layer: str, fn, args, kwargs, counts=None):
        stack, _ = self._state()
        span = Span(next(self._ids), name, layer, stack[-1].sid if stack else None, self.op)
        self.spans.append(span)
        stack.append(span)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            stack.pop()
        if counts is not None:
            span.counts = counts(args, kwargs, result)
        return result

    def _wrap(self, name, layer, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, layer, fn, args, kwargs, counts)
        return traced

    def _wrap_expr(self, fn):
        state = self._state

        @functools.wraps(fn)
        def traced(expr, x):
            start = perf_counter()
            result = fn(expr, x)
            elapsed = perf_counter() - start
            stack, loose = state()
            span = stack[-1] if stack else loose
            span.expr_calls += 1
            span.expr_points += _points(x)
            span.expr_s += elapsed
            return result
        return traced

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "symbolkit" or name.startswith("symbolkit.")]
        for layer, module, name, counts in FUNCTIONS:
            original = getattr(importlib.import_module(module), name)
            wrapped = self._wrap(f"{layer}.{name}", layer, original, counts)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, wrapped)
        for layer, module, cls_name, name, counts in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._replace(cls, name, self._wrap(f"{layer}.{cls_name}.{name}", layer,
                                                getattr(cls, name), counts))
        expression = importlib.import_module("symbolkit.expr").Expression
        for name in EXPR_METHODS:
            self._replace(expression, name, self._wrap_expr(getattr(expression, name)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one round

# name: unit (BENCHMARK.json lists the same metrics with their better direction)
LAYER_METRICS = {
    "simulate.calls": "count",
    "simulate.path_steps": "count",
    "simulate.s": "s",
    "simulate.ns_per_path_step": "ns",
    "simulate.recorded_mb": "MB",
    "symbol.self_s": "s",
    "symbol.probes": "count",
    "martingale.killing_s": "s",
    "martingale.exponential_s": "s",
    "martingale.canonical_s": "s",
    "triplet.symbol_s": "s",
    "triplet.symbol_pairs": "count",
    "triplet.density_ms_per_xi": "ms",
    "triplet.density_build_s": "s",
    "expr.eval_calls": "count",
    "expr.eval_s": "s",
    "expr.points_per_call": "points",
    "config.compile_s": "s",
    "indices.self_s": "s",
    "cli.self_s": "s",
    "serialize.write_s": "s",
    "trace.overhead_s": "s",
}

MB = float(1 << 20)


def layer_metrics(spans: list[Span], loose: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer values of one traced round, each with a note of its base.
    ``loose`` holds the expression calls made outside every span."""
    by_id = {s.sid: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration

    def outermost(match):
        # spans that match and have no matching ancestor: their time
        # counts once even when the layer calls itself
        out = []
        for s in spans:
            if not match(s):
                continue
            p = s.parent
            while p is not None and not match(by_id[p]):
                p = by_id[p].parent
            if p is None:
                out.append(s)
        return out

    def total(match):
        found = outermost(match)
        return sum(s.duration for s in found), len(found)

    def self_time(layer):
        found = [s for s in spans if s.layer == layer]
        return (sum(s.duration - child_time[s.sid] - s.expr_s for s in found), len(found))

    def count(key, match=lambda s: True):
        return sum(s.counts.get(key, 0) for s in spans if s.counts and match(s))

    def named(*names):
        return lambda s: s.name in names

    sim_s, sim_calls = total(lambda s: s.layer == "simulate")
    steps = count("path_steps")
    probes = count("probes")
    xi_s, n_xi = total(named("triplet.DensityMeasure._exponent_scalar"))
    expr_calls = sum(s.expr_calls for s in [*spans, *loose])
    expr_points = sum(s.expr_points for s in [*spans, *loose])
    expr_s = sum(s.expr_s for s in [*spans, *loose])

    def timed(match, what="spans"):
        t, n = total(match)
        return t, f"{n} {what}"

    m = {
        "simulate.calls": (sim_calls, "ensemble simulations"),
        "simulate.path_steps": (steps, "paths x steps"),
        "simulate.s": (sim_s, f"{sim_calls} simulations"),
        "simulate.ns_per_path_step": (1e9 * sim_s / steps if steps else 0.0,
                                      f"{steps} path-steps"),
        "simulate.recorded_mb": (count("recorded_bytes") / MB, f"{sim_calls} simulations"),
        "symbol.probes": (probes, "estimate_symbol calls"),
        "martingale.killing_s": timed(named("martingale.killing_compensator_check")),
        "martingale.exponential_s": timed(named("martingale.exponential_martingale_check")),
        "martingale.canonical_s": timed(named("martingale.canonical_representation_residual")),
        "triplet.symbol_s": timed(named("triplet.eval_symbol", "triplet.StateModel.symbol_many")),
        "triplet.symbol_pairs": (count("pairs"), "(x, xi) pairs"),
        "triplet.density_ms_per_xi": (1e3 * xi_s / n_xi if n_xi else 0.0, f"{n_xi} frequencies"),
        "triplet.density_build_s": timed(named("triplet.DensityMeasure.__init__"), "builds"),
        "expr.eval_calls": (expr_calls, "Expression.evaluate* calls"),
        "expr.eval_s": (expr_s, f"{expr_calls} calls"),
        "expr.points_per_call": (expr_points / expr_calls if expr_calls else 0.0,
                                 f"{expr_points} points / {expr_calls} calls"),
        "config.compile_s": timed(lambda s: s.layer == "config"),
        "serialize.write_s": timed(lambda s: s.layer == "serialize"),
    }
    for layer in ("symbol", "indices", "cli"):
        t, n = self_time(layer)
        m[f"{layer}.self_s"] = (t, f"{n} spans" if layer != "symbol" else f"{probes} probes")
    return m
