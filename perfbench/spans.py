"""Spans and counters around permac's public functions, installed from outside.

``install(tracer)`` replaces each function or method named in ``TARGETS``
with a wrapper on its defining module or class, and on every ``permac``
module that re-imported the same object with ``from .x import name``.  Each
wrapper counts the call and records a span (key, start, end, parent).  Spans
are aggregated as they close -- calls, inclusive time of the outermost call,
and self time (span time minus the time its child spans cover) -- and the
first ``keep_spans`` of them are kept in memory for ``dump``.

Scalar arithmetic (``Fraction`` and ``QRho`` operators) runs millions of
times per pass, so those wrappers only count and time; they take part in the
self-time accounting but keep no span records.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from fractions import Fraction

LAYERS = ("scalars", "partitions", "series", "laurent", "macdonald", "cache",
          "fock", "process", "plancherel", "cylindric", "cli")

_FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
                 "__rpow__", "__neg__")
_QRHO_OPS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
             "__mul__", "__rmul__", "inverse", "__truediv__", "__rtruediv__",
             "__pow__")


def _terms(out):
    return len(out.terms)


def _states(out):
    return len(out.states)


def _load_bytes(out, module, operation, params):
    from permac import cache

    path = cache._path_for(module, operation, params)
    return os.path.getsize(path) if out is not None and path else 0


def _store_bytes(out, module, operation, params, payload):
    from permac import cache

    path = cache._path_for(module, operation, params)
    return os.path.getsize(path) if path and os.path.exists(path) else 0


# (span key, module, attribute path, options).  "size" records the maximum of
# a function of the result; "total" sums a function of the result and the
# arguments; "gen" marks a generator whose items are counted.
TARGETS = [
    ("partitions.enum", "partitions", "partitions_of", {}),
    ("partitions.enum", "partitions", "partitions_up_to", {}),
    ("partitions.dominance", "partitions", "dominance_leq", {}),
    ("partitions.dominance", "partitions", "dominance_key", {}),
    ("series.mul", "series", "TruncSeries.__mul__", {"size": _terms}),
    ("series.exp_log_inv", "series", "TruncSeries.exp", {}),
    ("series.exp_log_inv", "series", "TruncSeries.log", {}),
    ("series.exp_log_inv", "series", "TruncSeries.inverse", {}),
    ("series.qpochhammer", "series", "qpochhammer", {}),
    ("laurent.product_coefficient", "laurent", "product_coefficient", {}),
    ("laurent.mul", "laurent", "LaurentPoly.mul", {"size": _terms}),
    ("laurent.exp_log", "laurent", "laurent_exp", {}),
    ("laurent.exp_log", "laurent", "laurent_log", {}),
    ("macdonald.table", "macdonald", "macdonald_table", {}),
    ("macdonald.transition", "macdonald", "p_to_m", {}),
    ("macdonald.transition", "macdonald", "m_to_p", {}),
    ("macdonald.transition", "macdonald", "m_dict_to_p", {}),
    ("macdonald.transition", "macdonald", "p_dict_to_m", {}),
    ("macdonald.pieri", "macdonald", "pieri", {}),
    ("macdonald.skew_eval", "macdonald", "skew_eval", {}),
    ("cache.load", "cache", "load",
     {"hit": lambda out, *a: out is not None, "total": _load_bytes}),
    ("cache.store", "cache", "store", {"total": _store_bytes}),
    ("fock.vertex_apply", "fock", "vertex_apply", {}),
    ("fock.trace_closed", "fock", "trace_closed", {}),
    ("fock.trace_bruteforce", "fock", "trace_bruteforce", {}),
    ("fock.free_field_apply", "fock", "free_field_apply", {}),
    ("process.configurations", "process", "configurations", {"gen": True}),
    ("process.weight_W", "process", "weight_W", {}),
    ("process.moment_formula", "process", "moment_formula", {}),
    ("process.moment_bruteforce", "process", "moment_bruteforce", {}),
    ("process.partition_function_closed", "process",
     "partition_function_closed", {}),
    ("process.partition_function_bruteforce", "process",
     "partition_function_bruteforce", {}),
    ("plancherel.transfer_matrix", "plancherel", "transfer_matrix",
     {"size": _states}),
    ("plancherel.sample", "plancherel", "sample_trajectories", {"gen": True}),
    ("plancherel.semigroup", "plancherel", "semigroup_defect", {}),
    ("plancherel.chi_square", "plancherel", "marginal_chi_square", {}),
    ("cylindric.vertex_skew_sum", "cylindric", "vertex_skew_sum", {}),
    ("cylindric.trace_check", "cylindric", "cor_b2_check", {}),
    ("cylindric.trace_check", "cylindric", "thm_b1_check", {}),
    ("cylindric.macmahon", "cylindric", "macmahon_verify", {}),
    ("cylindric.enumerate", "cylindric", "enumerate_cp", {"total": lambda out, *a: len(out)}),
    ("cli.main", "cli", "main", {}),
]


class Tracer:
    """Open-span stack plus per-key aggregates, all kept in memory."""

    def __init__(self, keep_spans: int = 50_000):
        self.stack = []       # open frames: [start, child seconds, span id]
        self.calls = {}       # key -> calls
        self.incl = {}        # key -> inclusive seconds of outermost calls
        self.self_s = {}      # key -> self seconds
        self.active = {}      # key -> open calls (recursion guard)
        self.maxima = {}      # key -> max result size
        self.totals = {}      # key -> summed result measure (items, bytes)
        self.hits = {}        # key -> calls whose result counted as a hit
        self.spans = []       # (key, start, end, parent id, id), first keep_spans
        self.keep_spans = keep_spans
        self.next_id = 0

    def _open(self, key, record):
        calls = self.calls
        calls[key] = calls.get(key, 0) + 1
        self.active[key] = self.active.get(key, 0) + 1
        if record:
            sid = self.next_id
            self.next_id = sid + 1
        else:
            sid = -1
        frame = [0.0, 0.0, sid]
        self.stack.append(frame)
        frame[0] = time.perf_counter()
        return frame

    def _close(self, key, frame):
        end = time.perf_counter()
        stack = self.stack
        stack.pop()
        dur = end - frame[0]
        self.self_s[key] = self.self_s.get(key, 0.0) + dur - frame[1]
        if stack:
            stack[-1][1] += dur
        left = self.active[key] - 1
        self.active[key] = left
        if not left:
            self.incl[key] = self.incl.get(key, 0.0) + dur
        sid = frame[2]
        if sid >= 0 and len(self.spans) < self.keep_spans:
            parent = next((f[2] for f in reversed(stack) if f[2] >= 0), -1)
            self.spans.append((key, frame[0], end, parent, sid))

    def wrap(self, key, fn, record=True, size=None, total=None, hit=None,
             gen=False):
        tracer = self

        if gen:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = tracer._open(key, False)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._close(key, frame)
                        return
                    except BaseException:
                        tracer._close(key, frame)
                        raise
                    tracer._close(key, frame)
                    tracer.totals[key] = tracer.totals.get(key, 0) + 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(key, record)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(key, frame)
            if size is not None:
                n = size(out)
                if n > tracer.maxima.get(key, 0):
                    tracer.maxima[key] = n
            if total is not None:
                tracer.totals[key] = tracer.totals.get(key, 0) + total(out, *args, **kwargs)
            if hit is not None and hit(out, *args):
                tracer.hits[key] = tracer.hits.get(key, 0) + 1
            return out
        return wrapper

    # -- results -----------------------------------------------------------

    def aggregates(self) -> dict:
        return {"calls": self.calls, "incl": self.incl, "self_s": self.self_s,
                "maxima": self.maxima, "totals": self.totals, "hits": self.hits}

    def dump(self, path: str) -> None:
        """Write the kept spans and the aggregates as one JSON document."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["key", "start", "end", "parent", "id"],
                       "spans": self.spans, "spans_total": self.next_id,
                       "aggregates": self.aggregates()}, fh)


def merge_aggregates(parts) -> dict:
    """Sum per-key aggregates of several processes; maxima take the max."""
    out = {"calls": {}, "incl": {}, "self_s": {}, "maxima": {}, "totals": {},
           "hits": {}}
    for part in parts:
        for field, table in part.items():
            dest = out[field]
            for key, val in table.items():
                if field == "maxima":
                    dest[key] = max(dest.get(key, 0), val)
                else:
                    dest[key] = dest.get(key, 0) + val
    return out


def _resolve(owner, path):
    obj = owner
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _replace_everywhere(original, wrapper, modules, classes):
    """Rebind every module- or class-level reference to ``original``."""
    for mod in modules:
        for name, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, name, wrapper)
    for cls in classes:
        for name, val in list(vars(cls).items()):
            if val is original:
                setattr(cls, name, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the targets and the scalar operators of a freshly imported permac."""
    modules = [importlib.import_module(f"permac.{m}") for m in LAYERS + ("acceptance",)]
    classes = [obj for mod in modules for obj in vars(mod).values()
               if inspect.isclass(obj) and obj.__module__ == mod.__name__]
    for key, modname, path, opts in TARGETS:
        mod = importlib.import_module(f"permac.{modname}")
        original = _resolve(mod, path)
        wrapper = tracer.wrap(key, original, **opts)
        _replace_everywhere(original, wrapper, modules, classes)

    from permac.scalars import QRho

    for cls, ops, key in ((Fraction, _FRACTION_OPS, "scalars.fraction"),
                          (QRho, _QRHO_OPS, "scalars.qrho")):
        for op in ops:
            setattr(cls, op, tracer.wrap(key, getattr(cls, op), record=False))


def _hist(agg, field, key):
    return agg[field].get(key, 0)


def layer_metrics(agg: dict) -> dict:
    """Per-layer metric values (without units) from merged aggregates."""
    calls = functools.partial(_hist, agg, "calls")
    incl = functools.partial(_hist, agg, "incl")
    maxima = functools.partial(_hist, agg, "maxima")
    totals = functools.partial(_hist, agg, "totals")
    load_calls = calls("cache.load")
    load_hits = _hist(agg, "hits", "cache.load")
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    for key, val in agg["self_s"].items():
        self_by_layer[key.split(".", 1)[0]] += val
    out = {
        "scalars.fraction_ops": calls("scalars.fraction"),
        "scalars.fraction_s": incl("scalars.fraction"),
        "scalars.qrho_ops": calls("scalars.qrho"),
        "scalars.qrho_s": incl("scalars.qrho"),
        "partitions.enum_calls": calls("partitions.enum"),
        "partitions.enum_s": incl("partitions.enum"),
        "partitions.dominance_calls": calls("partitions.dominance"),
        "series.mul_calls": calls("series.mul"),
        "series.mul_s": incl("series.mul"),
        "series.mul_out_terms_max": maxima("series.mul"),
        "series.exp_log_inv_calls": calls("series.exp_log_inv"),
        "series.exp_log_inv_s": incl("series.exp_log_inv"),
        "series.qpochhammer_s": incl("series.qpochhammer"),
        "laurent.product_coefficient_calls": calls("laurent.product_coefficient"),
        "laurent.product_coefficient_s": incl("laurent.product_coefficient"),
        "laurent.mul_calls": calls("laurent.mul"),
        "laurent.mul_s": incl("laurent.mul"),
        "laurent.mul_out_terms_max": maxima("laurent.mul"),
        "laurent.exp_log_s": incl("laurent.exp_log"),
        "macdonald.table_calls": calls("macdonald.table"),
        "macdonald.table_s": incl("macdonald.table"),
        "macdonald.transition_s": incl("macdonald.transition"),
        "macdonald.pieri_calls": calls("macdonald.pieri"),
        "macdonald.pieri_s": incl("macdonald.pieri"),
        "macdonald.skew_eval_s": incl("macdonald.skew_eval"),
        "cache.load_calls": load_calls,
        "cache.load_hits": load_hits,
        "cache.hit_ratio": load_hits / load_calls if load_calls else 0.0,
        "cache.load_s": incl("cache.load"),
        "cache.store_calls": calls("cache.store"),
        "cache.store_s": incl("cache.store"),
        "cache.bytes_read": totals("cache.load"),
        "cache.bytes_written": totals("cache.store"),
        "fock.vertex_apply_calls": calls("fock.vertex_apply"),
        "fock.vertex_apply_s": incl("fock.vertex_apply"),
        "fock.trace_closed_s": incl("fock.trace_closed"),
        "fock.trace_bruteforce_s": incl("fock.trace_bruteforce"),
        "fock.free_field_apply_s": incl("fock.free_field_apply"),
        "process.configurations": totals("process.configurations"),
        "process.configurations_s": incl("process.configurations"),
        "process.weight_W_calls": calls("process.weight_W"),
        "process.moment_formula_s": incl("process.moment_formula"),
        "process.moment_bruteforce_s": incl("process.moment_bruteforce"),
        "process.partition_function_closed_s": incl("process.partition_function_closed"),
        "process.partition_function_bruteforce_s": incl("process.partition_function_bruteforce"),
        "plancherel.transfer_matrix_calls": calls("plancherel.transfer_matrix"),
        "plancherel.transfer_matrix_s": incl("plancherel.transfer_matrix"),
        "plancherel.states": maxima("plancherel.transfer_matrix"),
        "plancherel.draws": totals("plancherel.sample"),
        # self time: the draws, without the matrix builds nested inside
        "plancherel.sample_s": agg["self_s"].get("plancherel.sample", 0.0),
        "plancherel.semigroup_s": incl("plancherel.semigroup"),
        "plancherel.chi_square_s": incl("plancherel.chi_square"),
        "cylindric.vertex_skew_sum_calls": calls("cylindric.vertex_skew_sum"),
        "cylindric.vertex_skew_sum_s": incl("cylindric.vertex_skew_sum"),
        "cylindric.trace_check_s": incl("cylindric.trace_check"),
        "cylindric.macmahon_s": incl("cylindric.macmahon"),
        "cylindric.enumerated": totals("cylindric.enumerate"),
    }
    for layer, val in self_by_layer.items():
        out[f"{layer}.self_s"] = val
    return out
