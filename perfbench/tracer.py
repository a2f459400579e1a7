"""Layer tracer for the benchmark's traced run.

The tracer wraps entry points of qpbcalc's layers from outside the
package. Each wrapper replaces the original at every import site: every
``qpbcalc.*`` module attribute and class attribute that holds the
original function, and every entry of ``cli.SUITES``. Calls therefore
show whichever module they come through.

Spans (id, parent id, name, start, end, self time) are kept in memory in
flat arrays. The scalar layer sees millions of calls per run, so it is
aggregated into counts and summed self time instead of one span per call.
A span's self time is its duration minus the time of the spans and
aggregated calls nested directly inside it.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from array import array

SUITE_NAMES = (
    "confluence", "hopf", "comodule", "calculus", "cartan", "prolong",
    "tau", "complete", "atiyah", "bm", "vertical", "connection", "strong",
    "graded", "oracle", "crossed",
)

# Span names with .calls and .self_s metrics.
CALL_SPANS = (
    "ncalg.normal_word",
    "calculus.mul", "calculus.d", "calculus.wedge",
    "braidext.chi_bullet", "braidext.sigma_bullet",
    "braidext.sigma_bullet_inv", "braidext.tau_bullet",
    "qpb.delta_mono", "qpb.delta_bullet",
    "comodule.chi", "comodule.chi_inv", "comodule.sigma", "comodule.tau",
    "comodule.tau_word",
    "linalg.kernel", "linalg.rref",
    "exprs.eval",
)
SCALAR_OPS = ("scalars.mul", "scalars.add", "scalars.div")

# Memo dicts (``*_cache`` attributes) reachable from a built bundle,
# named memo.<class>.<attribute>.size and summed over instances.
MEMOS = (
    "AlgebraPresentation._nf_cache",
    "HopfPresentation._delta_cache",
    "HopfPresentation._s_cache",
    "HopfPresentation._sinv_cache",
    "ComoduleAlgebra._coact_cache",
    "TranslationData._cache",
    "DiffCalculus._act_cache",
    "DiffCalculus._straight_cache",
    "DiffCalculus._dword_cache",
    "DiffCalculus._dletters_cache",
    "CompleteCalculus._delta_cache",
    "CompleteCalculus._lam_act_cache",
    "CompleteCalculus._lam_wedge_cache",
    "CompleteCalculus._lam_d_cache",
    "CompleteCalculus._cm_cache",
    "CompleteCalculus._chibul_cache",
    "CompleteCalculus._sigbul_cache",
    "CompleteCalculus._taubul_cache",
    "CompleteCalculus._tauletter_cache",
)


def per_layer_spec():
    """(name, unit, better) for every per-layer metric, in output order."""
    spec = [(f"suite.{s}.s", "s", "lower") for s in SUITE_NAMES]
    spec.append(("examples.build_example.s", "s", "lower"))
    for op in SCALAR_OPS:
        spec += [(f"{op}.calls", "count", "lower"),
                 (f"{op}.self_s", "s", "lower")]
    spec.append(("scalars.rational_share", "ratio", "lower"))
    for name in CALL_SPANS:
        spec += [(f"{name}.calls", "count", "lower"),
                 (f"{name}.self_s", "s", "lower")]
        if name.startswith("linalg."):
            spec += [(f"{name}.s", "s", "lower"),
                     (f"{name}.rows", "count", "lower")]
    spec.append(("ncalg.normal_word.hit_ratio", "ratio", "higher"))
    spec += [(f"memo.{m}.size", "count", "lower") for m in MEMOS]
    spec.append(("trace.overhead_s", "s", "lower"))
    return spec


class Tracer:
    """Spans and aggregated counts for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        # one entry per finished span, in parallel arrays
        self.span_id = array("q")
        self.parent_id = array("q")
        self.name_index = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        # open frames: [span id, time covered by nested spans and ops]
        self.stack: list[list] = []
        # name -> [calls, self time] for layers aggregated without spans
        self.aggregates: dict[str, list] = {}
        # name -> integer counter (rows, cache growth, rational operands)
        self.counters: dict[str, int] = {}
        self._ids = itertools.count(1)

    def _index(self, name):
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def span(self, name, fn):
        """Wrap fn so that each call records one span named name."""
        idx = self._index(name)
        clock, stack, ids = self.clock, self.stack, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                self.span_id.append(sid)
                self.parent_id.append(parent)
                self.name_index.append(idx)
                self.start.append(t0)
                self.end.append(t1)
                self.self_time.append(t1 - t0 - frame[1])

        return wrapper

    def aggregate(self, name, fn, rational=None):
        """Wrap a binary operator: count calls and sum self time, no spans.

        With rational set, also count in counters[rational] the calls with
        an operand whose denominator is not 1."""
        rec = self.aggregates.setdefault(name, [0, 0.0])
        clock, stack, counters = self.clock, self.stack, self.counters
        if rational is not None:
            counters.setdefault(rational, 0)

        @functools.wraps(fn)
        def wrapper(a, b):
            frame = [stack[-1][0] if stack else 0, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(a, b)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec[0] += 1
                rec[1] += dt - frame[1]
                if rational is not None and (
                        not a.unit_den or not getattr(b, "unit_den", True)):
                    counters[rational] += 1

        return wrapper

    def counting(self, name, fn, measure):
        """Wrap fn so that counters[name] grows by measure(args) per call."""
        counters = self.counters
        counters.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += measure(*args)
            return fn(*args, **kwargs)

        return wrapper

    def totals(self):
        """name -> {"calls", "self_s", "total_s"} over spans and aggregates."""
        out = {}
        for i in range(len(self.span_id)):
            rec = out.setdefault(self.names[self.name_index[i]],
                                 {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += self.self_time[i]
            rec["total_s"] += self.end[i] - self.start[i]
        for name, (calls, self_s) in self.aggregates.items():
            out[name] = {"calls": calls, "self_s": self_s, "total_s": self_s}
        return out


def _replace(owner, orig, wrapper, label, sites):
    for attr, val in list(vars(owner).items()):
        if val is orig:
            setattr(owner, attr, wrapper)
            sites.append(f"{label}.{attr}")


def _replace_everywhere(orig, wrapper):
    """Replace orig in every loaded qpbcalc module; return the sites."""
    sites = []
    for modname, mod in list(sys.modules.items()):
        if mod is not None and (modname == "qpbcalc"
                                or modname.startswith("qpbcalc.")):
            _replace(mod, orig, wrapper, modname, sites)
    return sites


def _len_rows(rows, key=None):
    return len(rows)


def install(tracer: Tracer) -> dict:
    """Wrap qpbcalc's layer entry points; return name -> import sites."""
    from qpbcalc import (braidext, calculus, cli, comodule, examples,
                         exprs, linalg, ncalg, qpb, scalars)

    sites: dict[str, list] = {}

    def function(name, module, attr, wrap=None):
        orig = getattr(module, attr)
        wrapper = (wrap or tracer.span)(name, orig)
        sites.setdefault(name, []).extend(_replace_everywhere(orig, wrapper))

    def method(name, cls, attr, wrap=None):
        orig = vars(cls)[attr]
        wrapper = (wrap or tracer.span)(name, orig)
        _replace(cls, orig, wrapper, f"{cls.__module__}.{cls.__name__}",
                 sites.setdefault(name, []))

    for suite, fn in list(cli.SUITES.items()):
        cli.SUITES[suite] = tracer.span(f"suite.{suite}", fn)
        sites[f"suite.{suite}"] = [f"qpbcalc.cli.SUITES[{suite!r}]"]
    function("examples.build_example", examples, "build_example")

    # __rmul__ and __radd__ are the same function objects as __mul__ and
    # __add__, so each wrapper lands on both names.
    Scalar = scalars.Scalar
    method("scalars.mul", Scalar, "__mul__", lambda n, f: tracer.aggregate(
        n, f, rational="scalars.rational_calls"))
    method("scalars.add", Scalar, "__add__", lambda n, f: tracer.aggregate(
        n, f, rational="scalars.rational_calls"))
    method("scalars.div", Scalar, "__truediv__", tracer.aggregate)

    def nf_cache_growth(name, fn):
        tracer.counters.setdefault("ncalg.normal_word.cache_growth", 0)

        @functools.wraps(fn)
        def inner(pres, word):
            before = len(pres._nf_cache)
            try:
                return fn(pres, word)
            finally:
                tracer.counters["ncalg.normal_word.cache_growth"] += (
                    len(pres._nf_cache) - before)

        return tracer.span(name, inner)

    method("ncalg.normal_word", ncalg.AlgebraPresentation, "normal_word",
           nf_cache_growth)
    method("calculus.mul", calculus.DiffCalculus, "mul")
    method("calculus.d", calculus.DiffCalculus, "d")
    method("calculus.wedge", calculus.GradedTensor, "wedge")
    for attr in ("chi_bullet", "sigma_bullet", "sigma_bullet_inv",
                 "tau_bullet"):
        function(f"braidext.{attr}", braidext, attr)
    method("qpb.delta_mono", qpb.CompleteCalculus, "_delta_mono")
    method("qpb.delta_bullet", qpb.CompleteCalculus, "delta_bullet")
    for attr in ("chi", "chi_inv", "sigma", "tau"):
        function(f"comodule.{attr}", comodule, attr)
    method("comodule.tau_word", comodule.TranslationData, "tau_word")
    for attr in ("kernel", "rref"):
        function(f"linalg.{attr}", linalg, attr, lambda n, f: tracer.counting(
            f"{n}.rows", tracer.span(n, f), _len_rows))
    function("exprs.eval", exprs, "eval_form")
    function("exprs.eval", exprs, "eval_tensor")
    return sites


def memo_sizes(*roots) -> dict:
    """Sizes of the ``*_cache`` dicts reachable from roots, keyed
    <class>.<attribute> and summed over instances."""
    sizes: dict[str, int] = {}
    seen = set()
    todo = list(roots)
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        for attr, val in getattr(obj, "__dict__", {}).items():
            if isinstance(val, dict) and attr.endswith("_cache"):
                key = f"{type(obj).__name__}.{attr}"
                sizes[key] = sizes.get(key, 0) + len(val)
            elif type(val).__module__.startswith("qpbcalc."):
                todo.append(val)
    return sizes


def export(tracer: Tracer, *roots) -> dict:
    """The raw per-process figures the parent merges across processes."""
    return {"totals": tracer.totals(), "counters": dict(tracer.counters),
            "memos": memo_sizes(*roots)}


def merge(parts) -> dict:
    """Sum the exports of several processes."""
    out = {"totals": {}, "counters": {}, "memos": {}}
    for part in parts:
        for name, rec in part["totals"].items():
            acc = out["totals"].setdefault(
                name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for k in acc:
                acc[k] += rec[k]
        for section in ("counters", "memos"):
            for name, v in part[section].items():
                out[section][name] = out[section].get(name, 0) + v
    return out


def layer_metrics(merged: dict, overhead_s: float) -> dict:
    """Every per-layer metric by name, from merged exports."""
    totals, counters = merged["totals"], merged["counters"]

    def rec(name):
        return totals.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})

    values = {}
    for name, _, _ in per_layer_spec():
        base, _, kind = name.rpartition(".")
        if name.startswith("memo."):
            values[name] = merged["memos"].get(name[5:-5], 0)
        elif kind == "s":
            values[name] = rec(base)["total_s"]
        elif kind in ("calls", "self_s"):
            values[name] = rec(base)[kind]
        elif kind == "rows":
            values[name] = counters.get(name, 0)
    mul_add = rec("scalars.mul")["calls"] + rec("scalars.add")["calls"]
    values["scalars.rational_share"] = (
        counters.get("scalars.rational_calls", 0) / mul_add if mul_add else 0.0)
    nf_calls = rec("ncalg.normal_word")["calls"]
    values["ncalg.normal_word.hit_ratio"] = (
        1 - counters.get("ncalg.normal_word.cache_growth", 0) / nf_calls
        if nf_calls else 0.0)
    values["trace.overhead_s"] = overhead_s
    return values
