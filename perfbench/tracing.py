"""Span recorder that traces kolmotk from the outside.

Every public function of every kolmotk module is replaced, at each module
attribute that binds it, by a wrapper that records one span.  Callers
inside the package look those names up in their module globals at call
time, so ``kolmotk.semigroup.simulate_endpoints`` or
``kolmotk.gramian.matrix_exp`` are traced without touching the library.
Spans stay in memory until the run ends.  Calls must come from one thread:
the parent of a span is the innermost open span.
"""

from __future__ import annotations

import contextlib
import csv
import inspect
import sys
import time

from stats import self_times

# span record fields
NAME, START, END, PARENT, ATTRS = range(5)


def _bound(fn, args, kwargs):
    b = inspect.signature(fn).bind(*args, **kwargs)
    b.apply_defaults()
    return b.arguments


def _simulate_endpoints_attrs(fn, args, kwargs):
    a = _bound(fn, args, kwargs)
    x0s = a["x0s"]
    starts = len(x0s) if getattr(x0s, "ndim", 1) > 1 else 1
    return {"starts": starts, "path_steps": starts * a["n_paths"] * a["steps"]}


def _solve_elliptic_attrs(fn, args, kwargs):
    scheme = _bound(fn, args, kwargs)["scheme"]
    nodes = len(scheme.nodes()[0])
    return {"nodes": nodes, "paths_per_node": scheme.paths_per_node, "t_max": scheme.t_max}


def _holder_seminorm_attrs(fn, args, kwargs):
    return {"samples": _bound(fn, args, kwargs)["budget"]}


ATTRS_OF = {
    "simulate.simulate_endpoints": _simulate_endpoints_attrs,
    "semigroup.solve_elliptic": _solve_elliptic_attrs,
    "holder.holder_seminorm": _holder_seminorm_attrs,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attrs_of = ATTRS_OF.get(name)

        def traced(*args, **kwargs):
            attrs = attrs_of(fn, args, kwargs) if attrs_of else None
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name, attrs=None):
        """A span opened by the benchmark itself, e.g. one per request."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def install(self, package="kolmotk"):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        wrappers = {}
        for m in modules:
            layer = m.__name__.rpartition(".")[2]
            for attr, obj in vars(m).items():
                if (inspect.isfunction(obj) and obj.__module__ == m.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for m in modules:
            for attr, obj in list(vars(m).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((m, attr, obj))
                    setattr(m, attr, wrappers[obj])

    def uninstall(self):
        for m, attr, obj in reversed(self._patches):
            setattr(m, attr, obj)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write_csv(self, path):
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", newline="\n", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(("id", "name", "parent", "start_s", "end_s"))
            for i, s in enumerate(self.spans):
                w.writerow((i, s[NAME], s[PARENT], repr(s[START] - t0), repr(s[END] - t0)))


def _has_ancestor(spans, i, name):
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, nominal_steps):
    """Per-layer metrics from recorded spans (see README.md for the
    definition of each).  ``nominal_steps`` is the step-count rule used to
    size the path-steps a one-pass solve to t_max would need."""
    self_s = self_times([(s[START], s[END], s[PARENT]) for s in spans])
    by_layer = {}
    total = {}
    calls = {}
    for s, st in zip(spans, self_s):
        layer = s[NAME].partition(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + st
        total[s[NAME]] = total.get(s[NAME], 0.0) + s[END] - s[START]
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1

    def layer_entries(layer):
        prefix = layer + "."
        return sum(1 for s in spans if s[NAME].startswith(prefix)
                   and (s[PARENT] < 0 or not spans[s[PARENT]][NAME].startswith(prefix)))

    sim = [i for i, s in enumerate(spans) if s[NAME] == "simulate.simulate_endpoints"]
    path_steps = sum(spans[i][ATTRS]["path_steps"] for i in sim)
    solve_steps = sum(spans[i][ATTRS]["path_steps"] for i in sim
                      if _has_ancestor(spans, i, "semigroup.solve_elliptic"))
    deriv_starts = sum(spans[i][ATTRS]["starts"] for i in sim
                       if _has_ancestor(spans, i, "semigroup.derivative_estimate"))
    solves = [s[ATTRS] for s in spans if s[NAME] == "semigroup.solve_elliptic"]
    nodes = sum(a["nodes"] for a in solves)
    to_tmax = sum(a["paths_per_node"] * nominal_steps(a["t_max"]) for a in solves)
    expm_in_gramian = sum(1 for i, s in enumerate(spans) if s[NAME] == "operators.matrix_exp"
                          and _has_ancestor(spans, i, "gramian.gramian"))
    samples = sum(s[ATTRS]["samples"] for s in spans if s[NAME] == "holder.holder_seminorm")
    rng_s = total.get("simulate.brownian_increments", 0.0)
    gram_calls = calls.get("gramian.gramian", 0)
    expm_calls = calls.get("operators.matrix_exp", 0)
    dec_calls = calls.get("kalman.decompose", 0)
    return {
        "simulate.calls": layer_entries("simulate"),
        "simulate.path_steps": path_steps,
        "simulate.self_s": by_layer.get("simulate", 0.0),
        "simulate.ns_per_path_step": 1e9 * _ratio(by_layer.get("simulate", 0.0), path_steps),
        "simulate.rng_us_per_path": 1e6 * _ratio(rng_s, calls.get("simulate.brownian_increments", 0)),
        "simulate.rng_share": _ratio(rng_s, by_layer.get("simulate", 0.0)),
        "semigroup.self_s": by_layer.get("semigroup", 0.0),
        "semigroup.solve_s_per_node": _ratio(total.get("semigroup.solve_elliptic", 0.0), nodes),
        "semigroup.solver_step_ratio": _ratio(solve_steps, to_tmax),
        "semigroup.derivative_starts": deriv_starts,
        "gramian.calls": gram_calls,
        "gramian.ms_per_call": 1e3 * _ratio(total.get("gramian.gramian", 0.0), gram_calls),
        "gramian.self_s": by_layer.get("gramian", 0.0),
        "gramian.expm_per_call": _ratio(expm_in_gramian, gram_calls),
        "operators.matrix_exp_calls": expm_calls,
        "operators.matrix_exp_us": 1e6 * _ratio(total.get("operators.matrix_exp", 0.0), expm_calls),
        "holder.samples": samples,
        "holder.us_per_sample": 1e6 * _ratio(total.get("holder.holder_seminorm", 0.0), samples),
        "kalman.decompose_calls": dec_calls,
        "kalman.decompose_ms": 1e3 * _ratio(total.get("kalman.decompose", 0.0), dec_calls),
        "verify.gramian_scaling_s": total.get("verify.check_gramian_scaling", 0.0),
        "verify.exponential_blocks_s": total.get("verify.check_exponential_blocks", 0.0),
        "verify.schauder_ratio_s": total.get("verify.check_schauder_ratio", 0.0),
        "verify.parabolic_schauder_s": total.get("verify.check_parabolic_schauder_ratio", 0.0),
    }
