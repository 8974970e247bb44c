"""Span tracing from outside the package.

``Tracer.install`` replaces every public function of the pottsglass modules,
on every module attribute that binds it, with a wrapper that records a span
(name, parent, start, end, thread, counters).  Public classmethods of the
package's classes are wrapped too, and so is scipy's ``minimize`` where
``optimize`` binds it, because its result carries the Nelder-Mead counts.
Spans started in ``map_indexed`` pool threads are linked to the
``map_indexed`` span.  Spans stay in memory; ``restore`` puts the original
functions back.
"""

import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

from scipy.optimize import minimize

_current = contextvars.ContextVar("bench_span", default=None)


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _mcmc_counts(fn, args, kwargs, res):
    a = _bound(fn, args, kwargs)
    rungs = max(a["n_beta"], 2)
    attempts = a["n_disorder"] * rungs * (a["burn"] + a["sweeps"]) * a["N"]
    return {"attempts": attempts, "swap_acceptance": res.diagnostics["swap_acceptance"]}


def _enum_counts(fn, args, kwargs, res):
    diag = res.diagnostics
    return {"config_energies": diag["n_configurations"] * diag["n_disorder"]}


def _leaf_bytes(fn, args, kwargs, res):
    # computed from the returned array's shape, not measured
    size = 1
    for n in res.shape:
        size *= n
    return {"leaf_bytes": size * res.dtype.itemsize}


# counters read at the boundary: span name -> f(fn, args, kwargs, result)
COUNTERS = {
    "functional.eval_phi": lambda fn, a, k, res: {
        "node_evaluations": res.diagnostics["node_evaluations"]
    },
    "cascade.sample_cascade": lambda fn, a, k, res: {"leaves": res.n_leaves},
    "cascade.sample_leaf_fields": _leaf_bytes,
    "optimize.inner_minimize": lambda fn, a, k, res: {"rejections": res.rejections},
    "scipy.minimize": lambda fn, a, k, res: {"nfev": int(res.nfev), "nit": int(res.nit)},
    "model.mcmc_free_energy": _mcmc_counts,
    "model.enumerate_free_energy": _enum_counts,
    "util.map_indexed": lambda fn, a, k, res: {"tasks": _bound(fn, a, k)["n"]},
}


class Tracer:
    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self._ids = itertools.count(1)
        self._patches = []

    def _wrap(self, fn, name):
        counters = COUNTERS.get(name)
        link = name == "util.map_indexed"
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = _current.get()
            sid = next(ids)
            if link:
                args = (_linked(args[0], sid),) + args[1:]
            token = _current.set(sid)
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, parent, name, t0, time.perf_counter(), threading.get_ident(), {}))
                raise
            finally:
                _current.reset(token)
            t1 = time.perf_counter()
            extra = counters(fn, args, kwargs, res) if counters else {}
            spans.append((sid, parent, name, t0, t1, threading.get_ident(), extra))
            return res

        return wrapper

    def install(self):
        wrapped = {}  # one wrapper per function, whichever modules bind it

        def wrapper_for(fn, name):
            if fn not in wrapped:
                wrapped[fn] = self._wrap(fn, name)
            return wrapped[fn]

        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if obj is minimize:
                    name = "scipy.minimize"
                elif inspect.isfunction(obj) and obj.__module__.startswith("pottsglass."):
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_classmethods(obj, wrapper_for)
                    continue
                else:
                    continue
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, wrapper_for(obj, name))

    def _wrap_classmethods(self, cls, wrapper_for):
        prefix = cls.__module__.rsplit(".", 1)[1]
        for attr, desc in list(vars(cls).items()):
            if attr.startswith("_") or not isinstance(desc, classmethod):
                continue
            self._patches.append((cls, attr, desc))
            setattr(cls, attr, classmethod(wrapper_for(desc.__func__, f"{prefix}.{attr}")))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, thread, extra in self.spans:
                row = {"id": sid, "parent": parent, "name": name, "start": t0, "end": t1,
                       "thread": thread, "counters": extra}
                fh.write(json.dumps(row) + "\n")


def _linked(fn, sid):
    """Run each map_indexed task with the map_indexed span as its parent,
    also in pool threads, which start with an empty context."""

    def task(i):
        token = _current.set(sid)
        try:
            return fn(i)
        finally:
            _current.reset(token)

    return task


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class SpanTable:
    """Totals, self times and counters over a list of span tuples."""

    def __init__(self, spans):
        self.by_id = {s[0]: s for s in spans}
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for s in spans:
            self.by_name[s[2]].append(s)
            self.children[s[1]].append(s)

    def _ancestor(self, span, names):
        parent = self.by_id.get(span[1])
        while parent is not None and parent[2] not in names:
            parent = self.by_id.get(parent[1])
        return parent

    def calls(self, name):
        return len(self.by_name[name])

    def total(self, name):
        """Busy seconds in the named spans, not counting a span nested in one
        of the same name; spans in parallel threads add up."""
        return sum(
            s[4] - s[3] for s in self.by_name[name] if self._ancestor(s, {name}) is None
        )

    def layer_self_time(self, name):
        """Time in the named spans not covered by spans of another pottsglass
        module: the layer's own work under that entry point.  ``util`` spans
        (the map_indexed pool, streams) and scipy's minimize count as the
        caller's work.  A span nested in one of the same name is skipped."""
        own = (name.split(".", 1)[0] + ".", "util.", "scipy.")
        total = 0.0
        for s in self.by_name[name]:
            if self._ancestor(s, {name}) is not None:
                continue
            outside, stack = [], list(self.children[s[0]])
            while stack:
                c = stack.pop()
                if c[2].startswith(own):
                    stack.extend(self.children[c[0]])
                else:
                    outside.append((c[3], c[4]))
            total += (s[4] - s[3]) - _covered(outside, s[3], s[4])
        return total

    def count(self, name, key, under=None):
        """Sum a counter over the named spans; with ``under = (a, names)``,
        only spans whose nearest ancestor among ``names`` is ``a``."""
        total = 0
        for s in self.by_name[name]:
            if under is not None:
                anc = self._ancestor(s, under[1])
                if anc is None or anc[2] != under[0]:
                    continue
            total += s[6].get(key, 0)
        return total

    def mean(self, name, key):
        vals = [s[6][key] for s in self.by_name[name] if key in s[6]]
        return sum(vals) / len(vals) if vals else 0.0


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(spans, traced_wall, untraced_wall, speedup):
    """The per-layer metrics of one traced pass.  A layer the workload does
    not use reads 0; ``speedup`` is 0 where only one thread count ran."""
    t = SpanTable(spans)
    nm = ("optimize.inner_minimize", "optimize.outer_maximize")
    nfev = t.count("scipy.minimize", "nfev", under=("optimize.inner_minimize", nm))
    nit = t.count("scipy.minimize", "nit", under=("optimize.inner_minimize", nm))
    rejections = t.count("optimize.inner_minimize", "rejections")
    attempts = t.count("model.mcmc_free_energy", "attempts")
    energies = t.count("model.enumerate_free_energy", "config_energies")
    parisi_calls = t.calls("functional.eval_parisi")
    m = {
        "optimize.outer_maximize.s": t.total("optimize.outer_maximize"),
        "optimize.inner_minimize.calls": t.calls("optimize.inner_minimize"),
        "optimize.inner_minimize.self_s": t.layer_self_time("optimize.inner_minimize"),
        "optimize.objective_evals": nfev,
        "optimize.nm_iterations": nit,
        "optimize.rejections": rejections,
        "optimize.feasible_ratio": _ratio(nfev - rejections, nfev),
        "functional.eval_parisi.calls": parisi_calls,
        "functional.eval_parisi.s": t.total("functional.eval_parisi"),
        "functional.eval_parisi.us_per_call": _ratio(
            t.total("functional.eval_parisi"), parisi_calls, 1e6
        ),
        "functional.eval_parisi.wall_share": _ratio(t.total("functional.eval_parisi"), traced_wall),
        "functional.eval_phi.node_evaluations": t.count("functional.eval_phi", "node_evaluations"),
        "core.from_increments.calls": t.calls("core.from_increments"),
        "core.from_increments.s": t.total("core.from_increments"),
        "functional.eval_phi_cascade_mc.s": t.total("functional.eval_phi_cascade_mc"),
        "functional.eval_lower_bound.s": t.total("functional.eval_lower_bound"),
        "functional.eval_f1_restricted.s": t.total("functional.eval_f1_restricted"),
        "cascade.sample_cascade.calls": t.calls("cascade.sample_cascade"),
        "cascade.sample_cascade.s": t.total("cascade.sample_cascade"),
        "cascade.sample_leaf_fields.s": t.total("cascade.sample_leaf_fields"),
        "cascade.leaves": t.count("cascade.sample_cascade", "leaves"),
        "cascade.leaf_bytes": t.count("cascade.sample_leaf_fields", "leaf_bytes"),
        "cascade.verify_y_identity.s": t.total("cascade.verify_y_identity"),
        "cascade.coincidence_masses.s": t.total("cascade.coincidence_masses"),
        "model.mcmc_free_energy.s": t.total("model.mcmc_free_energy"),
        "model.metropolis_attempts": attempts,
        "model.us_per_attempt": _ratio(t.total("model.mcmc_free_energy"), attempts, 1e6),
        "model.pt_swap_acceptance": t.mean("model.mcmc_free_energy", "swap_acceptance"),
        "model.enumerate_free_energy.s": t.total("model.enumerate_free_energy"),
        "model.config_energies": energies,
        "model.ns_per_config_energy": _ratio(
            t.total("model.enumerate_free_energy"), energies, 1e9
        ),
        "diagnostics.gg_residual.s": t.total("diagnostics.gg_residual"),
        "diagnostics.sync_fit.s": t.total("diagnostics.sync_fit"),
        "diagnostics.interpolation_curve.s": t.total("diagnostics.interpolation_curve"),
        "diagnostics.legendre_gap.s": t.total("diagnostics.legendre_gap"),
        "util.map_indexed.calls": t.calls("util.map_indexed"),
        "util.map_indexed.tasks": t.count("util.map_indexed", "tasks"),
        "util.map_indexed.s": t.total("util.map_indexed"),
        "util.stream.calls": t.calls("util.stream"),
        "util.thread_speedup": speedup,
        "cli.main.calls": t.calls("cli.main"),
        "cli.main.self_s": t.layer_self_time("cli.main"),
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    return m
