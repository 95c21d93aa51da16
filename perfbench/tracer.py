"""Per-layer tracing from outside the program.

The tracer replaces public g2mono functions, in the namespace their
callers read them from, with wrappers that time each call.  Most
wrappers record a span (name, start, end, parent span, op id, thread);
hot scalar functions (`MetricProfile.h2`, `green_tail` and `s_of_rho`,
called once per right-hand side or sample point) only bump counters,
because a span per call would dominate what it measures.  Spans stay in
memory until `dump`.

Self time: each wrapper keeps a per-thread stack, so a call's time is
charged to its caller's child time when both run on one thread.  Spans
started on a sweep pool thread have the op's innermost open span on the
main thread (`cli.main`) as parent, and their union is subtracted from
that parent's duration after the run.  Such thread-root spans also carry
their thread's CPU time, which excludes time spent waiting for the GIL.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import NamedTuple, Optional

import numpy as np


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    thread: int
    child_s: float            # time of same-thread children, spans and counters
    cpu_s: Optional[float]    # thread CPU time, for spans that start a thread's stack

    @property
    def dur(self):
        return self.end - self.start


def targets():
    """(owner, attribute, layer name, kind) for every wrapped function."""
    from g2mono import cli, energy, fps, metric, ode, shooting
    return [
        (shooting, "solve_monopole", "shooting.solve_monopole", "span"),
        (shooting, "beta_of_mass", "shooting.beta_of_mass", "span"),
        (shooting, "profile_of_beta", "shooting.profile_of_beta", "span"),
        (shooting, "mass_of_beta", "shooting.mass_of_beta", "span"),
        (shooting, "v_series", "series.v_series", "span"),
        (ode, "integrate", "ode.integrate", "span"),
        (ode, "s_of_rho", "metric.s_of_rho", "counter"),
        (metric, "s_of_rho", "metric.s_of_rho", "counter"),
        (metric.MetricProfile, "series_coeffs", "metric.series_coeffs", "span"),
        (metric.MetricProfile, "h2", "metric.h2", "counter"),
        (metric.MetricProfile, "green_tail", "metric.green_tail", "counter"),
        (fps.FormalSeries, "reversion", "fps.reversion", "span"),
        (energy, "intermediate_energy", "energy.intermediate_energy", "span"),
        (cli, "main", "cli.main", "span"),
    ]


# Layers each workload must reach; a wrapper that never fires on its
# workload means a caller reads the function from another namespace and
# the layer metric would silently read zero.
_SOLVE = {"shooting.solve_monopole", "shooting.beta_of_mass",
          "shooting.profile_of_beta", "shooting.mass_of_beta", "series.v_series",
          "ode.integrate", "metric.series_coeffs", "metric.green_tail",
          "energy.intermediate_energy"}
EXPECTED = {
    "solve-flat": _SOLVE | {"metric.h2"},
    "solve-bs": _SOLVE | {"metric.s_of_rho", "metric.h2", "fps.reversion"},
    "sweep-bs": _SOLVE | {"metric.s_of_rho", "metric.h2", "fps.reversion",
                          "cli.main"},
    "beta-scan": {"shooting.mass_of_beta", "series.v_series", "ode.integrate",
                  "metric.series_coeffs", "metric.green_tail", "metric.h2",
                  "metric.s_of_rho", "fps.reversion"},
}


def _points(args, kwargs, result):
    return float(np.size(args[0] if args else kwargs["rho"]))


def _nfev(args, kwargs, result):
    return float(result.stats["nfev"])


# extra per-call quantities, summed per op: (layer, key) -> extractor
_EXTRA = {"metric.s_of_rho": ("points", _points), "ode.integrate": ("nfev", _nfev)}


class Tracer:
    def __init__(self):
        self.spans = []                                 # Span
        self.counters = defaultdict(lambda: [0, 0.0])   # (name, op) -> calls, self_s
        self.extra = defaultdict(float)                 # (name, key, op) -> sum
        self.fired = set()
        self.op = None
        self._main_stack = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = iter(range(1, 1 << 62))
        self._saved = []

    # -- installation -------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, kind in targets():
            orig = vars(owner)[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, kind))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- recording ----------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        for frame in reversed(stack or self._main_stack or ()):
            if frame[1] is not None:
                return frame[1]
        return None

    def _wrap(self, fn, name, kind):
        extra = _EXTRA.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids) if kind == "span" else None
            parent = tracer._parent(stack) if span_id else None
            cpu0 = None if stack else time.thread_time()
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
            op = tracer.op
            if span_id:
                tracer.spans.append(Span(
                    span_id, name, t0, t1, parent, op, threading.get_ident(),
                    frame[0], None if cpu0 is None else time.thread_time() - cpu0))
            with tracer._lock:
                tracer.fired.add(name)
                if kind == "counter":
                    c = tracer.counters[(name, op)]
                    c[0] += 1
                    c[1] += t1 - t0 - frame[0]
                if extra:
                    tracer.extra[(name, extra[0], op)] += extra[1](args, kwargs, result)
            return result
        return wrapper

    def run_op(self, op, fn, *args):
        """Run one benchmark op as the root span "op"."""
        self.op = op
        self._main_stack = self._stack()
        try:
            return self._wrap(fn, "op", "span")(*args)
        finally:
            self.op = None

    def dump(self, path):
        counters = [[name, op, c, t] for (name, op), (c, t) in self.counters.items()]
        with open(path, "w") as fh:
            json.dump({"span_fields": Span._fields, "spans": self.spans,
                       "counter_fields": ["name", "op", "calls", "self_s"],
                       "counters": counters}, fh)

    # -- analysis -----------------------------------------------------

    def self_times(self):
        """span id -> self time: duration minus same-thread child time
        minus the union of child spans on other threads."""
        by_id = {s.id: s for s in self.spans}
        cross = defaultdict(list)
        for s in self.spans:
            p = by_id.get(s.parent)
            if p is not None and p.thread != s.thread:
                cross[p.id].append((max(s.start, p.start), min(s.end, p.end)))
        return {s.id: s.dur - s.child_s - _union(cross.get(s.id, ()))
                for s in self.spans}


def _union(intervals) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(tracer: Tracer, ops, scale, sweep_threads=None) -> dict:
    """Per-op layer numbers over the op ids `ops` of the traced pass.

    `scale` maps op id to the factor that turns its wall seconds into
    reference-speed seconds; `sweep_threads` maps op id to the pool size
    the sweep sidecar reports.
    """
    ops = set(ops)
    selfs = tracer.self_times()
    calls, self_s = defaultdict(int), defaultdict(float)
    for s in tracer.spans:
        if s.op in ops:
            calls[s.name] += 1
            self_s[s.name] += selfs[s.id] * scale[s.op]
    for (name, op), (c, t) in tracer.counters.items():
        if op in ops:
            calls[name] += c
            self_s[name] += t * scale[op]
    extra = defaultdict(float)
    for (name, key, op), v in tracer.extra.items():
        if op in ops:
            extra[(name, key)] += v

    n = float(len(ops))
    m = {}
    for layer in ("metric.series_coeffs", "metric.h2", "metric.green_tail",
                  "fps.reversion", "series.v_series", "ode.integrate"):
        m[f"{layer}.calls_per_op"] = (calls[layer] / n, "count")
        m[f"{layer}.self_s_per_op"] = (self_s[layer] / n, "s")
    m["metric.s_of_rho.points_per_op"] = (extra[("metric.s_of_rho", "points")] / n, "count")
    m["metric.s_of_rho.self_s_per_op"] = (self_s["metric.s_of_rho"] / n, "s")
    nfev = extra[("ode.integrate", "nfev")]
    m["ode.nfev_per_op"] = (nfev / n, "count")
    m["ode.us_per_fev"] = (1e6 * self_s["ode.integrate"] / nfev if nfev else 0.0, "us")
    shots = calls["series.v_series"]
    m["ode.integrate.reruns_per_shot"] = (
        (calls["ode.integrate"] - shots) / shots if shots else 0.0, "ratio")
    solves = calls["shooting.solve_monopole"] or n
    m["shooting.shots_per_solve"] = (shots / solves, "count")
    for layer in ("shooting.beta_of_mass", "shooting.profile_of_beta",
                  "energy.intermediate_energy"):
        m[f"{layer}.self_s_per_op"] = (self_s[layer] / n, "s")

    m["cli.sweep.self_s_per_op"] = (self_s["cli.main"] / n, "s")
    # busy: CPU time of the per-mass solves the pool threads ran, over the
    # capacity wall x threads; the rest is GIL wait and idle threads
    busy = capacity = 0.0
    threads = 0
    sweeps = {s.id: s for s in tracer.spans if s.name == "cli.main" and s.op in ops}
    for s in sweeps.values():
        threads = sweep_threads[s.op]
        capacity += s.dur * threads
    for s in tracer.spans:
        if s.parent in sweeps and s.cpu_s is not None:
            busy += s.cpu_s
    m["cli.sweep.threads"] = (float(threads), "count")
    m["cli.sweep.busy_ratio"] = (busy / capacity if capacity else 0.0, "ratio")
    return m
