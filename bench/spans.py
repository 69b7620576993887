"""Spans around busycycle's layer entry points, installed for a traced run.

The program carries no tracing of its own, so the benchmark wraps each
layer's entry points from the outside.  A wrapper records a span
(name, start, end, parent span) and a few counts, then calls the original.
Every module binding of the wrapped function is rebound, so callers that
imported the name (``analytics.integrate_adaptive``, ``cli.from_spec``,
``busycycle.beta_c``, ...) reach the wrapper too.  ``restore`` puts every
original back and ``verify_restored`` checks that each binding is the very
object it was before.

Service laws are immutable records whose residual tail and quantile are
closures, so the wrappers around ``from_spec`` and ``make_distribution``
return a copy of the law with those two callables wrapped.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
import sys
import time
from collections import Counter

import numpy as np

import busycycle.analytics as analytics
import busycycle.bounds as bounds
import busycycle.cli as cli
import busycycle.distributions as distributions
import busycycle.simulator as simulator
import busycycle.tables as tables


class Tracer:
    """Spans kept in memory, plus counts taken at the same boundaries."""

    def __init__(self):
        # finished spans as (id, name, start, end, parent id or -1); tuples
        # of atoms, which the cyclic garbage collector stops tracking
        self.spans = []
        self.counts = Counter()
        self.rel_se = []         # (law name, rel SE) per simulator estimate
        self._open = []          # (id, name) of the spans still running
        self._next_id = 0
        self._bindings = []      # (module, attribute, original)

    def call(self, name, fn, /, *args, **kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1][0] if self._open else -1
        self._open.append((span_id, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append((span_id, name, start, end, parent))

    def inside(self, name) -> bool:
        """Is the innermost open span called ``name``?"""
        return bool(self._open) and self._open[-1][1] == name

    # -- installing and removing the wrappers ------------------------------

    def _rebind(self, original, wrapper):
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._bindings.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        for mod, attr, make in _wrappers(self):
            original = getattr(mod, attr)
            wrapper = functools.wraps(original)(make(original))
            self._rebind(original, wrapper)

    def restore(self):
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)

    def verify_restored(self) -> list:
        """Bindings that are not the original object (empty when clean)."""
        return [f"{mod.__name__}.{attr}" for mod, attr, original in self._bindings
                if getattr(mod, attr) is not original]

    # -- aggregation -------------------------------------------------------

    def rel_se_by_law(self) -> dict:
        """Median relative standard error of the estimates, per service law."""
        by_law = {}
        for name, value in self.rel_se:
            by_law.setdefault(name, []).append(value)
        return {name: statistics.median(v) for name, v in by_law.items()}

    def summary(self, passes: int, speed: float = 1.0) -> dict:
        """Per-layer metrics; counts and seconds are per corpus pass, and
        seconds are multiplied by the host ``speed`` factor."""
        total, own = Counter(), Counter()
        calls = Counter()
        child = [0.0] * self._next_id
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for span_id, name, start, end, _ in self.spans:
            total[name] += (end - start) * speed
            own[name] += (end - start - child[span_id]) * speed
            calls[name] += 1
        c = self.counts
        per = float(passes)

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "cli.calls": (calls["cli"] / per, "count/pass"),
            "cli.self_s": (own["cli"] / per, "s/pass"),
            "tables.compute_s": (total["tables.compute"] / per, "s/pass"),
            "tables.registry_load_s": (total["tables.registry_load"] / per, "s/pass"),
            "tables.cells": (c["tables.cells"] / per, "count/pass"),
            "tables.status_drift": (c["tables.status_drift"] / per, "count/pass"),
            "bounds.report_calls": (calls["bounds.report"] / per, "count/pass"),
            "bounds.report_s": (total["bounds.report"] / per, "s/pass"),
            "analytics.beta_c_calls": (calls["analytics.beta_c"] / per, "count/pass"),
            "analytics.beta_c_self_s": (own["analytics.beta_c"] / per, "s/pass"),
            "analytics.series_calls": (calls["analytics.series"] / per, "count/pass"),
            "analytics.series_s": (total["analytics.series"] / per, "s/pass"),
        }
        for method in ("closed-form", "series", "quadrature"):
            m[f"analytics.method.{method}"] = (c[f"method.{method}"] / per, "count/pass")
        m.update({
            "quadrature.calls": (calls["quadrature"] / per, "count/pass"),
            "quadrature.panels": (c["quadrature.panels"] / per, "count/pass"),
            "quadrature.integrand_calls": (calls["quadrature.integrand"] / per, "count/pass"),
            "quadrature.integrand_points": (c["quadrature.integrand_points"] / per, "count/pass"),
            "quadrature.self_s": (own["quadrature"] / per, "s/pass"),
            "quadrature.kept_panel_ratio": (
                ratio(c["quadrature.panels"], calls["quadrature.integrand"]), "ratio"),
            "distributions.residual_tail_calls": (calls["distributions.residual_tail"] / per, "count/pass"),
            "distributions.residual_tail_points": (c["residual_tail_points"] / per, "count/pass"),
            "distributions.residual_tail_s": (total["distributions.residual_tail"] / per, "s/pass"),
            "distributions.quantile_calls": (calls["distributions.quantile"] / per, "count/pass"),
            "distributions.quantile_draws": (c["quantile_draws"] / per, "count/pass"),
            "distributions.quantile_s": (total["distributions.quantile"] / per, "s/pass"),
            "distributions.from_spec_s": (total["distributions.from_spec"] / per, "s/pass"),
            "simulator.estimate_calls": (calls["simulator.estimate"] / per, "count/pass"),
            "simulator.cycles": (c["simulator.cycles"] / per, "count/pass"),
            "simulator.events": (c["simulator.events"] / per, "count/pass"),
            "simulator.rounds": (c["simulator.rounds"] / per, "count/pass"),
            "simulator.events_per_cycle": (
                ratio(c["simulator.events"], c["simulator.cycles"]), "ratio"),
            "simulator.draws_per_round": (
                ratio(c["simulator.events"], c["simulator.rounds"]), "ratio"),
            "simulator.self_s": (own["simulator.estimate"] / per, "s/pass"),
            "simulator.events_per_s": (
                ratio(c["simulator.events"], total["simulator.estimate"]), "1/s"),
            "simulator.rel_se": (
                statistics.median(v for _, v in self.rel_se) if self.rel_se else 0.0,
                "ratio"),
        })
        return m


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "busycycle"
                                    or name.startswith("busycycle."))]


def _size(x) -> int:
    return int(np.size(x))


def _wrap_law(tracer: Tracer, dist):
    """A copy of ``dist`` whose residual tail and quantile record spans."""
    rtail, quantile = dist.residual_tail_fn, dist.quantile_fn

    def residual_tail_fn(t):
        tracer.counts["residual_tail_points"] += _size(t)
        return tracer.call("distributions.residual_tail", rtail, t)

    def quantile_fn(u):
        draws = _size(u)
        tracer.counts["quantile_draws"] += draws
        if tracer.inside("simulator.estimate"):
            tracer.counts["simulator.events"] += draws
            tracer.counts["simulator.rounds"] += 1
        return tracer.call("distributions.quantile", quantile, u)

    return dataclasses.replace(dist, residual_tail_fn=residual_tail_fn,
                               quantile_fn=quantile_fn)


def _wrappers(tracer: Tracer):
    """(module, attribute, wrapper factory) for every traced entry point."""

    def span(name):
        def make(original):
            return lambda *a, **k: tracer.call(name, original, *a, **k)
        return make

    def law_builder(name):
        def make(original):
            def wrapper(*a, **k):
                return _wrap_law(tracer, tracer.call(name, original, *a, **k))
            return wrapper
        return make

    def compute_table(original):
        def wrapper(*a, **k):
            cells = tracer.call("tables.compute", original, *a, **k)
            tracer.counts["tables.cells"] += len(cells)
            tracer.counts["tables.status_drift"] += sum(
                c.status != c.expected_status for c in cells)
            return cells
        return wrapper

    def beta_c(original):
        def wrapper(*a, **k):
            result = tracer.call("analytics.beta_c", original, *a, **k)
            tracer.counts[f"method.{result.method}"] += 1
            return result
        return wrapper

    def integrate_adaptive(original):
        def wrapper(f, *a, **k):
            def integrand(x):
                tracer.counts["quadrature.integrand_points"] += _size(x)
                return tracer.call("quadrature.integrand", f, x)

            result = tracer.call("quadrature", original, integrand, *a, **k)
            tracer.counts["quadrature.panels"] += result[2]
            return result
        return wrapper

    def estimate(original):
        def wrapper(params, n_cycles, *a, **k):
            est = tracer.call("simulator.estimate", original, params,
                              n_cycles, *a, **k)
            tracer.counts["simulator.cycles"] += est.n_cycles * est.replications
            tracer.rel_se.append((params.service.name,
                                  est.std_error / est.beta_c_hat))
            return est
        return wrapper

    return [
        (cli, "main", span("cli")),
        (cli, "from_spec", law_builder("distributions.from_spec")),
        (distributions, "make_distribution",
         law_builder("distributions.make_distribution")),
        (tables, "compute_table", compute_table),
        (tables, "load_registry", span("tables.registry_load")),
        (bounds, "build_report", span("bounds.report")),
        (analytics, "beta_c", beta_c),
        (analytics, "exp_series", span("analytics.series")),
        (analytics, "_power_beta_series", span("analytics.series")),
        (analytics, "integrate_adaptive", integrate_adaptive),
        (simulator, "estimate_beta_c", estimate),
    ]

