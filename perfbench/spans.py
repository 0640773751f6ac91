"""In-memory span tracing around the public calls between rankmoments layers.

`install()` replaces module-level callables of the package with thin
wrappers that record one span (name, start, end, parent) per call. The
wrappers are bound wherever the original function object is bound in a
loaded ``rankmoments`` module, so a call from one layer into another goes
through them no matter which module imported the name. Integrands handed
to ``integrate_adaptive`` are wrapped too: each integrand call is one
GK15 panel.

Spans stay in a list until the traced process ends; `aggregate()` turns
a span list into the per-layer metrics.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time

# (home module, attribute, span name). A target missing from its module is
# skipped, so the tracer keeps working when a later version renames or
# removes a function; its metrics then read 0.
TARGETS = (
    ("rankmoments.orthant", "w_integral", "orthant.w_integral"),
    ("rankmoments.binormal", "derive_pattern_matrices", "binormal.derive"),
    ("rankmoments.binormal", "omegas", "binormal.omegas"),
    ("rankmoments.binormal", "omega4", "binormal.omega4"),
    ("rankmoments.binormal", "lemma2_moments", "binormal.exact_moments"),
    ("rankmoments.binormal", "var_rs_exact", "binormal.exact_moments"),
    ("rankmoments.binormal", "cov_rs_rk_exact", "binormal.exact_moments"),
    ("rankmoments.binormal", "var_rs_asymptotic", "binormal.exact_moments"),
    ("rankmoments.binormal", "cov_rs_rk_asymptotic", "binormal.exact_moments"),
    ("rankmoments.estimators", "are", "estimators.are"),
    ("rankmoments.estimators", "bias_theoretical", "estimators.theory"),
    ("rankmoments.estimators", "variance_theoretical", "estimators.theory"),
    ("rankmoments.contaminated", "sample_contaminated_block",
     "contaminated.sample"),
    ("rankmoments.contaminated", "expected_rs_contaminated",
     "contaminated.theory"),
    ("rankmoments.contaminated", "expected_rk_contaminated",
     "contaminated.theory"),
    ("rankmoments.contaminated", "rival_formula_star", "contaminated.theory"),
    ("rankmoments.simulate", "sample_binormal_block", "simulate.sample"),
    ("rankmoments.simulate", "run_experiment", "simulate.run_experiment"),
    ("rankmoments.correlation", "count_inversions",
     "correlation.count_inversions"),
    ("rankmoments.correlation", "pearson", "correlation.pearson"),
    ("rankmoments.correlation", "spearman", "correlation.spearman"),
    ("rankmoments.correlation", "kendall", "correlation.kendall"),
)
QUADRATURE = ("rankmoments.quadrature", "integrate_adaptive")

SAMPLER_SPANS = ("simulate.sample", "contaminated.sample")
THEORY_SPANS = ("binormal.exact_moments", "estimators.theory",
                "contaminated.theory")


class Tracer:
    """Collects spans as [name, start, end, parent index] lists."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def call(self, name, fn, *args, **kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = [name, 0.0, 0.0, stack[-1] if stack else -1]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()


def _wrap(tracer, fn, name):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)
    return traced


def _wrap_quadrature(tracer, fn, integrand_name):
    @functools.wraps(fn)
    def traced(f, *args, **kwargs):
        def integrand(x):
            return tracer.call(integrand_name, f, x)
        return tracer.call("quadrature", fn, integrand, *args, **kwargs)
    return traced


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "rankmoments"
                                  or name.startswith("rankmoments."))]


def install(tracer: Tracer) -> list:
    """Wrap every target in place; return the names of targets not found."""
    modules = _package_modules()
    missing = []
    for home, attr, name in TARGETS:
        original = getattr(sys.modules.get(home), attr, None)
        if original is None:
            missing.append(f"{home}.{attr}")
            continue
        wrapper = _wrap(tracer, original, name)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    home, attr = QUADRATURE
    original = getattr(sys.modules.get(home), attr, None)
    if original is None:
        missing.append(f"{home}.{attr}")
        return missing
    for module in modules:
        short = module.__name__.rpartition(".")[2]
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, _wrap_quadrature(
                    tracer, original, f"{short}.integrand"))
    return missing


class SpanIndex:
    """Span list with parent/child links for the aggregate queries."""

    def __init__(self, spans):
        self.spans = spans
        self.children = [[] for _ in spans]
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                self.children[parent].append(i)

    def duration(self, i):
        return self.spans[i][2] - self.spans[i][1]

    def named(self, name):
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def count(self, name):
        return len(self.named(name))

    def _outermost(self, name):
        out = []
        for i in self.named(name):
            parent = self.spans[i][3]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                out.append(i)
        return out

    def total(self, name):
        """Wall time under spans of this name, recursion counted once."""
        return math.fsum(self.duration(i) for i in self._outermost(name))

    def self_time(self, name):
        """Time in spans of this name not covered by their child spans."""
        return math.fsum(self.duration(i)
                         - sum(self.duration(c) for c in self.children[i])
                         for i in self.named(name))

    def self_time_excluding(self, i, names):
        """Span i minus its direct children whose names are listed."""
        return self.duration(i) - sum(self.duration(c)
                                      for c in self.children[i]
                                      if self.spans[c][0] in names)


COUNT_METRICS = (
    "quadrature.calls", "quadrature.panels", "orthant.w_integral.calls",
    "binormal.omega_cache_hits", "binormal.omega_cache_misses",
    "correlation.count_inversions.calls", "simulate.blocks",
)


def aggregate(spans) -> dict:
    """Per-layer metrics of one traced operation, keyed by metric name."""
    ix = SpanIndex(spans)
    derives = sorted(ix.named("binormal.derive"), key=lambda i: spans[i][1])
    omega_calls = ix._outermost("binormal.omegas")
    cold = [i for i in omega_calls if ix.children[i]]
    warm = [i for i in omega_calls if not ix.children[i]]
    integrands = [n for n in {s[0] for s in spans}
                  if n.endswith(".integrand")]
    return {
        "quadrature.calls": ix.count("quadrature"),
        "quadrature.panels": sum(ix.count(n) for n in integrands),
        "quadrature.self_s": ix.self_time("quadrature"),
        "orthant.w_integral.calls": ix.count("orthant.w_integral"),
        "orthant.w_integral_s": ix.total("orthant.w_integral"),
        "orthant.integrand_s": ix.total("orthant.integrand"),
        "binormal.first_derive_s": ix.duration(derives[0]) if derives else 0.0,
        "binormal.derive_s": math.fsum(ix.duration(i) for i in derives[1:]),
        "binormal.omega4_s": ix.total("binormal.omega4"),
        "binormal.omegas_cold_s": math.fsum(ix.duration(i) for i in cold),
        "binormal.omegas_warm_s": math.fsum(ix.duration(i) for i in warm),
        "binormal.omega_cache_hits": len(warm),
        "binormal.omega_cache_misses": len(cold),
        "binormal.exact_moments_s": ix.total("binormal.exact_moments"),
        "estimators.are_s": ix.total("estimators.are"),
        "estimators.theory_s": ix.total("estimators.theory"),
        "contaminated.sample_s": ix.total("contaminated.sample"),
        "contaminated.theory_s": ix.total("contaminated.theory"),
        "simulate.sample_s": ix.total("simulate.sample"),
        "correlation.count_inversions.calls":
            ix.count("correlation.count_inversions"),
        "correlation.count_inversions_s":
            ix.total("correlation.count_inversions"),
        "simulate.blocks": sum(ix.count(n) for n in SAMPLER_SPANS),
        "correlation.pearson_s": ix.total("correlation.pearson"),
        "correlation.spearman_s": ix.total("correlation.spearman"),
        "correlation.kendall_s": ix.total("correlation.kendall"),
        "cli.self_s": ix.self_time("cli.main"),
    }
