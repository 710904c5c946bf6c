"""Per-layer counts and self time for ``hh3``, installed from outside it.

The tracer replaces public functions of each module with timing wrappers,
at the names their callers look up: other modules import ``eval_jet3``,
``parse`` and ``evaluate`` by name, ``bounds.*`` and ``quadrature.*`` are
reached through the module attribute, and ``cli._RENDERERS`` holds the
render functions bound at import time.  Nothing under ``src/`` changes.

A span's self time is its duration minus the time of the spans it
encloses.  Counts are aggregated as they happen rather than kept as span
records, which keeps the overhead of the innermost wrapper (one jet) near a
microsecond.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import Counter, defaultdict

import hh3.analysis as analysis
import hh3.bounds as bounds
import hh3.cli as cli
import hh3.quadrature as quadrature
from hh3.errors import DomainError

JETS = "expr.eval_jet3"

#: Span name -> (attribute, the modules whose callers look it up there).
_TARGETS = {
    "cli.main": ("main", (cli,)),
    "cli.resolve": ("resolve", (cli,)),
    "expr.parse": ("parse", (cli, analysis)),
    JETS: ("eval_jet3", (quadrature, analysis, cli)),
    "expr.evaluate": ("evaluate", (quadrature,)),
    "bounds.direct_bound": ("direct_bound", (bounds,)),
    "bounds.best_bound": ("best_bound", (bounds,)),
    "bounds.holder_bound": ("holder_bound", (bounds,)),
    "bounds.power_mean_bound": ("power_mean_bound", (bounds,)),
    "quadrature.composite_bound": ("composite_bound", (quadrature,)),
    "quadrature.certify": ("certify", (quadrature,)),
    "quadrature.integrate_adaptive": ("integrate_adaptive",
                                      (quadrature, analysis)),
    "quadrature.identity_residual": ("identity_residual", (quadrature,)),
    "analysis.check_log_convexity": ("check_log_convexity", (analysis,)),
    "analysis.grid_samples": ("grid_samples", (analysis,)),
    "analysis.check_hermite_hadamard": ("check_hermite_hadamard",
                                        (analysis,)),
}


class Tracer:
    """Counts and self times from one traced pass."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.failed: Counter = Counter()
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self._open: list[float] = []    # child time of each open span
        self._in_certify = False
        self._last_composite_jets = 0

    # ----------------------------------------------------------------------
    # wrappers
    # ----------------------------------------------------------------------

    def span(self, name: str, fn, domain: bool = False):
        """Wrap ``fn`` so each call adds to ``name``'s count and self time."""
        open_spans, calls, self_s = self._open, self.calls, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self.failed[name] += 1
                if domain and isinstance(exc, DomainError):
                    self.counts["expr.domain_error.count"] += 1
                raise
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                calls[name] += 1
        return traced

    def _best_bound(self, fn):
        def best_bound(*args, **kwargs):
            report = fn(*args, **kwargs)
            if report.argmin_label != "chi1":
                self.counts["bounds.best_bound.useful"] += 1
            return report
        return best_bound

    def _composite_bound(self, fn):
        def composite_bound(*args, **kwargs):
            before = self.calls[JETS]
            try:
                return fn(*args, **kwargs)
            finally:
                self._last_composite_jets = self.calls[JETS] - before
                if self._in_certify:
                    self.counts["quadrature.certify.iterations"] += 1
        return composite_bound

    def _certify(self, fn):
        def certify(*args, **kwargs):
            before = self.calls[JETS]
            self._in_certify = True
            try:
                outcome = fn(*args, **kwargs)
                self.counts["quadrature.certify.useful_jets"] += \
                    self._last_composite_jets
                return outcome
            finally:
                self._in_certify = False
                self.counts["quadrature.certify.jets"] += \
                    self.calls[JETS] - before
        return certify

    def _integrate_adaptive(self, fn):
        counts = self.counts

        def integrate_adaptive(integrand, *args, **kwargs):
            def counted(x):
                counts["quadrature.integrate_adaptive.evals"] += 1
                return integrand(x)
            return fn(counted, *args, **kwargs)
        return integrate_adaptive

    def _render(self, fn):
        def render(*args, **kwargs):
            text = fn(*args, **kwargs)
            self.counts["reportfmt.render.bytes"] += len(text.encode("utf-8"))
            return text
        return render

    # ----------------------------------------------------------------------
    # installation
    # ----------------------------------------------------------------------

    def _sites(self):
        """(span name, namespace dict, key) for every name to wrap."""
        for name, (attr, modules) in _TARGETS.items():
            for module in modules:
                yield name, vars(module), attr
        yield "reportfmt.render", vars(cli), "rows_to_csv"
        for fmt in sorted(cli._RENDERERS):
            yield "reportfmt.render", cli._RENDERERS, fmt

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        extras = {"bounds.best_bound": self._best_bound,
                  "quadrature.composite_bound": self._composite_bound,
                  "quadrature.certify": self._certify,
                  "quadrature.integrate_adaptive": self._integrate_adaptive,
                  "reportfmt.render": self._render}
        saved = []
        wrapped: dict = {}   # one wrapper per function, shared by importers
        try:
            for name, space, key in self._sites():
                original = space[key]
                if id(original) not in wrapped:
                    inner = extras[name](original) if name in extras \
                        else original
                    wrapped[id(original)] = self.span(
                        name, inner, domain=name in (JETS, "expr.evaluate"))
                saved.append((space, key, original))
                space[key] = wrapped[id(original)]
            yield self
        finally:
            for space, key, original in reversed(saved):
                space[key] = original

    # ----------------------------------------------------------------------
    # results
    # ----------------------------------------------------------------------

    def exact_counts(self) -> dict:
        """Every count that must repeat exactly between traced passes."""
        out = {f"{name}.calls": n for name, n in sorted(self.calls.items())}
        out.update({f"{name}.failed": n
                    for name, n in sorted(self.failed.items())})
        out.update(sorted(self.counts.items()))
        return out


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(passes: list[Tracer]) -> dict:
    """Per-layer metrics: counts from the first pass, median self times."""
    first = passes[0]

    def self_s(name):
        return statistics.median(t.self_s.get(name, 0.0) for t in passes)

    calls, counts = first.calls, first.counts
    jet_s = self_s(JETS)
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("cli.resolve.self_s", self_s("cli.resolve"), "s")
    put("cli.main.self_s", self_s("cli.main"), "s")
    for name in ("expr.parse", JETS, "expr.evaluate"):
        put(f"{name}.calls", calls[name], "count")
        put(f"{name}.self_s", self_s(name), "s")
    put("expr.eval_jet3.us_per_call", 1e6 * jet_s / max(1, calls[JETS]), "us")
    put("expr.domain_error.count", counts["expr.domain_error.count"], "count")
    for name in ("bounds.direct_bound", "bounds.best_bound"):
        put(f"{name}.calls", calls[name], "count")
        put(f"{name}.self_s", self_s(name), "s")
    put("bounds.best_bound.failed", first.failed["bounds.best_bound"], "count")
    put("bounds.holder_bound.calls", calls["bounds.holder_bound"], "count")
    put("bounds.power_mean_bound.calls", calls["bounds.power_mean_bound"],
        "count")
    put("bounds.best_bound.useful_ratio",
        _ratio(counts["bounds.best_bound.useful"], calls["bounds.best_bound"]),
        "ratio")
    name = "quadrature.composite_bound"
    put(f"{name}.calls", calls[name], "count")
    put(f"{name}.self_s", self_s(name), "s")
    name = "quadrature.certify"
    put(f"{name}.calls", calls[name], "count")
    put(f"{name}.self_s", self_s(name), "s")
    put(f"{name}.iterations", counts[f"{name}.iterations"], "count")
    put(f"{name}.failed", first.failed[name], "count")
    put(f"{name}.useful_ratio",
        _ratio(counts[f"{name}.useful_jets"], counts[f"{name}.jets"]), "ratio")
    name = "quadrature.integrate_adaptive"
    put(f"{name}.calls", calls[name], "count")
    put(f"{name}.self_s", self_s(name), "s")
    put(f"{name}.evals", counts[f"{name}.evals"], "count")
    put(f"{name}.failed", first.failed[name], "count")
    put("quadrature.identity_residual.self_s",
        self_s("quadrature.identity_residual"), "s")
    for name in ("analysis.check_log_convexity",
                 "analysis.check_hermite_hadamard"):
        put(f"{name}.calls", calls[name], "count")
        put(f"{name}.self_s", self_s(name), "s")
    put("analysis.grid_samples.self_s", self_s("analysis.grid_samples"), "s")
    put("reportfmt.render.calls", calls["reportfmt.render"], "count")
    put("reportfmt.render.self_s", self_s("reportfmt.render"), "s")
    put("reportfmt.render.bytes", counts["reportfmt.render.bytes"], "bytes")
    return m
