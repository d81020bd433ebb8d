"""Span tracing of the package's layers, installed from outside.

``Tracer.install()`` wraps each layer's public functions and rebinds
every name in every loaded ``dressedbath`` module that refers to the
original, so calls between modules are traced too.  Spans (name, start,
end, parent) stay in memory until ``write``.  A layer's self time is its
span time minus the time of its child spans; the spans of one process are
nested and never overlap, because the traced code runs on one thread.

Counters are taken at the same boundaries: calls, modes solved, time
points, mode x time points, and quadrature abscissae (the integrand passed
to ``adaptive_gk`` is wrapped and counts the size of every batch it is
asked for).  For the two layers whose memory grows with input size a
tracer made with ``peaks=True`` records the tracemalloc peak of each call
instead of timing: tracemalloc slows allocation-heavy code several-fold,
so peaks come from a separate pass and never distort the self times.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np


def _n_times(args, kwargs, pos):
    times = kwargs.get("times", args[pos] if len(args) > pos else None)
    return int(np.size(times))


# (module, function) -> (span name, counter hook or None, record peak memory)
LAYERS = {
    ("spectrum", "solve_finite_spectrum"): ("spectrum.finite", "modes", True),
    ("spectrum", "solve_cavity_spectrum"): ("spectrum.cavity", "modes", False),
    ("transform", "finite_matrix"): ("transform.finite_matrix", None, False),
    ("amplitudes", "f00_quadrature"): ("amplitudes.f00_quadrature", "points", True),
    ("amplitudes", "f00_closed"): ("amplitudes.f00_closed", "points", False),
    ("amplitudes", "bath_integral_J"): ("amplitudes.bath_integral_J", None, False),
    ("amplitudes", "f00_discrete"): ("amplitudes.f00_discrete", "mode_points", False),
    ("amplitudes", "cavity_survival_series"):
        ("amplitudes.cavity_survival_series", "mode_points", False),
    ("quadrature", "adaptive_gk"): ("quadrature.adaptive_gk", "evals", False),
    ("special", "exp1_scaled"): ("special", None, False),
    ("special", "ei_scaled"): ("special", None, False),
    ("brownian", "classical_path"): ("brownian", None, False),
    ("brownian", "path_closed_forms"): ("brownian", None, False),
    ("oracle", "eigen_decompose"): ("oracle.eigen_decompose", None, False),
    ("oracle", "cross_validate"): ("oracle.cross_validate", None, False),
    ("cli", "main"): ("cli", None, False),
}


class Tracer:
    def __init__(self, peaks=False):
        self.peaks = peaks
        self.spans = []          # [name, start, end, parent index]
        self.counts = Counter()
        self.peak_mb = defaultdict(float)
        self._stack = []
        self._installed = []

    def _count(self, name, hook, args, kwargs, result):
        self.counts[name + ".calls"] += 1
        if hook == "modes":
            self.counts[name + ".modes"] += result.n_modes_total
        elif hook == "points":
            self.counts[name + ".points"] += _n_times(args, kwargs, 1)
        elif hook == "mode_points":
            if name.endswith("f00_discrete"):
                n_modes = args[0].n_modes_total
            else:
                n_modes = int(np.size(kwargs.get("frequencies", args[1])))
            self.counts[name + ".mode_points"] += n_modes * _n_times(args, kwargs, 2)

    def _counted_integrand(self, func):
        counts = self.counts

        def integrand(x):
            counts["quadrature.integrand_evals"] += int(np.size(x))
            return func(x)

        return integrand

    def wrap(self, name, fn, hook=None, peak=False):
        def traced(*args, **kwargs):
            if hook == "evals":
                args = (self._counted_integrand(args[0]),) + args[1:]
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            measure = peak and self.peaks and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if measure:
                    mb = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.peak_mb[name] = max(self.peak_mb[name], mb)
                self._stack.pop()
                self.spans[index][1:3] = [start, end]
            self._count(name, hook, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every layer function in all loaded dressedbath modules."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "dressedbath" or key.startswith("dressedbath."))]
        for (module, func), (name, hook, peak) in LAYERS.items():
            home = sys.modules.get("dressedbath." + module)
            if home is None:
                continue
            original = getattr(home, func)
            wrapped = self.wrap(name, original, hook, peak)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._installed.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def self_times(self):
        """Total self seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            totals[name] += end - start - inner
        return totals

    def summary(self):
        """Self times, counts and peaks as one flat dict of plain numbers."""
        out = {f"{name}.self_s": value for name, value in self.self_times().items()}
        out.update(self.counts)
        out.update({f"{name}.peak_mb": value for name, value in self.peak_mb.items()})
        return out

    def write(self, path, **extra):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "summary": self.summary(), **extra}, handle)


def merge(summaries):
    """Add up per-process summaries; peaks take the maximum."""
    total = defaultdict(float)
    for summary in summaries:
        for key, value in summary.items():
            if key.endswith(".peak_mb"):
                total[key] = max(total[key], value)
            else:
                total[key] += value
    return total


# per-layer metric -> (unit, kind).  "round" values are totals divided by
# the number of traced rounds; "peak" and "median" values are reported as
# they are (the largest per-call peak, the median per-process import).
PER_LAYER = {
    "spectrum.finite.self_s": ("s", "round"),
    "spectrum.finite.calls": ("count", "round"),
    "spectrum.finite.modes": ("count", "round"),
    "spectrum.finite.peak_mb": ("MB", "peak"),
    "spectrum.cavity.self_s": ("s", "round"),
    "spectrum.cavity.modes": ("count", "round"),
    "transform.finite_matrix.self_s": ("s", "round"),
    "amplitudes.f00_quadrature.self_s": ("s", "round"),
    "amplitudes.f00_quadrature.points": ("count", "round"),
    "amplitudes.f00_quadrature.peak_mb": ("MB", "peak"),
    "amplitudes.f00_closed.self_s": ("s", "round"),
    "amplitudes.f00_closed.points": ("count", "round"),
    "amplitudes.bath_integral_J.self_s": ("s", "round"),
    "amplitudes.f00_discrete.self_s": ("s", "round"),
    "amplitudes.f00_discrete.mode_points": ("count", "round"),
    "amplitudes.cavity_survival_series.self_s": ("s", "round"),
    "amplitudes.cavity_survival_series.mode_points": ("count", "round"),
    "quadrature.adaptive_gk.self_s": ("s", "round"),
    "quadrature.adaptive_gk.calls": ("count", "round"),
    "quadrature.integrand_evals": ("count", "round"),
    "special.self_s": ("s", "round"),
    "brownian.self_s": ("s", "round"),
    "oracle.eigen_decompose.self_s": ("s", "round"),
    "oracle.eigen_decompose.calls": ("count", "round"),
    "oracle.cross_validate.self_s": ("s", "round"),
    "cli.import_s": ("s", "median"),
    "cli.self_s": ("s", "round"),
    "cli.bytes_out": ("count", "round"),
    "trace.overhead_s": ("s", "round"),
}


def per_layer_metrics(merged, rounds):
    """The per-layer metrics of a traced run; layers that did not run read 0."""
    metrics = {}
    for name, (unit, kind) in PER_LAYER.items():
        value = merged.get(name, 0.0)
        if kind == "round":
            value = value / rounds
        metrics[name] = {"value": float(value), "unit": unit}
    return metrics
