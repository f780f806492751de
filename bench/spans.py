"""Span recording for traced benchmark samples, and the per-layer analysis.

A span is one call of a metricspin function: ``id``, ``name``
(``<layer>.<function>``), ``start`` and ``end`` (``time.perf_counter`` in
the sample process), ``parent`` (id of the enclosing span) and ``run``
(the sample id, shared by every span of one sample).  Spans stay in
memory and are written out when the sample ends.

:func:`instrument` wraps functions from outside the package: every
metricspin function that ``cli``, ``sweep`` and ``model`` reach through
their module globals is replaced, at that name, by a recording wrapper.
Nothing under ``src/`` is edited, and an untraced sample never imports
this module.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
import tracemalloc

#: package module -> layer; ``operators`` is folded into ``model``, its only user
LAYERS = {
    "metricspin.config": "config",
    "metricspin.cli": "cli",
    "metricspin.sweep": "sweep",
    "metricspin.model": "model",
    "metricspin.operators": "model",
    "metricspin.serialize": "serialize",
    "metricspin.lattice": "lattice",
    "metricspin.gravity": "gravity",
}
LAYER_NAMES = tuple(dict.fromkeys(LAYERS.values()))

#: modules whose globals are the call sites that get wrapped
CALLERS = ("metricspin.cli", "metricspin.sweep", "metricspin.model")

#: not wrapped: ``main`` is the sample's root span (``run``), and ``fmt``
#: runs once per number, so a span per call would swamp the rows it
#: renders; its cost stays in the self time of the function rendering them
NOT_WRAPPED = {"main", "fmt"}

ROOT = "run"


class Recorder:
    """Spans of one sample process, kept in memory."""

    def __init__(self, run: int):
        self.run = run
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name, fn, args=(), kwargs=None, alloc_peak=False):
        """Run ``fn`` inside a span; return ``(span, result)``.

        ``alloc_peak`` runs tracemalloc around the call and stores its
        peak in the span as ``alloc_peak`` (bytes).
        """
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run, "start": 0.0, "end": 0.0}
        self.spans.append(span)
        self._stack.append(span["id"])
        if alloc_peak:
            tracemalloc.start()
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span["end"] = time.perf_counter()
            if alloc_peak:
                span["alloc_peak"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()
        return span, result

    def wrap(self, name, fn, measure=None, alloc_peak=False):
        """Recording wrapper; ``measure(args, result)`` adds span fields."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, result = self.call(name, fn, args, kwargs, alloc_peak)
            if measure is not None:
                span.update(measure(args, result))
            return result

        return wrapper


# Computed flop counts of the dense algorithm (real flops; one complex
# multiply-add is 8).  Assembly: two d x d complex products.  eigh with
# eigenvectors: about 9 d^3 real flops (Golub & Van Loan), 4x for complex.
# observable_trace: the (T x d)(d x d) state product and the (T x d)(d x d)
# energy product.
def _assemble_flops(args, h):
    d = h.matrix.dim
    return {"flops": 16 * d ** 3 if h.g != 0.0 else 0}


def _eigh_flops(args, result):
    return {"flops": 36 * args[0].matrix.dim ** 3}


def _observe_flops(args, trace):
    return {"flops": 16 * trace.times.size * args[0].matrix.dim ** 2}


def _bytes_written(args, path):
    return {"bytes": os.path.getsize(path)}


#: spans that also record a tracemalloc peak (traced samples only)
ALLOC_PEAK = {"model.observable_trace"}

MEASURES = {
    "model.build_minimal_hamiltonian": _assemble_flops,
    "model.observable_trace": _observe_flops,
    "serialize.write_text": _bytes_written,
}


def instrument(recorder: Recorder) -> None:
    """Wrap every metricspin function called through the caller modules."""
    for caller in CALLERS:
        module = sys.modules[caller]
        for attr, obj in list(vars(module).items()):
            if (not inspect.isfunction(obj) or attr in NOT_WRAPPED
                    or obj.__module__ not in LAYERS):
                continue
            name = f"{LAYERS[obj.__module__]}.{obj.__name__}"
            setattr(module, attr, recorder.wrap(name, obj, MEASURES.get(name),
                                                alloc_peak=name in ALLOC_PEAK))

    # eigh runs on the first access of the cached eigensystem property
    model = sys.modules["metricspin.model"]
    cls = model.MinimalHamiltonian
    prop = functools.cached_property(
        recorder.wrap("model.eigensystem", cls.__dict__["eigensystem"].func, _eigh_flops))
    prop.__set_name__(cls, "eigensystem")
    cls.eigensystem = prop


# ---------------------------------------------------------------- analysis

#: per-layer ``*_s`` metrics: the summed self time of these span names
SELF_TIME_METRICS = {
    "model.assemble_s": ("model.build_minimal_hamiltonian",),
    "model.eigh_s": ("model.eigensystem",),
    "model.observe_s": ("model.observable_trace",),
    "sweep.diagnostic_s": ("sweep.revival_diagnostic",),
    "serialize.render_s": ("serialize.render_csv", "serialize.render_manifest"),
    "serialize.sha256_s": ("serialize.sha256_hex",),
    "serialize.write_s": ("serialize.write_text",),
    "lattice.dispersion_s": ("lattice.dispersion",),
    "lattice.coefficients_s": ("lattice.low_energy_coefficients",),
    "gravity.site_hamiltonian_s": ("gravity.quadratic_site_hamiltonian",),
    "gravity.spacing_s": ("gravity.spectrum_spacing",),
    "config.parse_s": ("config.parse_config",),
}
CALL_METRICS = {
    "model.assemble_calls": "model.build_minimal_hamiltonian",
    "model.eigh_calls": "model.eigensystem",
    "model.observe_calls": "model.observable_trace",
}
DENSE_KERNELS = ("model.build_minimal_hamiltonian", "model.eigensystem",
                 "model.observable_trace")


def sample_metrics(spans: list[dict]) -> tuple[dict[str, float], list[float]]:
    """Per-layer numbers of one traced sample, and its per-Hamiltonian latencies.

    A span's self time is its duration minus the durations of its child
    spans (children of one span never overlap: the sample is
    single-threaded).  ``uncovered_s`` is the part of the root span that
    no layer span covers.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    self_time = [s["end"] - s["start"] - c for s, c in zip(spans, child_time)]

    by_name: dict[str, list[int]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s["id"])

    def self_of(*names):
        return sum(self_time[i] for n in names for i in by_name.get(n, ()))

    out = {metric: self_of(*names) for metric, names in SELF_TIME_METRICS.items()}
    out.update({metric: float(len(by_name.get(name, ())))
                for metric, name in CALL_METRICS.items()})
    for layer in LAYER_NAMES:
        out[f"{layer}.self_s"] = sum(t for s, t in zip(spans, self_time)
                                     if s["name"].startswith(layer + "."))
    out["uncovered_s"] = self_of(ROOT)
    out["sweep.run_s"] = sum(spans[i]["end"] - spans[i]["start"]
                             for i in by_name.get("sweep.run_sweep", ()))
    out["serialize.bytes_out"] = float(sum(spans[i].get("bytes", 0)
                                           for i in by_name.get("serialize.write_text", ())))
    peaks = [spans[i].get("alloc_peak", 0) for i in by_name.get("model.observable_trace", ())]
    out["model.observe_peak_mb"] = max(peaks, default=0) / 2 ** 20
    flops = sum(spans[i].get("flops", 0) for n in DENSE_KERNELS for i in by_name.get(n, ()))
    busy = self_of(*DENSE_KERNELS)
    out["model.dense_gflop"] = flops / 1e9
    out["model.dense_gflops_eff"] = flops / busy / 1e9 if busy > 0 else 0.0
    return {k: float(v) for k, v in out.items()}, point_latencies(spans)


def point_latencies(spans: list[dict]) -> list[float]:
    """Seconds per Hamiltonian: assembly start to the end of its trace.

    Pairs each ``observable_trace`` span with the latest
    ``build_minimal_hamiltonian`` span under the same parent before it.
    """
    latest_build: dict = {}
    out = []
    for s in spans:
        if s["name"] == "model.build_minimal_hamiltonian":
            latest_build[s["parent"]] = s
        elif s["name"] == "model.observable_trace" and s["parent"] in latest_build:
            out.append(s["end"] - latest_build.pop(s["parent"])["start"])
    return out


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile; 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]
