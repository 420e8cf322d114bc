"""In-memory spans and counts for the traced run, and the per-layer metrics.

A span has a name, start, end, parent and request id.  Spans are kept in
memory and written out when the run ends.  A span's self time is its
duration minus the durations of its children (children never overlap,
because one caller runs one call at a time).  Probe spans re-call a
public function on a request's intermediates; they carry ``probe`` and
have no parent, so they stay outside the request span.

This module imports nothing but the standard library, so the child
interpreter can load it before timing ``import ddi.cli``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# Counts whose per-request values must repeat exactly at a fixed seed.
EXACT_COUNTS = ("inference.mvee_iterations", "inference.support_ratio",
                "designs.certified_ratio")


class Tracer:
    """Records spans and per-request counts of one traced run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: list[dict] = []  # one {"request", "name", "value"} per count
        self.request = 0
        self.captured: list = []  # (matrix, counter-image) per result, for the probes
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, probe: bool = False):
        record = {
            "name": name,
            "request": self.request,
            "parent": None if probe or not self._stack else self._stack[-1],
            "probe": probe,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        outer = self._stack
        if probe:
            self._stack = []
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self._stack = outer

    def count(self, name: str, value: float) -> None:
        self.counts.append({"request": self.request, "name": name, "value": value})

    def adopt(self, spans: list[dict], counts: list[dict]) -> None:
        """Append spans and counts recorded in a child interpreter.

        Their request id becomes the current one, and their roots become
        children of the span now open (probe roots stay parentless).
        """
        parent = self._stack[-1] if self._stack else None
        offset = len(self.spans)
        for span in spans:
            span = dict(span, request=self.request)
            if span["parent"] is not None:
                span["parent"] += offset
            elif not span["probe"]:
                span["parent"] = parent
            self.spans.append(span)
        for count in counts:
            self.count(count["name"], count["value"])

    def self_times(self) -> list[float]:
        own = [span["end"] - span["start"] for span in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        return own

    def per_request(self, name: str) -> dict[int, list[float]]:
        values: dict[int, list[float]] = {}
        for count in self.counts:
            if count["name"] == name:
                values.setdefault(count["request"], []).append(count["value"])
        return values


def traced_ddi_on_ball(tracer: Tracer):
    """``ddi_on_ball`` as its two calls, ``mvee`` then ``assemble_result``.

    Each call gets its own span, the solver's iterations and support
    ratio are counted, and every result's matrix and counter-image are
    kept in ``tracer.captured`` for the probes.
    """
    import inspect

    from ddi import inference
    from ddi.errors import NoConvergenceError

    signature = inspect.signature(inference.ddi_on_ball)

    def ddi_on_ball(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        cloud, eps, max_iter, design_tol = bound.args
        try:
            with tracer.span("inference.mvee"):
                ellipsoid = inference.mvee(cloud, eps, max_iter)
        except NoConvergenceError:
            tracer.count("inference.no_convergence", 1)
            raise
        weights = ellipsoid.support_weights
        tracer.count("inference.mvee_iterations", ellipsoid.iterations)
        tracer.count("inference.support_ratio", int((weights > 0).sum()) / len(weights))
        with tracer.span("inference.assemble"):
            result = inference.assemble_result(ellipsoid, cloud, design_tol)
        tracer.captured.append((result.measurement.matrix, result.counter_image.points))
        return result

    return ddi_on_ball


@contextmanager
def patched_global(function, name: str, replacement):
    """Rebind ``name`` in the module namespace ``function`` looks it up in."""
    namespace = function.__globals__
    original = namespace[name]
    namespace[name] = replacement
    try:
        yield
    finally:
        namespace[name] = original


def layer_metrics(tracer: Tracer, requests: list[int]) -> dict[str, float]:
    """Per-layer metrics over the given traced request ids.

    Times are mean self time per request, in ms, one metric per span name
    (``<span name>_ms``).  A layer no request exercised has no span and
    is absent from the result, never zero.
    """
    wanted = set(requests)
    n = len(wanted)
    metrics: dict[str, float] = {}
    if n == 0:
        return metrics
    totals: dict[str, float] = {}
    for span, own in zip(tracer.spans, tracer.self_times()):
        if span["request"] in wanted and span["name"] != "request":
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
    for name, total in totals.items():
        metrics[f"{name}_ms"] = 1e3 * total / n

    def values(name):
        return [v for r, vs in tracer.per_request(name).items() if r in wanted for v in vs]

    iterations = values("inference.mvee_iterations")
    if iterations:
        metrics["inference.mvee_iterations"] = sum(iterations) / n
        mvee_s = totals.get("inference.mvee", 0.0)
        if sum(iterations) > 0:
            metrics["inference.mvee_us_per_iteration"] = 1e6 * mvee_s / sum(iterations)
    for name in ("inference.support_ratio", "designs.certified_ratio"):
        found = values(name)
        if found:
            metrics[name] = sum(found) / len(found)
    metrics["inference.no_convergence"] = float(sum(values("inference.no_convergence")))
    return metrics


def exact_counts(tracer: Tracer, requests: list[int]) -> dict[str, list[list[float]]]:
    """Per-request values of the counts that must repeat exactly."""
    out = {}
    for name in EXACT_COUNTS:
        per = tracer.per_request(name)
        out[name] = [per.get(r, []) for r in requests]
    return out
