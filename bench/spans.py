"""Span recorder for the traced run.

Spans are measured from outside the library: ``install`` replaces the
public library functions that ``anhosc.cli`` calls, in the ``anhosc.cli``
namespace, with wrappers that record a span per call. Each job is one
``cli`` span; a layer span is kept only when its caller is the job span
itself, so calls the library makes internally stay inside their caller's
self time. Spans inside the library are not recorded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import anhosc.cli
from anhosc.states import WaveFunction

JOB_SPAN = "cli"

#: anhosc.cli attribute -> layer span name.
CLI_LAYERS = {
    "auto_grid": "states.auto_grid",
    "normalize": "states.normalize",
    "verify_model": "verify.verify_model",
    "verify_coherent": "verify.verify_coherent",
    "model_superpotential": "models.eval",
    "eval_superpotential_derivative": "models.eval",
    "closed_form_potential": "models.eval",
    "superpotential_from_series": "generator.superpotential_from_series",
    "fit_expansion": "fit.fit_expansion",
}
SAMPLE_SPAN = "states.sample"
LAYERS = sorted({*CLI_LAYERS.values(), SAMPLE_SPAN})


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _counts(result) -> dict[str, int]:
    """Work counts a layer call returns: grid points, checks, iterations."""
    counts = {}
    checks = getattr(result, "checks", None)
    if checks is not None:
        counts["checks"] = len(checks)
        counts["checks_failed"] = sum(1 for *_, ok in checks if not ok)
    grid = getattr(result, "grid", None)
    if grid is not None:
        counts["points"] = grid.n
    iterations = getattr(result, "iterations", None)
    if iterations is not None:
        counts["iterations"] = iterations
    return counts


class SpanRecorder:
    """Keeps spans in memory; the run writes them out when it ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._job_span: int | None = None
        self._originals: dict[str, object] = {}

    def run_job(self, job: int, fn, *args):
        start = time.perf_counter()
        index = len(self.spans)
        self.spans.append(Span(JOB_SPAN, start, start, None, job))
        self._job_span = index
        try:
            return fn(*args)
        finally:
            self._job_span = None
            self.spans[index].end = time.perf_counter()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self._job_span
            if parent is None:
                return fn(*args, **kwargs)
            self._job_span = None  # nested calls are not the job's children
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._job_span = parent
            span = Span(name, start, end, parent, self.spans[parent].job, _counts(result))
            self.spans.append(span)
            return result

        return traced

    def install(self) -> None:
        for attr, name in CLI_LAYERS.items():
            self._originals[attr] = getattr(anhosc.cli, attr)
            setattr(anhosc.cli, attr, self._wrap(name, self._originals[attr]))
        self._originals["sample"] = WaveFunction.sample
        WaveFunction.sample = self._wrap(SAMPLE_SPAN, WaveFunction.sample)

    def uninstall(self) -> None:
        WaveFunction.sample = self._originals.pop("sample")
        for attr, fn in self._originals.items():
            setattr(anhosc.cli, attr, fn)
        self._originals.clear()

    def to_json(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.job, s.counts] for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [s.duration for s in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def layer_metrics(spans: list[Span], first_pass: set[int], bytes_per_pass: int,
                  overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Times are mean milliseconds per traced job. Counts are totals over the
    first traced pass of the pool, so they repeat exactly for one seed.
    """
    own = self_times(spans)
    jobs = sum(1 for s in spans if s.name == JOB_SPAN) or 1
    total = sum(s.duration for s in spans if s.name == JOB_SPAN)
    self_s = {name: 0.0 for name in [JOB_SPAN, *LAYERS]}
    calls = {name: 0 for name in self_s}
    counts: dict[str, dict[str, int]] = {name: {} for name in self_s}
    for span, t in zip(spans, own):
        self_s[span.name] += t
        if span.job in first_pass:
            calls[span.name] += 1
            for key, value in span.counts.items():
                counts[span.name][key] = counts[span.name].get(key, 0) + value

    def ms(name: str) -> float:
        return 1e3 * self_s[name] / jobs

    def per_s(names: list[str], key: str) -> float:
        busy = sum(self_s[name] for name in names)
        work = sum(s.counts.get(key, 0) for s in spans if s.name in names)
        return work / busy if busy else 0.0

    verify = ["verify.verify_model", "verify.verify_coherent"]
    generator = "generator.superpotential_from_series"
    return {
        "states.auto_grid.calls": calls["states.auto_grid"],
        "states.auto_grid.self_ms": ms("states.auto_grid"),
        "states.auto_grid.share": self_s["states.auto_grid"] / total if total else 0.0,
        "states.normalize.self_ms": ms("states.normalize"),
        "states.sample.self_ms": ms(SAMPLE_SPAN),
        "verify.verify_model.self_ms": ms("verify.verify_model"),
        "verify.verify_coherent.self_ms": ms("verify.verify_coherent"),
        "verify.points_per_s": per_s(verify, "points"),
        "verify.checks": sum(counts[name].get("checks", 0) for name in verify),
        "verify.checks_failed": sum(counts[name].get("checks_failed", 0) for name in verify),
        "models.eval.self_ms": ms("models.eval"),
        f"{generator}.self_ms": ms(generator),
        "generator.points_per_s": per_s([generator], "points"),
        "fit.fit_expansion.self_ms": ms("fit.fit_expansion"),
        "fit.iterations": counts["fit.fit_expansion"].get("iterations", 0),
        "cli.self_ms": ms(JOB_SPAN),
        "cli.bytes_written": bytes_per_pass,
        "trace.overhead_ratio": overhead_ratio,
    }
