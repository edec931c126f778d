"""The telemetry budget: span sampling and self-metered recording cost.

Observability is not free -- every span, metric sample and trace event
costs wall-clock time on the kernel hot path and bytes of retained
state.  The ROADMAP's hot-path campaign asks for "cheaper span/metric
recording when sampling", which requires two things this module
provides:

* :class:`SpanSampler` -- head-based probabilistic span sampling whose
  keep/drop decision is a pure function of ``(seed, root index)``.  No
  wall clock, no ambient RNG: the same run config samples the same
  traces on every machine, so checkpoint/resume/replay stay
  byte-identical with sampling on (spans never feed the system digest,
  and the decision stream is deterministic anyway).
* :class:`OverheadMeter` -- per-component counters and wall-clock
  accumulators that :class:`~repro.observability.spans.SpanRecorder`,
  :class:`~repro.simulation.metrics.MetricsRecorder`,
  :class:`~repro.simulation.trace.TraceLog` and
  :class:`~repro.observability.instrument.Instrument` update inline when
  a meter is attached (one ``is None`` check each when it is not).

:func:`telemetry_health` rolls both into one exportable dict -- spans
retained, ring-buffer drops, bytes held, recording fraction -- which the
HTML report renders as "Telemetry health" and the Prometheus exposition
exports under ``repro_observability_overhead_*``.

Like the persistence runner's save telemetry, nothing here emits trace
events or counters: the meter must be attachable to a journaled run
without perturbing its digest chain.
"""

from __future__ import annotations

from itertools import islice
from time import perf_counter
from typing import Any, Dict, List, Optional

_MASK64 = (1 << 64) - 1

#: Span categories the sampler never drops.  Injection/recovery spans
#: root the fault index the diagnosis engine walks, and persistence
#: spans audit checkpoint cost; losing them to sampling would blind the
#: exact consumers sampling exists to keep cheap.
ALWAYS_SAMPLE_CATEGORIES = frozenset({"injection", "recovery", "persistence"})

#: Sentinel trace id carried by spans whose root lost the sampling coin
#: flip.  Children see it in the propagated context and drop themselves
#: without a second sampler consultation, so whole traces are kept or
#: dropped atomically (head-based sampling).
DROPPED_TRACE_ID = "t!"


def _mix64(value: int) -> int:
    """SplitMix64 finalizer: a cheap, well-distributed 64-bit mix.

    Chosen over a cryptographic hash because this runs once per root
    span on the kernel hot path; three multiplies and shifts keep the
    sampled fast path far below the cost of recording the span it
    elides.
    """
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


class SpanSampler:
    """Deterministic head-based sampling decisions for root spans.

    ``keep(index)`` hashes the run seed with the root's trace ordinal
    and keeps the trace when the hash falls below ``rate`` of the 64-bit
    space.  Decisions are independent per trace and reproducible across
    processes -- the property replay and resume rely on.
    """

    def __init__(self, rate: float, seed: int = 0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sampling rate {rate} outside [0, 1]")
        self.rate = float(rate)
        self.seed = int(seed)
        self._threshold = int(self.rate * float(1 << 64))
        self._base = _mix64(self.seed & _MASK64)
        self.decisions = 0
        self.kept = 0

    def keep(self, index: int) -> bool:
        """Deterministic keep/drop for the root span with ordinal ``index``.

        The SplitMix64 finalizer is inlined (not a ``_mix64`` call): this
        runs once per root span on the kernel hot path, where one Python
        call frame is comparable to the whole hash.
        """
        self.decisions += 1
        value = ((self._base ^ (index & _MASK64))
                 + 0x9E3779B97F4A7C15) & _MASK64
        value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
        if (value ^ (value >> 31)) < self._threshold:
            self.kept += 1
            return True
        return False

    @property
    def dropped(self) -> int:
        return self.decisions - self.kept

    def to_dict(self) -> Dict[str, Any]:
        return {"rate": self.rate, "seed": self.seed,
                "decisions": self.decisions, "kept": self.kept,
                "dropped": self.dropped}


class OverheadMeter:
    """Accumulates what telemetry recording itself costs.

    Components update the public attributes inline (no method-call
    overhead on hot paths); :meth:`snapshot` derives rates and the
    wall-clock fraction spent recording.
    """

    __slots__ = ("spans_count", "spans_wall_s", "metrics_count",
                 "metrics_wall_s", "trace_count", "trace_wall_s",
                 "instrument_count", "instrument_wall_s", "_started")

    def __init__(self) -> None:
        self.spans_count = 0
        self.spans_wall_s = 0.0
        self.metrics_count = 0
        self.metrics_wall_s = 0.0
        self.trace_count = 0
        self.trace_wall_s = 0.0
        self.instrument_count = 0
        self.instrument_wall_s = 0.0
        self._started = perf_counter()

    @property
    def records(self) -> int:
        """Total telemetry records across every metered component."""
        return (self.spans_count + self.metrics_count + self.trace_count
                + self.instrument_count)

    @property
    def recording_wall_s(self) -> float:
        """Total wall-clock seconds spent inside recording calls."""
        return (self.spans_wall_s + self.metrics_wall_s + self.trace_wall_s
                + self.instrument_wall_s)

    def snapshot(self, run_wall_s: Optional[float] = None) -> Dict[str, Any]:
        """Exportable cost breakdown.

        ``run_wall_s`` defaults to the meter's own lifetime, which for a
        meter attached just before a run approximates the run's wall
        time; pass an exact measurement when one exists.
        """
        elapsed = (run_wall_s if run_wall_s is not None
                   else perf_counter() - self._started)
        recording = self.recording_wall_s
        return {
            "spans": {"records": self.spans_count,
                      "wall_s": self.spans_wall_s},
            "metrics": {"records": self.metrics_count,
                        "wall_s": self.metrics_wall_s},
            "trace": {"records": self.trace_count,
                      "wall_s": self.trace_wall_s},
            "instrument": {"records": self.instrument_count,
                           "wall_s": self.instrument_wall_s},
            "records": self.records,
            "recording_wall_s": recording,
            "run_wall_s": elapsed,
            "records_per_s": self.records / elapsed if elapsed > 0 else 0.0,
            "recording_fraction": recording / elapsed if elapsed > 0 else 0.0,
        }


def attach_meter(system: Any, meter: Optional[OverheadMeter] = None) -> OverheadMeter:
    """Wire one meter into every telemetry component of ``system``."""
    if meter is None:
        meter = OverheadMeter()
    system.metrics.meter = meter
    system.trace.meter = meter
    if system.spans is not None:
        system.spans.meter = meter
    if system.sim.instrument is not None:
        system.sim.instrument.meter = meter
    return meter


def _approx_span_bytes(spans: Any) -> int:
    """Estimated bytes retained by the span list (JSONL encoding).

    Sized from a bounded sample so the estimate stays O(1) on
    million-span runs; good to a few percent, which is all a budget
    dashboard needs.
    """
    import json

    # The recorder's iterator and len(), not ``spans.spans``: that property
    # copies the whole list, on every /metrics and dashboard scrape.
    sample = list(islice(spans, 32))
    if not sample:
        return 0
    sampled_bytes = sum(len(json.dumps(s.to_dict(), default=repr)) + 1
                       for s in sample)
    return int(sampled_bytes / len(sample) * len(spans))


def telemetry_health(system: Any,
                     run_wall_s: Optional[float] = None) -> Dict[str, Any]:
    """One dict describing what telemetry the run holds and what it cost.

    Sections: ``trace`` (ring-buffer length/drops/subscriber errors),
    ``spans`` (retention, sampling counters, byte estimate), ``series``
    (count and total points), and ``overhead`` (the meter snapshot, when
    one is attached anywhere).
    """
    trace = system.trace
    health: Dict[str, Any] = {
        "trace": {
            "events": len(trace),
            "maxlen": trace.maxlen or 0,
            "dropped": trace.dropped,
            "subscriber_errors": trace.subscriber_errors,
        },
    }
    spans = system.spans
    if spans is not None:
        sampler = getattr(spans, "sampler", None)
        health["spans"] = {
            "recorded": len(spans),
            "open": spans.open_count,
            "sampled_out": getattr(spans, "sampled_out", 0),
            "approx_bytes": _approx_span_bytes(spans),
            "sampling": sampler.to_dict() if sampler is not None else None,
        }
    series_points = 0
    for name in system.metrics.series_names:
        series_points += len(system.metrics.series(name))
    health["series"] = {
        "count": len(system.metrics.series_names),
        "points": series_points,
        "counters": len(system.metrics.counter_names),
    }
    meter = getattr(system.metrics, "meter", None) or getattr(
        system.trace, "meter", None)
    if meter is None and spans is not None:
        meter = getattr(spans, "meter", None)
    health["overhead"] = (meter.snapshot(run_wall_s=run_wall_s)
                          if meter is not None else None)
    return health


def telemetry_prom_lines(health: Dict[str, Any]) -> List[str]:
    """Prometheus exposition lines for a :func:`telemetry_health` dict.

    Telemetry-loss signals (``trace_dropped_events_total``, span
    retention) are always present; ``observability_overhead_*`` lines
    appear when a meter was attached.
    """
    lines: List[str] = []

    def gauge(name: str, value: float) -> None:
        metric = "repro_" + name
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {float(value)!r}")

    def counter(name: str, value: float) -> None:
        metric = "repro_" + name
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {float(value)!r}")

    trace = health.get("trace", {})
    counter("trace_dropped_events_total", trace.get("dropped", 0))
    counter("trace_subscriber_errors_total", trace.get("subscriber_errors", 0))
    gauge("trace_buffered_events", trace.get("events", 0))
    spans = health.get("spans")
    if spans is not None:
        gauge("spans_retained", spans.get("recorded", 0))
        gauge("spans_retained_bytes", spans.get("approx_bytes", 0))
        gauge("spans_open", spans.get("open", 0))
        counter("spans_sampled_out_total", spans.get("sampled_out", 0))
        sampling = spans.get("sampling")
        if sampling:
            gauge("spans_sampling_rate", sampling.get("rate", 1.0))
    series = health.get("series", {})
    gauge("series_retained_points", series.get("points", 0))
    overhead = health.get("overhead")
    if overhead:
        for component in ("spans", "metrics", "trace", "instrument"):
            entry = overhead.get(component, {})
            counter(f"observability_overhead_{component}_records_total",
                    entry.get("records", 0))
            counter(f"observability_overhead_{component}_wall_seconds_total",
                    entry.get("wall_s", 0.0))
        counter("observability_overhead_records_total",
                overhead.get("records", 0))
        counter("observability_overhead_recording_wall_seconds_total",
                overhead.get("recording_wall_s", 0.0))
        gauge("observability_overhead_records_per_second",
              overhead.get("records_per_s", 0.0))
        gauge("observability_overhead_recording_fraction",
              overhead.get("recording_fraction", 0.0))
    return lines
