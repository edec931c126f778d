"""Resilience KPIs derived from recorded telemetry.

PR 1 produced the raw signals -- causal spans, trace events, metric
series.  This module turns them into the paper's missing *quantitative*
layer: per-disruption MTTD/MTTR from the injection→recovery span arcs,
fleet availability and degraded time from the ``up:*`` level series,
protocol convergence times from coordination spans, and message overhead
per disruption -- broken down by the roadmap's five disruption vectors
(Tables 1-2 rows), so "how resilient is the system" becomes a table of
numbers instead of an intuition.

Everything here is a pure function of recorder state: no simulator
access, no wall clock, so KPI reports are reproducible bit-for-bit like
the runs they describe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.core.vectors import DisruptionVector
from repro.observability.histogram import StreamingHistogram
from repro.observability.spans import Span, SpanRecorder
from repro.simulation.metrics import MetricsRecorder
from repro.simulation.trace import TraceLog

#: Fault class name -> roadmap disruption vector value (Tables 1-2 rows).
#: Infrastructure faults disrupt *pervasiveness*; software failures the
#: *services* dimension; device lifecycle/energy faults are *operations*
#: disruptions; domain transfer and trust changes hit the *data* vector.
#: The *verification* vector has no injectable fault -- it is scored from
#: runtime-monitor violation events instead.
VECTOR_BY_FAULT_TYPE: Dict[str, str] = {
    "PartitionFault": "pervasiveness",
    "LinkFailureFault": "pervasiveness",
    "LatencySpikeFault": "pervasiveness",
    "ServiceFailureFault": "services",
    "CrashFault": "operations",
    "CrashRecoveryFault": "operations",
    "BatteryDepletionFault": "operations",
    "DomainTransferFault": "data",
    "AdversarialEnvironmentFault": "data",
    "NodeCompromiseFault": "data",
}


def classify_fault_vector(fault_type: str) -> DisruptionVector:
    """Map a fault class name to its disruption vector (OPERATIONS default)."""
    return DisruptionVector(VECTOR_BY_FAULT_TYPE.get(fault_type, "operations"))


@dataclass
class DisruptionArc:
    """One injection→recovery arc, reduced to its resilience numbers."""

    fault: str
    fault_type: str
    vector: DisruptionVector
    injected_at: float
    detected_at: Optional[float] = None   # first causally-linked recovery start
    recovered_at: Optional[float] = None  # last causally-linked recovery end
    messages: int = 0                     # descendant message spans
    repairs: int = 0                      # recovery spans on the arc
    resolved: bool = False

    @property
    def mttd(self) -> Optional[float]:
        """Time from injection to the first recovery activity."""
        if self.detected_at is None:
            return None
        return self.detected_at - self.injected_at

    @property
    def mttr(self) -> Optional[float]:
        """Time from injection to full recovery (unresolved arcs: None)."""
        if not self.resolved or self.recovered_at is None:
            return None
        return self.recovered_at - self.injected_at

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fault": self.fault,
            "fault_type": self.fault_type,
            "vector": self.vector.value,
            "injected_at": self.injected_at,
            "mttd": self.mttd,
            "mttr": self.mttr,
            "messages": self.messages,
            "repairs": self.repairs,
            "resolved": self.resolved,
        }


def disruption_arcs(spans: SpanRecorder) -> List[DisruptionArc]:
    """Reduce every injection span to a :class:`DisruptionArc`.

    Walks each injection span's descendant tree once (via the recorder's
    children index): recovery descendants give detection and recovery
    times, message descendants give the repair's communication overhead.
    """
    children = spans.children_index()
    arcs: List[DisruptionArc] = []
    for root in spans.select(category="injection"):
        arc = DisruptionArc(
            fault=root.name.removeprefix("fault:"),
            fault_type=str(root.attrs.get("fault_type", "")),
            vector=classify_fault_vector(str(root.attrs.get("fault_type", ""))),
            injected_at=root.start,
        )
        stack = list(children.get(root.span_id, ()))
        while stack:
            span = stack.pop()
            stack.extend(children.get(span.span_id, ()))
            if span.category == "message":
                arc.messages += 1
            elif span.category == "recovery":
                arc.repairs += 1
                if arc.detected_at is None or span.start < arc.detected_at:
                    arc.detected_at = span.start
                end = span.end if span.end is not None else span.start
                if arc.recovered_at is None or end > arc.recovered_at:
                    arc.recovered_at = end
        # An arc is resolved when its injection span closed normally
        # ("reverted") or some recovery completed; "truncated" roots with
        # no recovery ran past the end of the run still disrupted.
        arc.resolved = root.status == "reverted" or arc.repairs > 0
        if arc.resolved and arc.recovered_at is None and root.end is not None:
            arc.recovered_at = root.end
        arcs.append(arc)
    return arcs


@dataclass
class VectorKpis:
    """Aggregated resilience KPIs for one disruption vector."""

    vector: DisruptionVector
    faults: int = 0
    resolved: int = 0
    mttd_mean: Optional[float] = None
    mttd_max: Optional[float] = None
    mttr_mean: Optional[float] = None
    mttr_max: Optional[float] = None
    messages_per_disruption: Optional[float] = None
    disrupted_time: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "vector": self.vector.value,
            "faults": self.faults,
            "resolved": self.resolved,
            "mttd_mean": self.mttd_mean,
            "mttd_max": self.mttd_max,
            "mttr_mean": self.mttr_mean,
            "mttr_max": self.mttr_max,
            "messages_per_disruption": self.messages_per_disruption,
            "disrupted_time": self.disrupted_time,
        }


@dataclass
class KpiReport:
    """The full quantitative-resilience view of one run."""

    horizon: float
    availability: Optional[float] = None        # fleet mean of up:* means
    worst_availability: Optional[float] = None  # weakest device
    degraded_time: float = 0.0                  # summed device downtime (s)
    violations: int = 0                         # runtime-monitor violations
    alerts: int = 0                             # SLO breach alerts fired
    arcs: List[DisruptionArc] = field(default_factory=list)
    vectors: Dict[DisruptionVector, VectorKpis] = field(default_factory=dict)
    convergence: Dict[str, Dict[str, float]] = field(default_factory=dict)
    repair_latency: Optional[StreamingHistogram] = None
    traffic: Optional[Dict[str, Any]] = None    # TrafficRegistry.kpis()
    security: Optional[Dict[str, Any]] = None   # SecurityPlane.kpis()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "horizon": self.horizon,
            "availability": self.availability,
            "worst_availability": self.worst_availability,
            "degraded_time": self.degraded_time,
            "violations": self.violations,
            "alerts": self.alerts,
            "traffic": self.traffic,
            "security": self.security,
            "vectors": {v.value: k.to_dict() for v, k in sorted(
                self.vectors.items(), key=lambda item: item[0].value)},
            "convergence": self.convergence,
            "arcs": [arc.to_dict() for arc in self.arcs],
            "repair_latency": (self.repair_latency.to_dict()
                               if self.repair_latency is not None else None),
        }

    def vector_rows(self) -> List[List[object]]:
        """Table rows for CLI output, one per disruption vector."""
        rows: List[List[object]] = []
        for vector in DisruptionVector:
            kpis = self.vectors.get(vector)
            if kpis is None:
                rows.append([vector.value, 0, 0, "-", "-", "-", "-"])
                continue
            rows.append([
                vector.value,
                kpis.faults,
                kpis.resolved,
                _fmt(kpis.mttd_mean),
                _fmt(kpis.mttr_mean),
                _fmt(kpis.messages_per_disruption),
                _fmt(kpis.disrupted_time),
            ])
        return rows


def _fmt(value: Optional[float]) -> object:
    return "-" if value is None else round(float(value), 4)


def _mean(values: List[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def aggregate_vectors(arcs: Iterable[DisruptionArc]) -> Dict[DisruptionVector, VectorKpis]:
    grouped: Dict[DisruptionVector, List[DisruptionArc]] = {}
    for arc in arcs:
        grouped.setdefault(arc.vector, []).append(arc)
    out: Dict[DisruptionVector, VectorKpis] = {}
    for vector, members in grouped.items():
        mttds = [a.mttd for a in members if a.mttd is not None]
        mttrs = [a.mttr for a in members if a.mttr is not None]
        out[vector] = VectorKpis(
            vector=vector,
            faults=len(members),
            resolved=sum(1 for a in members if a.resolved),
            mttd_mean=_mean(mttds),
            mttd_max=max(mttds) if mttds else None,
            mttr_mean=_mean(mttrs),
            mttr_max=max(mttrs) if mttrs else None,
            messages_per_disruption=_mean([float(a.messages) for a in members]),
            disrupted_time=sum(mttrs),
        )
    return out


def availability_kpis(metrics: MetricsRecorder, horizon: float) -> Dict[str, Any]:
    """Fleet availability from the ``up:<device>`` level series.

    Returns mean and worst per-device availability over ``[0, horizon)``
    plus total degraded (down) device-seconds.
    """
    per_device: Dict[str, float] = {}
    for name in metrics.series_names:
        if not name.startswith("up:"):
            continue
        series = metrics.series(name)
        if series.kind != "level" or len(series) == 0:
            continue
        value = series.time_weighted_mean(0.0, horizon)
        if value is not None:
            per_device[name[len("up:"):]] = value
    if not per_device:
        return {"availability": None, "worst_availability": None,
                "degraded_time": 0.0, "per_device": {}}
    availabilities = list(per_device.values())
    return {
        "availability": sum(availabilities) / len(availabilities),
        "worst_availability": min(availabilities),
        "degraded_time": sum((1.0 - a) * horizon for a in availabilities),
        "per_device": per_device,
    }


#: Coordination span name prefix -> reported protocol bucket.
_PROTOCOL_PREFIXES = (
    ("gossip:", "gossip"),
    ("election:", "election"),
    ("fd:", "failure-detector"),
    ("phi:", "failure-detector"),
)


def convergence_kpis(spans: SpanRecorder) -> Dict[str, Dict[str, float]]:
    """Per-protocol convergence stats from coordination spans.

    A gossip/failure-detector round span covers one full round
    (request→acks); an election span covers candidacy→leadership.  The
    span durations therefore *are* the convergence times, and their
    distribution is the protocol's responsiveness under disruption.
    """
    buckets: Dict[str, List[float]] = {}
    for span in spans.select(category="coordination"):
        duration = span.duration
        if duration is None:
            continue
        for prefix, protocol in _PROTOCOL_PREFIXES:
            if span.name.startswith(prefix):
                buckets.setdefault(protocol, []).append(duration)
                break
    out: Dict[str, Dict[str, float]] = {}
    for protocol, durations in sorted(buckets.items()):
        durations.sort()
        out[protocol] = {
            "rounds": float(len(durations)),
            "mean": sum(durations) / len(durations),
            "p95": durations[min(len(durations) - 1,
                                 int(0.95 * len(durations)))],
            "max": durations[-1],
        }
    return out


def compute_kpi_report(
    spans: Optional[SpanRecorder],
    trace: Optional[TraceLog],
    metrics: MetricsRecorder,
    horizon: float,
) -> KpiReport:
    """Derive the full KPI report from one run's recorders.

    ``spans`` may be None (observability disabled): availability and
    violation KPIs still compute from metrics/trace; arc and convergence
    KPIs are empty.
    """
    report = KpiReport(horizon=float(horizon))
    availability = availability_kpis(metrics, horizon)
    report.availability = availability["availability"]
    report.worst_availability = availability["worst_availability"]
    report.degraded_time = availability["degraded_time"]
    if trace is not None:
        report.violations = trace.count(category="violation")
        report.alerts = trace.count(category="alert", name="slo-breach")
    if spans is not None:
        report.arcs = disruption_arcs(spans)
        report.vectors = aggregate_vectors(report.arcs)
        report.convergence = convergence_kpis(spans)
        histogram = StreamingHistogram()
        for arc in report.arcs:
            if arc.mttr is not None:
                histogram.observe(arc.mttr)
        report.repair_latency = histogram
    return report


def kpi_report_for_system(system: Any, horizon: Optional[float] = None) -> KpiReport:
    """Convenience wrapper over an :class:`~repro.core.system.IoTSystem`."""
    horizon = horizon if horizon is not None else system.sim.now
    report = compute_kpi_report(
        spans=getattr(system, "spans", None),
        trace=getattr(system, "trace", None),
        metrics=system.metrics,
        horizon=horizon,
    )
    registry = system.context.get("traffic")
    if registry is not None:
        report.traffic = registry.kpis(horizon)
    plane = system.context.get("security")
    if plane is not None:
        report.security = plane.kpis(horizon)
    return report
