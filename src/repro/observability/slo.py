"""SLOs: quantitative goals monitored *inside* the simulation.

Fig. 5's MAPE loop monitors "the environment for changes"; the paper's
Section VII insists those models be checked against *goals* at runtime.
An :class:`SloSpec` is such a goal made quantitative -- an objective over
a recorded metric, evaluated on a trailing window -- and the
:class:`SloMonitor` is a periodic in-simulation process that evaluates
every spec, tracks error-budget burn, and on breach:

* emits an ``alert`` event into the :class:`~repro.simulation.trace.TraceLog`
  (so alerts are ordinary, exportable telemetry), and
* pushes the alert into subscribed MAPE knowledge bases, where
  :class:`~repro.adaptation.analyzer.SloAlertAnalyzer` turns it into an
  issue the planner can act on -- closing the loop from quantitative goal
  to adaptation.

Three objective kinds cover the experiments:

``availability``
    time-weighted mean of a *level* series over the window must be
    ``>= objective`` (objective in [0, 1]).
``latency``
    the ``percentile``-th percentile of a *sample* series over the window
    must be ``<= objective`` (seconds).
``rate``
    sample count per second over the window must be ``>= objective``.

Burn rate is normalized so 1.0 always means "exactly on objective":
for availability it is the classic error-budget burn
``(1 - measured) / (1 - objective)``; for latency and rate it is the
ratio of measured to allowed.  ``burn >= 1`` is a breach.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.simulation.kernel import Simulator
from repro.simulation.metrics import MetricsRecorder
from repro.simulation.trace import TraceLog

_KINDS = ("availability", "latency", "rate")


@dataclass(frozen=True)
class SloSpec:
    """One service-level objective over a recorded metric series."""

    name: str
    kind: str                      # "availability" | "latency" | "rate"
    series: str                    # metric series the objective reads
    objective: float               # target: fraction, seconds, or events/s
    window: float                  # trailing evaluation window (sim seconds)
    percentile: float = 95.0       # latency only
    subject: str = ""              # entity alerts concern (device id, ...)
    service: Optional[str] = None  # escalation detail for service SLOs
    escalation: str = "slo-breach"  # issue kind opened in MAPE knowledge
    severity: int = 3

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown SLO kind {self.kind!r}; one of {_KINDS}")
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.kind == "availability" and not 0.0 <= self.objective < 1.0:
            raise ValueError("availability objective must be in [0, 1)")
        if self.kind in ("latency", "rate") and self.objective <= 0:
            raise ValueError(f"{self.kind} objective must be positive")


@dataclass
class SloStatus:
    """One evaluation of one spec."""

    spec: SloSpec
    time: float
    measured: Optional[float]
    burn_rate: Optional[float]
    breached: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "slo": self.spec.name,
            "kind": self.spec.kind,
            "series": self.spec.series,
            "objective": self.spec.objective,
            "window": self.spec.window,
            "time": self.time,
            "measured": self.measured,
            "burn_rate": self.burn_rate,
            "breached": self.breached,
        }


class SloMonitor:
    """Periodic in-simulation SLO evaluation with alert-driven adaptation.

    The monitor is itself a simulated process: evaluations happen at
    simulated times, so alerts land in causal order with the faults and
    repairs they concern.  Subscribe MAPE loops (or bare knowledge bases)
    with :meth:`attach` to let breaches drive adaptation.
    """

    def __init__(
        self,
        sim: Simulator,
        metrics: MetricsRecorder,
        specs: List[SloSpec],
        trace: Optional[TraceLog] = None,
        period: float = 5.0,
    ) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names in {names}")
        self.sim = sim
        self.metrics = metrics
        self.specs = list(specs)
        self.trace = trace
        self.period = period
        self.evaluations = 0
        self.breach_events = 0          # breach *transitions* (ok -> breached)
        self.history: List[SloStatus] = []
        self._breached: Dict[str, bool] = {spec.name: False for spec in specs}
        self._latest: Dict[str, SloStatus] = {}
        self._sinks: List[Any] = []     # KnowledgeBase-like alert sinks
        self._listeners: List[Callable[[SloStatus], None]] = []
        self._running = False

    # -- wiring ------------------------------------------------------------ #
    def attach(self, sink: Any) -> None:
        """Subscribe a MAPE loop (or KnowledgeBase) to breach alerts.

        Accepts anything with a ``knowledge`` attribute (a MapeLoop) or a
        ``facts`` dict (a KnowledgeBase); alerts are appended to the
        knowledge base's ``facts["slo_alerts"]`` list, where the
        SloAlertAnalyzer picks them up in the next Monitor phase.
        """
        knowledge = getattr(sink, "knowledge", sink)
        if not hasattr(knowledge, "facts"):
            raise TypeError(f"cannot attach {sink!r}: no knowledge base")
        self._sinks.append(knowledge)

    def on_breach(self, listener: Callable[[SloStatus], None]) -> None:
        """Register a callback fired on every breach transition."""
        self._listeners.append(listener)

    # -- lifecycle --------------------------------------------------------- #
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.sim.schedule(self.period, self._tick, label="slo-monitor")

    def stop(self) -> None:
        self._running = False

    def _tick(self, sim: Simulator) -> None:
        if not self._running:
            return
        self.evaluate_now()
        sim.schedule(self.period, self._tick, label="slo-monitor")

    # -- evaluation -------------------------------------------------------- #
    def evaluate_now(self) -> List[SloStatus]:
        """Evaluate every spec at the current simulated time."""
        now = self.sim.now
        statuses = []
        for spec in self.specs:
            status = self._evaluate(spec, now)
            statuses.append(status)
            self.history.append(status)
            self._latest[spec.name] = status
            self._transition(status)
        self.evaluations += 1
        return statuses

    def _evaluate(self, spec: SloSpec, now: float) -> SloStatus:
        start = max(0.0, now - spec.window)
        measured: Optional[float] = None
        burn: Optional[float] = None
        if self.metrics.has_series(spec.series):
            series = self.metrics.series(spec.series)
            if spec.kind == "availability":
                measured = series.time_weighted_mean(start, now)
                if measured is not None:
                    burn = (1.0 - measured) / (1.0 - spec.objective)
            elif spec.kind == "latency":
                measured = series.percentile(spec.percentile, start, now)
                if measured is not None:
                    burn = measured / spec.objective
            else:  # rate
                span = now - start
                if span > 0:
                    measured = len(series.window(start, now)) / span
                    burn = (spec.objective / measured if measured > 0
                            else float("inf"))
        breached = burn is not None and burn >= 1.0 and self._violates(
            spec, measured)
        status = SloStatus(spec=spec, time=now, measured=measured,
                           burn_rate=burn, breached=breached)
        # The burn series makes SLO health itself observable telemetry.
        if burn is not None and burn != float("inf"):
            self.metrics.record(f"slo.burn:{spec.name}", now, burn)
        self.metrics.set_level(f"slo.ok:{spec.name}", now,
                               0.0 if breached else 1.0)
        return status

    @staticmethod
    def _violates(spec: SloSpec, measured: Optional[float]) -> bool:
        if measured is None:
            return False
        if spec.kind == "availability":
            return measured < spec.objective
        if spec.kind == "latency":
            return measured > spec.objective
        return measured < spec.objective  # rate

    def _transition(self, status: SloStatus) -> None:
        spec = status.spec
        was_breached = self._breached[spec.name]
        self._breached[spec.name] = status.breached
        if status.breached:
            # Alerts repeat into the MAPE knowledge on *every* breached
            # evaluation, not just the first: a countermeasure that
            # failed (or helped only partially) must be retried while
            # the error budget keeps burning.  Trace events and counters
            # record transitions only, so exports stay readable.
            alert = {
                "slo": spec.name,
                "time": status.time,
                "subject": spec.subject or spec.series,
                "service": spec.service,
                "escalation": spec.escalation,
                "severity": spec.severity,
                "measured": status.measured,
                "burn_rate": status.burn_rate,
            }
            for knowledge in self._sinks:
                knowledge.facts.setdefault("slo_alerts", []).append(dict(alert))
            for listener in self._listeners:
                listener(status)
        if status.breached and not was_breached:
            self.breach_events += 1
            self.metrics.increment("slo.breaches")
            if self.trace is not None:
                self.trace.emit(
                    status.time, "alert", "slo-breach",
                    subject=spec.subject or spec.series,
                    slo=spec.name, measured=status.measured,
                    burn_rate=status.burn_rate, objective=spec.objective,
                )
        elif was_breached and not status.breached:
            if self.trace is not None:
                self.trace.emit(
                    status.time, "alert", "slo-recovered",
                    subject=spec.subject or spec.series,
                    slo=spec.name, measured=status.measured,
                )

    # -- reporting ---------------------------------------------------------- #
    @property
    def breached_now(self) -> List[SloStatus]:
        """Specs whose latest evaluation breached."""
        return [s for s in self._latest.values() if s.breached]

    @property
    def ever_breached(self) -> bool:
        return self.breach_events > 0

    def latest(self) -> List[SloStatus]:
        return [self._latest[spec.name] for spec in self.specs
                if spec.name in self._latest]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "period": self.period,
            "evaluations": self.evaluations,
            "breach_events": self.breach_events,
            "slos": [s.to_dict() for s in self.latest()],
        }


class ReachabilityProbe:
    """Active request/response probe feeding a ``reach:<target>`` level series.

    The fleet's ``up:<device>`` series capture crashes but not
    *partitions*: an isolated cloud is still up, just unreachable.  The
    probe measures what availability SLOs actually promise -- can the
    service be reached -- by pinging ``target`` from ``source`` every
    ``period`` seconds and driving the level series to 0 whenever the
    reply misses ``timeout``.  Point an availability :class:`SloSpec` at
    :attr:`series` to turn unreachability into error-budget burn.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Any,
        metrics: MetricsRecorder,
        source: str,
        target: str,
        period: float = 2.0,
        timeout: float = 1.5,
    ) -> None:
        if timeout >= period:
            raise ValueError("timeout must be shorter than the probe period")
        self.sim = sim
        self.network = network
        self.metrics = metrics
        self.source = source
        self.target = target
        self.period = period
        self.timeout = timeout
        self.series = f"reach:{target}"
        self.sent = 0
        self.lost = 0
        self._pending: Dict[int, bool] = {}
        self._running = False
        network.register(target, "probe.ping", self._on_ping)
        network.register(source, "probe.pong", self._on_pong)

    def _on_ping(self, message: Any) -> None:
        self.network.send(self.target, message.src, "probe.pong",
                          payload=message.payload, size_bytes=16)

    def _on_pong(self, message: Any) -> None:
        # A pong that arrives after its timeout already marked the target
        # unreachable; only a still-pending probe counts as success.
        if self._pending.pop(message.payload["seq"], None):
            self.metrics.set_level(self.series, self.sim.now, 1.0)

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.metrics.set_level(self.series, self.sim.now, 1.0)
        self.sim.schedule(0.0, self._probe, label=f"probe:{self.target}")

    def stop(self) -> None:
        self._running = False

    def _probe(self, sim: Simulator) -> None:
        if not self._running:
            return
        self.sent += 1
        seq = self.sent
        self._pending[seq] = True
        self.network.send(self.source, self.target, "probe.ping",
                          payload={"seq": seq}, size_bytes=16)

        def check(s: Simulator) -> None:
            if self._pending.pop(seq, None):
                self.lost += 1
                self.metrics.set_level(self.series, s.now, 0.0)

        sim.schedule(self.timeout, check, label=f"probe-timeout:{self.target}")
        sim.schedule(self.period, self._probe, label=f"probe:{self.target}")


def default_slos(system: Any, strict: bool = False,
                 city: bool = False) -> List[SloSpec]:
    """Resilience SLOs for an edge/cloud landscape system.

    Per-edge availability objectives, plus (with ``city``) the smart-city
    workload's end-to-end ingest latency and throughput objectives.
    ``strict`` adds a cloud *reachability* objective fed by a
    :class:`ReachabilityProbe` (series ``reach:<cloud>``) that a
    sustained cloud partition *will* breach -- the CI smoke gate runs
    non-strict (edge resilience must hold through disruption), tests and
    the strict gate exercise the breach path.
    """
    specs: List[SloSpec] = []
    for edge in getattr(system, "edge_nodes", []):
        specs.append(SloSpec(
            name=f"availability:{edge}", kind="availability",
            series=f"up:{edge}", objective=0.95, window=30.0,
            subject=edge, escalation="device-down", severity=4,
        ))
    if city:
        specs.append(SloSpec(
            name="ingest-latency-p95", kind="latency",
            series="city.latency", objective=1.0, window=20.0,
            percentile=95.0, subject="city",
        ))
        specs.append(SloSpec(
            name="ingest-rate", kind="rate",
            series="city.ingest", objective=1.0, window=20.0,
            subject="city",
        ))
    if strict and getattr(system, "cloud_node", None):
        specs.append(SloSpec(
            name="cloud-reachability", kind="availability",
            series=f"reach:{system.cloud_node}", objective=0.99, window=30.0,
            subject=str(system.cloud_node),
        ))
    return specs
