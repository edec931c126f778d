"""The MAPE loop driver.

Binds Monitor, Analyze, Plan and Execute on a *host* node over a *scope*
of managed devices (Fig. 5).  Monitoring is modeled as the host probing
each in-scope device: an observation succeeds only if the host is up and
the device is reachable -- so a partitioned loop runs blind, its knowledge
ages, and (per the StaleKnowledgeAnalyzer) it knows that it is blind.

Repairs are measured end-to-end: ``time_to_repair`` pairs each fault trace
event in scope with the first successful adaptation action that fixes it.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.adaptation.analyzer import Analyzer
from repro.adaptation.executor import Executor
from repro.adaptation.knowledge import DeviceSnapshot, KnowledgeBase
from repro.adaptation.planner import Plan, Planner, RuleBasedPlanner
from repro.devices.fleet import DeviceFleet
from repro.devices.software import ServiceState
from repro.network.transport import Network
from repro.simulation.kernel import Simulator
from repro.simulation.metrics import MetricsRecorder
from repro.simulation.trace import TraceLog


class MapeLoop:
    """A periodic MAPE-K loop hosted on one node.

    Parameters
    ----------
    host:
        The node executing the loop (cloud node or an edge node).
    scope:
        Device ids this loop manages ("responsible for their management
        within a certain local scope", §VII.B).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        fleet: DeviceFleet,
        host: str,
        scope: List[str],
        analyzers: List[Analyzer],
        planner: Planner,
        executor: Executor,
        period: float = 1.0,
        metrics: Optional[MetricsRecorder] = None,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.fleet = fleet
        self.host = host
        self.scope = list(scope)
        self.knowledge = KnowledgeBase(scope)
        self.analyzers = analyzers
        self.planner = planner
        self.executor = executor
        self.period = period
        self.metrics = metrics
        self.trace = trace
        self.iterations = 0
        self.observations = 0
        self.missed_observations = 0
        self.plans_executed = 0
        self.repairs: List[float] = []   # repair completion times
        self._running = False

    # -- lifecycle ----------------------------------------------------------- #
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._iterate(self.sim)

    def _iterate(self, sim: Simulator) -> None:
        if self.network.node_up(self.host):
            self.iterations += 1
            spans = self.network.spans
            if spans is not None:
                # One span per loop iteration; everything the iteration
                # does (probes, actions, repair spans) nests under it.
                span = spans.start(
                    f"mape:{self.host}", "adaptation", sim.now,
                    host=self.host, iteration=self.iterations,
                )
                with spans.use(span):
                    self._monitor(sim.now)
                    issues = self._analyze(sim.now)
                    plan = self._plan(issues, sim.now)
                    self._execute(plan)
                spans.finish(span, sim.now)
            else:
                self._monitor(sim.now)
                issues = self._analyze(sim.now)
                plan = self._plan(issues, sim.now)
                self._execute(plan)
        sim.schedule(self.period, self._iterate, label=f"mape:{self.host}")

    # -- M ---------------------------------------------------------------------- #
    def _monitor(self, now: float) -> None:
        for device_id in self.scope:
            if device_id != self.host and not self.network.topology.reachable(
                self.host, device_id
            ):
                self.missed_observations += 1
                continue
            try:
                device = self.fleet.get(device_id)
            except KeyError:
                continue
            # A down device on a reachable segment is observed *as down*
            # (neighbour report); its service states are unknowable, so
            # the last snapshot's services carry over.
            previous = self.knowledge.snapshot(device_id)
            if device.up:
                running = frozenset(
                    s.name for s in device.stack.services
                    if s.state == ServiceState.RUNNING
                )
                failed = frozenset(
                    s.name for s in device.stack.services
                    if s.state in (ServiceState.FAILED, ServiceState.DEGRADED)
                )
            else:
                running = previous.running_services if previous else frozenset()
                failed = previous.failed_services if previous else frozenset()
            self.knowledge.observe(DeviceSnapshot(
                device_id=device_id,
                observed_at=now,
                up=device.up,
                battery_fraction=device.battery.fraction,
                running_services=running,
                failed_services=failed,
                location=device.location,
                domain=device.domain,
            ))
            self.observations += 1

    # -- A ---------------------------------------------------------------------- #
    def _analyze(self, now: float) -> List:
        issues = []
        for analyzer in self.analyzers:
            issues.extend(analyzer.analyze(self.knowledge, now))
        return self.knowledge.open_issues()

    # -- P ---------------------------------------------------------------------- #
    def _plan(self, issues, now: float) -> Plan:
        return self.planner.plan(issues, self.knowledge, now)

    # -- E ---------------------------------------------------------------------- #
    def _execute(self, plan: Plan) -> None:
        if plan.empty:
            return
        self.plans_executed += 1
        results = self.executor.execute(plan.actions)
        for result in results:
            if isinstance(self.planner, RuleBasedPlanner):
                self.planner.record_outcome(result.action, result.success)
            if result.success and not _is_noop(result):
                self.repairs.append(self.sim.now)
                if self.metrics is not None:
                    self.metrics.increment(f"mape.repairs:{self.host}")
                spans = self.network.spans
                if spans is not None:
                    # Join the originating disruption's trace when the
                    # injector still tracks an active fault on this
                    # subject; otherwise stay under the iteration span.
                    fault_span = spans.active_fault(result.action.target)
                    spans.record(
                        f"repair:{result.action.target}", "recovery",
                        self.sim.now, parent=fault_span,
                        host=self.host, action=result.action.describe(),
                    )
                if self.trace is not None:
                    self.trace.emit(
                        self.sim.now, "recovery", "mape-repair",
                        subject=result.action.target,
                        host=self.host, action=result.action.describe(),
                    )
        # Successful repairs close their issues so the next iteration
        # re-opens them only if the symptom persists.
        for issue in plan.addressed:
            self.knowledge.close_issue(issue)

    # -- measurement ---------------------------------------------------------- #
    def time_to_repair(self, trace: TraceLog, fault_names: Optional[List[str]] = None) -> List[float]:
        """Pair in-scope fault events with the first later mape-repair on
        the same subject by this loop; returns the repair delays."""
        fault_names = fault_names or ["service-failure", "crash", "battery-depleted"]
        repairs = [
            e for e in trace.select(category="recovery", name="mape-repair")
            if e.attrs.get("host") == self.host
        ]
        delays = []
        for fault in trace.select(category="fault"):
            if fault.name not in fault_names or fault.subject not in self.scope:
                continue
            for repair in repairs:
                if repair.subject == fault.subject and repair.time >= fault.time:
                    delays.append(repair.time - fault.time)
                    break
        return delays


def mape_loop(system: Any, host: str, scope: List[str],
              analyzers: List[Analyzer], period: float = 1.0,
              stream: str = "exec") -> MapeLoop:
    """The one way a loop is wired onto an :class:`~repro.core.system.IoTSystem`.

    A rule-based planner and an executor on ``host`` drawing from the RNG
    stream ``<stream>:<host>``; not started, so each caller keeps its own
    start order.
    """
    return MapeLoop(
        system.sim, system.network, system.fleet, host, scope,
        analyzers=analyzers,
        planner=RuleBasedPlanner(),
        executor=Executor(system.sim, system.network, system.fleet, host,
                          system.rngs.stream(f"{stream}:{host}"),
                          trace=system.trace),
        period=period, metrics=system.metrics, trace=system.trace,
    )


def _is_noop(result) -> bool:
    from repro.adaptation.actions import NoopAction

    return isinstance(result.action, NoopAction) or result.detail in (
        "already running", "already up", "noop",
    )
