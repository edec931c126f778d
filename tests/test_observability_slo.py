"""Tests for SLO specs, the in-simulation SLO monitor, reachability
probing, and the alert-driven close of the MAPE loop: SLO burn must
demonstrably trigger adaptation."""

import pytest

from repro.adaptation import (
    Executor,
    KnowledgeBase,
    MapeLoop,
    RuleBasedPlanner,
    SloAlertAnalyzer,
)
from repro.core.system import IoTSystem
from repro.faults.models import CrashFault, PartitionFault
from repro.observability.slo import (
    ReachabilityProbe,
    SloMonitor,
    SloSpec,
    default_slos,
)
from repro.simulation.kernel import Simulator
from repro.simulation.metrics import MetricsRecorder
from repro.simulation.trace import TraceLog


def make_monitor(specs, period=1.0):
    sim = Simulator()
    metrics = MetricsRecorder()
    trace = TraceLog()
    monitor = SloMonitor(sim, metrics, specs, trace=trace, period=period)
    return sim, metrics, trace, monitor


AVAIL = SloSpec(name="avail:d1", kind="availability", series="up:d1",
                objective=0.9, window=10.0, subject="d1")


class TestSloSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            SloSpec(name="x", kind="weather", series="s", objective=1.0,
                    window=5.0)

    def test_rejects_bad_objectives_and_windows(self):
        with pytest.raises(ValueError):
            SloSpec(name="x", kind="availability", series="s", objective=1.0,
                    window=5.0)  # availability must be < 1
        with pytest.raises(ValueError):
            SloSpec(name="x", kind="latency", series="s", objective=0.0,
                    window=5.0)
        with pytest.raises(ValueError):
            SloSpec(name="x", kind="rate", series="s", objective=1.0,
                    window=0.0)


class TestSloMonitor:
    def test_rejects_duplicate_names(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            SloMonitor(sim, MetricsRecorder(), [AVAIL, AVAIL])

    def test_missing_series_is_not_a_breach(self):
        sim, metrics, trace, monitor = make_monitor([AVAIL])
        (status,) = monitor.evaluate_now()
        assert status.measured is None
        assert not status.breached
        assert not monitor.ever_breached

    def test_availability_burn_and_breach(self):
        sim, metrics, trace, monitor = make_monitor([AVAIL])
        metrics.set_level("up:d1", 0.0, 1.0)
        sim.run(until=5.0)
        metrics.set_level("up:d1", 5.0, 0.0)
        sim.run(until=10.0)
        (status,) = monitor.evaluate_now()
        # Availability over [0, 10) is 0.5; budget is 0.1 -> burn 5x.
        assert status.measured == pytest.approx(0.5)
        assert status.burn_rate == pytest.approx(5.0)
        assert status.breached
        assert monitor.breach_events == 1
        assert trace.count(category="alert", name="slo-breach") == 1

    def test_latency_and_rate_objectives(self):
        latency = SloSpec(name="lat", kind="latency", series="rtt",
                          objective=0.1, window=10.0, percentile=95.0)
        rate = SloSpec(name="rate", kind="rate", series="req",
                       objective=2.0, window=10.0)
        sim, metrics, trace, monitor = make_monitor([latency, rate])
        for i in range(10):
            metrics.record("rtt", i, 0.05 if i < 9 else 0.5)
            metrics.record("req", i, 1.0)
        sim.run(until=10.0)
        by_name = {s.spec.name: s for s in monitor.evaluate_now()}
        assert by_name["lat"].breached          # p95 = 0.5 > 0.1
        assert by_name["rate"].breached         # 1/s < 2/s
        assert by_name["rate"].measured == pytest.approx(1.0)

    def test_breach_and_recovery_transitions_emit_once(self):
        sim, metrics, trace, monitor = make_monitor([AVAIL])
        metrics.set_level("up:d1", 0.0, 0.0)
        sim.run(until=2.0)
        monitor.evaluate_now()
        monitor.evaluate_now()   # still breached: no second transition
        assert monitor.breach_events == 1
        assert trace.count(category="alert", name="slo-breach") == 1
        metrics.set_level("up:d1", 2.0, 1.0)
        sim.run(until=40.0)      # window slides clear of the bad samples
        monitor.evaluate_now()
        assert trace.count(category="alert", name="slo-recovered") == 1
        assert not monitor.breached_now

    def test_alerts_repeat_into_knowledge_while_breached(self):
        """Retry semantics: every breached evaluation re-alerts MAPE."""
        sim, metrics, trace, monitor = make_monitor([AVAIL])
        knowledge = KnowledgeBase(["d1"])
        monitor.attach(knowledge)
        metrics.set_level("up:d1", 0.0, 0.0)
        sim.run(until=1.0)
        monitor.evaluate_now()
        monitor.evaluate_now()
        alerts = knowledge.facts["slo_alerts"]
        assert len(alerts) == 2
        assert alerts[0]["slo"] == "avail:d1"
        assert alerts[0]["subject"] == "d1"

    def test_attach_rejects_sink_without_knowledge(self):
        sim, metrics, trace, monitor = make_monitor([AVAIL])
        with pytest.raises(TypeError):
            monitor.attach(object())

    def test_periodic_ticks_run_inside_simulation(self):
        sim, metrics, trace, monitor = make_monitor([AVAIL], period=2.0)
        metrics.set_level("up:d1", 0.0, 1.0)
        monitor.start()
        sim.run(until=10.0)
        assert monitor.evaluations == 5
        burn = metrics.series("slo.burn:avail:d1")
        assert len(burn) == 5

    def test_slo_health_is_recorded_as_telemetry(self):
        sim, metrics, trace, monitor = make_monitor([AVAIL])
        metrics.set_level("up:d1", 0.0, 0.0)
        sim.run(until=1.0)
        monitor.evaluate_now()
        assert metrics.series("slo.ok:avail:d1").value_at(1.0) == 0.0
        assert monitor.to_dict()["slos"][0]["breached"] is True


class TestDefaultSlos:
    def test_per_edge_availability_specs(self):
        system = IoTSystem.with_edge_cloud_landscape(2, 1, seed=3)
        specs = default_slos(system)
        names = {spec.name for spec in specs}
        assert names == {"availability:edge0", "availability:edge1"}
        assert all(spec.escalation == "device-down" for spec in specs)

    def test_city_and_strict_add_objectives(self):
        system = IoTSystem.with_edge_cloud_landscape(2, 1, seed=3)
        specs = default_slos(system, strict=True, city=True)
        names = {spec.name for spec in specs}
        assert "ingest-latency-p95" in names
        assert "ingest-rate" in names
        assert "cloud-reachability" in names
        reach = next(s for s in specs if s.name == "cloud-reachability")
        assert reach.series == "reach:cloud"


class TestReachabilityProbe:
    def test_timeout_must_fit_period(self):
        system = IoTSystem.with_edge_cloud_landscape(1, 1, seed=3)
        with pytest.raises(ValueError):
            ReachabilityProbe(system.sim, system.network, system.metrics,
                              "edge0", "cloud", period=1.0, timeout=2.0)

    def test_partition_drives_reach_series_down(self):
        system = IoTSystem.with_edge_cloud_landscape(1, 1, seed=3)
        probe = ReachabilityProbe(system.sim, system.network, system.metrics,
                                  "edge0", "cloud", period=2.0, timeout=1.5)
        probe.start()
        system.injector.inject_at(10.0, PartitionFault(
            name="cloud-cut", duration=10.0, isolate_node="cloud"))
        system.run(until=30.0)
        reach = system.metrics.series("reach:cloud")
        assert reach.value_at(5.0) == 1.0       # reachable before the cut
        assert reach.value_at(15.0) == 0.0      # probes time out mid-cut
        assert reach.value_at(29.0) == 1.0      # heals after revert
        assert probe.lost >= 4

    def test_strict_slo_breaches_on_partition(self):
        system = IoTSystem.with_edge_cloud_landscape(1, 1, seed=3)
        ReachabilityProbe(system.sim, system.network, system.metrics,
                          "edge0", "cloud", period=2.0, timeout=1.5).start()
        monitor = SloMonitor(
            system.sim, system.metrics, default_slos(system, strict=True),
            trace=system.trace, period=2.0)
        monitor.start()
        system.injector.inject_at(10.0, PartitionFault(
            name="cloud-cut", duration=10.0, isolate_node="cloud"))
        system.run(until=30.0)
        assert monitor.ever_breached
        assert system.trace.count(category="alert", name="slo-breach") >= 1


class TestSloDrivenAdaptation:
    """Acceptance: an SLO burn alert triggers a MAPE repair."""

    def _build(self):
        system = IoTSystem.with_edge_cloud_landscape(1, 2, seed=11)
        system.enable_observability()
        scope = ["edge0"] + list(system.sites["edge0"])
        loop = MapeLoop(
            system.sim, system.network, system.fleet, "edge0", scope,
            analyzers=[SloAlertAnalyzer()],   # *only* SLO alerts drive it
            planner=RuleBasedPlanner(),
            executor=Executor(system.sim, system.network, system.fleet,
                              "edge0", system.rngs.stream("exec"),
                              trace=system.trace),
            period=1.0, metrics=system.metrics, trace=system.trace,
        )
        loop.start()
        device = system.sites["edge0"][0]
        spec = SloSpec(name=f"avail:{device}", kind="availability",
                       series=f"up:{device}", objective=0.9, window=10.0,
                       subject=device, escalation="device-down", severity=4)
        monitor = SloMonitor(system.sim, system.metrics, [spec],
                             trace=system.trace, period=1.0)
        monitor.attach(loop)
        monitor.start()
        # Crash with no scheduled revert: only adaptation can bring the
        # device back.
        system.injector.inject_at(3.0, CrashFault(name=f"crash:{device}",
                                                  device_id=device))
        return system, loop, monitor, device

    def test_slo_burn_triggers_repair(self):
        system, loop, monitor, device = self._build()
        system.run(until=40.0)
        assert monitor.ever_breached
        # The loop's only analyzer is the SLO one, so any repair is
        # alert-driven by construction -- and the device came back.
        assert system.device(device).up
        assert len(loop.repairs) >= 1
        # The repaired issue was closed; nothing is left outstanding.
        assert not [i for i in loop.knowledge.open_issues()
                    if (i.kind, i.subject) == ("device-down", device)]
        # The alert itself is ordinary telemetry.
        assert system.trace.count(category="alert", name="slo-breach") >= 1
        assert system.trace.count(category="alert", name="slo-recovered") >= 1

    def test_repair_joins_disruption_trace(self):
        system, loop, monitor, device = self._build()
        system.run(until=40.0)
        system.spans.finish_open(system.sim.now)
        report = system.kpi_report()
        crash_arcs = [arc for arc in report.arcs
                      if arc.fault_type == "CrashFault"]
        assert crash_arcs and crash_arcs[0].repairs >= 1
        assert crash_arcs[0].mttd is not None
        assert crash_arcs[0].mttr is not None
