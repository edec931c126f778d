"""Unit tests for the MAPE-K components and loop."""

import pytest

from repro.adaptation.actions import (
    MigrateServiceAction,
    NoopAction,
    RebootDeviceAction,
    RestartServiceAction,
)
from repro.adaptation.analyzer import (
    BatteryAnalyzer,
    DeviceLivenessAnalyzer,
    ServiceHealthAnalyzer,
    StaleKnowledgeAnalyzer,
)
from repro.adaptation.executor import Executor
from repro.adaptation.knowledge import DeviceSnapshot, Issue, KnowledgeBase
from repro.adaptation.mape import MapeLoop
from repro.adaptation.planner import RuleBasedPlanner
from repro.devices.base import Device, DeviceClass
from repro.devices.fleet import DeviceFleet
from repro.devices.software import Service, ServiceState
from repro.network.partition import PartitionManager
from repro.network.topology import build_mesh_topology
from repro.network.transport import Network


def snapshot(device_id, t, up=True, battery=1.0, running=(), failed=()):
    return DeviceSnapshot(
        device_id=device_id, observed_at=t, up=up, battery_fraction=battery,
        running_services=frozenset(running), failed_services=frozenset(failed),
    )


def _has_issue(kb, kind, subject):
    return any(i.kind == kind and i.subject == subject
               for i in kb.open_issues())


class TestKnowledgeBase:
    def test_observe_and_age(self):
        kb = KnowledgeBase(["d1", "d2"])
        kb.observe(snapshot("d1", 5.0))
        assert kb.age_of("d1", 8.0) == 3.0
        assert kb.age_of("d2", 8.0) is None

    def test_issue_dedup(self):
        kb = KnowledgeBase(["d1"])
        issue = Issue(kind="k", subject="d1", detected_at=1.0)
        assert kb.open_issue(issue)
        assert not kb.open_issue(Issue(kind="k", subject="d1", detected_at=2.0))
        assert len(kb.open_issues()) == 1

    def test_issue_close(self):
        kb = KnowledgeBase(["d1"])
        issue = Issue(kind="k", subject="d1", detected_at=1.0, service="svc")
        kb.open_issue(issue)
        kb.close_matching("k", "d1", "svc")
        assert kb.open_issues() == []

    def test_issues_ordered_by_severity(self):
        kb = KnowledgeBase(["d1"])
        kb.open_issue(Issue(kind="minor", subject="d1", detected_at=1.0, severity=1))
        kb.open_issue(Issue(kind="major", subject="d1", detected_at=2.0, severity=5))
        assert [i.kind for i in kb.open_issues()] == ["major", "minor"]


class TestAnalyzers:
    def test_service_health_opens_and_closes(self):
        kb = KnowledgeBase(["d1"])
        analyzer = ServiceHealthAnalyzer()
        kb.observe(snapshot("d1", 1.0, failed={"svc"}))
        opened = analyzer.analyze(kb, 1.0)
        assert [i.kind for i in opened] == ["service-failed"]
        # Same failure again: no duplicate issue.
        assert analyzer.analyze(kb, 2.0) == []
        kb.observe(snapshot("d1", 3.0, running={"svc"}))
        analyzer.analyze(kb, 3.0)
        assert kb.open_issues() == []

    def test_device_liveness(self):
        kb = KnowledgeBase(["d1"])
        analyzer = DeviceLivenessAnalyzer()
        kb.observe(snapshot("d1", 1.0, up=False))
        opened = analyzer.analyze(kb, 1.0)
        assert [i.kind for i in opened] == ["device-down"]
        kb.observe(snapshot("d1", 2.0, up=True))
        analyzer.analyze(kb, 2.0)
        assert not _has_issue(kb, "device-down", "d1")

    def test_stale_knowledge(self):
        kb = KnowledgeBase(["d1", "d2"])
        analyzer = StaleKnowledgeAnalyzer(max_age=5.0)
        kb.observe(snapshot("d1", 0.0))
        opened = analyzer.analyze(kb, 10.0)
        kinds = {(i.kind, i.subject) for i in opened}
        assert ("knowledge-stale", "d1") in kinds   # too old
        assert ("knowledge-stale", "d2") in kinds   # never seen
        kb.observe(snapshot("d1", 11.0))
        analyzer.analyze(kb, 12.0)
        assert not _has_issue(kb, "knowledge-stale", "d1")

    def test_stale_invalid_age_raises(self):
        with pytest.raises(ValueError):
            StaleKnowledgeAnalyzer(max_age=0.0)

    def test_battery_analyzer(self):
        kb = KnowledgeBase(["d1"])
        analyzer = BatteryAnalyzer(threshold=0.3)
        kb.observe(snapshot("d1", 1.0, battery=0.1))
        opened = analyzer.analyze(kb, 1.0)
        assert [i.kind for i in opened] == ["battery-low"]
        kb.observe(snapshot("d1", 2.0, battery=0.9))
        analyzer.analyze(kb, 2.0)
        assert not _has_issue(kb, "battery-low", "d1")


class TestPlanner:
    def test_service_failed_restarts_first(self):
        planner = RuleBasedPlanner(max_restarts=2)
        kb = KnowledgeBase(["d1"])
        issue = Issue(kind="service-failed", subject="d1", detected_at=1.0,
                      service="svc")
        plan = planner.plan([issue], kb, 1.0)
        assert len(plan.actions) == 1
        assert isinstance(plan.actions[0], RestartServiceAction)

    def test_escalates_to_migration_after_failed_restarts(self):
        planner = RuleBasedPlanner(max_restarts=1)
        kb = KnowledgeBase(["d1", "d2"])
        kb.observe(snapshot("d2", 1.0))
        issue = Issue(kind="service-failed", subject="d1", detected_at=1.0,
                      service="svc")
        first = planner.plan([issue], kb, 1.0)
        planner.record_outcome(first.actions[0], success=False)
        second = planner.plan([issue], kb, 2.0)
        assert isinstance(second.actions[0], MigrateServiceAction)
        assert second.actions[0].destination == "d2"

    def test_successful_restart_resets_escalation(self):
        planner = RuleBasedPlanner(max_restarts=1)
        kb = KnowledgeBase(["d1"])
        issue = Issue(kind="service-failed", subject="d1", detected_at=1.0,
                      service="svc")
        action = planner.plan([issue], kb, 1.0).actions[0]
        planner.record_outcome(action, success=True)
        again = planner.plan([issue], kb, 2.0)
        assert isinstance(again.actions[0], RestartServiceAction)

    def test_device_down_reboots_and_migrates(self):
        planner = RuleBasedPlanner()
        kb = KnowledgeBase(["d1", "d2"])
        kb.observe(snapshot("d1", 1.0, up=False, running={"svc"}))
        kb.observe(snapshot("d2", 1.0))
        issue = Issue(kind="device-down", subject="d1", detected_at=1.0)
        plan = planner.plan([issue], kb, 1.0)
        assert isinstance(plan.actions[0], RebootDeviceAction)
        migrations = [a for a in plan.actions if isinstance(a, MigrateServiceAction)]
        assert [m.service for m in migrations] == ["svc"]

    def test_stale_knowledge_gets_no_action(self):
        planner = RuleBasedPlanner()
        kb = KnowledgeBase(["d1"])
        issue = Issue(kind="knowledge-stale", subject="d1", detected_at=1.0)
        plan = planner.plan([issue], kb, 1.0)
        assert plan.empty

    def test_picks_least_loaded_host(self):
        planner = RuleBasedPlanner(max_restarts=0)
        kb = KnowledgeBase(["d1", "d2", "d3"])
        kb.observe(snapshot("d2", 1.0, running={"a", "b"}))
        kb.observe(snapshot("d3", 1.0, running={"a"}))
        issue = Issue(kind="service-failed", subject="d1", detected_at=1.0,
                      service="svc")
        plan = planner.plan([issue], kb, 1.0)
        assert plan.actions[0].destination == "d3"


@pytest.fixture
def exec_rig(sim, rngs, trace):
    topology = build_mesh_topology(["host", "d1", "d2"], rng=rngs.stream("net"))
    network = Network(sim, topology, trace=trace)
    fleet = DeviceFleet(sim, network=network, trace=trace)
    fleet.add(Device("host", DeviceClass.EDGE))
    fleet.add(Device("d1", DeviceClass.GATEWAY))
    fleet.add(Device("d2", DeviceClass.GATEWAY))
    executor = Executor(sim, network, fleet, "host", rngs.stream("exec"),
                        trace=trace)
    return fleet, network, executor, topology


class TestExecutor:
    def test_restart_failed_service(self, exec_rig):
        fleet, _, executor, _ = exec_rig
        device = fleet.get("d1")
        device.host(Service("svc"))
        device.stack.mark_failed("svc")
        results = executor.execute([RestartServiceAction(target="d1", service="svc")])
        assert results[0].success
        assert device.stack.service("svc").state == ServiceState.RUNNING

    def test_restart_unreachable_target_fails(self, exec_rig, sim, rngs, trace):
        fleet, network, executor, topology = exec_rig
        fleet.get("d1").host(Service("svc"))
        fleet.get("d1").stack.mark_failed("svc")
        PartitionManager(sim, topology).isolate_node("d1")
        results = executor.execute([RestartServiceAction(target="d1", service="svc")])
        assert not results[0].success
        assert "unreachable" in results[0].detail

    def test_down_executor_host_fails_everything(self, exec_rig):
        fleet, network, executor, _ = exec_rig
        network.set_node_up("host", False)
        results = executor.execute([RebootDeviceAction(target="d1")])
        assert not results[0].success

    def test_migrate_moves_service(self, exec_rig):
        fleet, _, executor, _ = exec_rig
        fleet.get("d1").host(Service("svc"))
        results = executor.execute([
            MigrateServiceAction(target="d1", service="svc", destination="d2")
        ])
        assert results[0].success
        assert not fleet.get("d1").hosts("svc")
        assert fleet.get("d2").hosts("svc")
        assert fleet.get("d2").stack.service("svc").state == ServiceState.RUNNING

    def test_migrate_rolls_back_when_destination_full(self, exec_rig):
        fleet, _, executor, _ = exec_rig
        big = Service("svc", cpu=900.0)
        fleet.get("d1").host(big)
        fleet.get("d2").host(Service("filler", cpu=900.0))
        results = executor.execute([
            MigrateServiceAction(target="d1", service="svc", destination="d2")
        ])
        assert not results[0].success
        assert fleet.get("d1").hosts("svc")   # rolled back

    def test_migrate_to_down_destination_fails(self, exec_rig):
        fleet, network, executor, _ = exec_rig
        fleet.get("d1").host(Service("svc"))
        fleet.crash("d2")
        results = executor.execute([
            MigrateServiceAction(target="d1", service="svc", destination="d2")
        ])
        assert not results[0].success

    def test_reboot_respects_success_rate(self, exec_rig):
        fleet, _, executor, _ = exec_rig
        executor.reboot_success_rate = 1.0
        fleet.crash("d1")
        results = executor.execute([RebootDeviceAction(target="d1")])
        assert results[0].success
        assert fleet.get("d1").up

    def test_reboot_can_fail(self, exec_rig):
        fleet, _, executor, _ = exec_rig
        executor.reboot_success_rate = 0.0
        fleet.crash("d1")
        results = executor.execute([RebootDeviceAction(target="d1")])
        assert not results[0].success
        assert not fleet.get("d1").up

    def test_noop_always_succeeds(self, exec_rig):
        _, _, executor, _ = exec_rig
        results = executor.execute([NoopAction(target="d1", reason="observe")])
        assert results[0].success
        assert [r.success for r in executor.results] == [True]


class TestMapeLoop:
    def _loop(self, sim, rngs, trace, metrics, host="edge"):
        topology = build_mesh_topology(["edge", "cloud", "d1", "d2"],
                                       rng=rngs.stream("net"))
        network = Network(sim, topology, trace=trace)
        fleet = DeviceFleet(sim, network=network, metrics=metrics, trace=trace)
        for node, cls in (("edge", DeviceClass.EDGE), ("cloud", DeviceClass.CLOUD),
                          ("d1", DeviceClass.GATEWAY), ("d2", DeviceClass.GATEWAY)):
            fleet.add(Device(node, cls))
        loop = MapeLoop(
            sim, network, fleet, host, ["d1", "d2"],
            analyzers=[ServiceHealthAnalyzer(), DeviceLivenessAnalyzer()],
            planner=RuleBasedPlanner(),
            executor=Executor(sim, network, fleet, host, rngs.stream("exec"),
                              reboot_success_rate=1.0, trace=trace),
            period=1.0, metrics=metrics, trace=trace,
        )
        loop.start()
        return loop, fleet, network, topology

    def test_repairs_failed_service(self, sim, rngs, trace, metrics):
        loop, fleet, _, _ = self._loop(sim, rngs, trace, metrics)
        fleet.get("d1").host(Service("svc"))
        sim.run(until=2.0)
        fleet.get("d1").stack.mark_failed("svc")
        sim.run(until=6.0)
        assert fleet.get("d1").stack.service("svc").state == ServiceState.RUNNING
        assert len(loop.repairs) >= 1

    def test_reboots_down_device(self, sim, rngs, trace, metrics):
        loop, fleet, _, _ = self._loop(sim, rngs, trace, metrics)
        sim.run(until=2.0)
        fleet.crash("d1")
        sim.run(until=6.0)
        assert fleet.get("d1").up

    def test_blind_when_host_partitioned(self, sim, rngs, trace, metrics):
        loop, fleet, network, topology = self._loop(sim, rngs, trace, metrics)
        fleet.get("d1").host(Service("svc"))
        sim.run(until=2.0)
        partitions = PartitionManager(sim, topology)
        name = partitions.isolate_node("edge")
        fleet.get("d1").stack.mark_failed("svc")
        sim.run(until=10.0)
        assert fleet.get("d1").stack.service("svc").state == ServiceState.FAILED
        assert loop.missed_observations > 0
        partitions.heal(name)
        sim.run(until=15.0)
        assert fleet.get("d1").stack.service("svc").state == ServiceState.RUNNING

    def test_down_host_does_not_iterate(self, sim, rngs, trace, metrics):
        loop, fleet, network, _ = self._loop(sim, rngs, trace, metrics)
        sim.run(until=2.0)
        iterations_before = loop.iterations
        network.set_node_up("edge", False)
        sim.run(until=10.0)
        assert loop.iterations == iterations_before

    def test_time_to_repair_pairs_fault_and_repair(self, sim, rngs, trace, metrics):
        loop, fleet, _, _ = self._loop(sim, rngs, trace, metrics)
        fleet.get("d1").host(Service("svc"))
        sim.run(until=2.0)
        fleet.get("d1").stack.mark_failed("svc")
        trace.emit(sim.now, "fault", "service-failure", subject="d1", service="svc")
        sim.run(until=8.0)
        delays = loop.time_to_repair(trace)
        assert len(delays) == 1
        assert 0.0 <= delays[0] <= 3.0
