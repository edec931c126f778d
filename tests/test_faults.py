"""Unit tests for fault models, the injector and disruption schedules."""

import pytest

from repro.devices.base import Device, DeviceClass
from repro.devices.fleet import DeviceFleet
from repro.devices.software import Service
from repro.faults.injector import FaultInjector
from repro.faults.models import (
    AdversarialEnvironmentFault,
    BatteryDepletionFault,
    CrashFault,
    CrashRecoveryFault,
    DomainTransferFault,
    LatencySpikeFault,
    LinkFailureFault,
    PartitionFault,
    ServiceFailureFault,
)
from repro.faults.schedule import (
    DisruptionSchedule,
    RandomDisruptionGenerator,
    merge_windows,
)
from repro.network.partition import PartitionManager
from repro.network.topology import build_mesh_topology
from repro.network.transport import Network
from repro.simulation.rng import RngRegistry


@pytest.fixture
def rig(sim, rngs, trace, metrics):
    topology = build_mesh_topology(["a", "b", "c"], rng=rngs.stream("net"))
    network = Network(sim, topology, trace=trace)
    fleet = DeviceFleet(sim, network=network, metrics=metrics, trace=trace)
    for node in ("a", "b", "c"):
        fleet.add(Device(node, DeviceClass.GATEWAY))
    partitions = PartitionManager(sim, topology, trace=trace)
    injector = FaultInjector(sim, fleet, topology, partitions=partitions, trace=trace)
    return sim, topology, network, fleet, injector


class TestFaultModels:
    def test_crash_fault(self, rig):
        sim, _, _, fleet, injector = rig
        injector.inject(CrashFault(name="c", device_id="a"))
        assert not fleet.get("a").up
        assert injector.active_faults

    def test_crash_recovery_auto_heals(self, rig):
        sim, _, _, fleet, injector = rig
        injector.inject(CrashRecoveryFault(name="c", duration=5.0, device_id="a"))
        sim.run(until=4.0)
        assert not fleet.get("a").up
        sim.run(until=6.0)
        assert fleet.get("a").up
        assert injector.active_faults == []

    def test_crash_recovery_requires_duration(self):
        with pytest.raises(ValueError):
            CrashRecoveryFault(name="c", device_id="a")

    def test_service_failure_and_restore(self, rig):
        sim, _, _, fleet, injector = rig
        fleet.get("a").host(Service("svc"))
        injector.inject(ServiceFailureFault(name="f", duration=3.0,
                                            device_id="a", service_name="svc"))
        assert fleet.get("a").stack.service("svc").state.value == "failed"
        sim.run(until=4.0)
        assert fleet.get("a").stack.service("svc").state.value == "running"

    def test_partition_fault_isolation(self, rig):
        sim, topology, _, _, injector = rig
        injector.inject(PartitionFault(name="p", duration=5.0, isolate_node="a"))
        assert not topology.reachable("a", "b")
        sim.run(until=6.0)
        assert topology.reachable("a", "b")

    def test_partition_fault_groups(self, rig):
        sim, topology, _, _, injector = rig
        injector.inject(PartitionFault(name="p", group_a={"a"}, group_b={"b", "c"}))
        assert not topology.reachable("a", "b")
        assert topology.reachable("b", "c")

    def test_link_failure(self, rig):
        sim, topology, _, _, injector = rig
        fault = LinkFailureFault(name="l", node_a="a", node_b="b")
        injector.inject(fault)
        assert not topology.link_between("a", "b").up
        injector.revert(fault)
        assert topology.link_between("a", "b").up

    def test_link_failure_unknown_link_raises(self, rig):
        _, _, _, _, injector = rig
        with pytest.raises(ValueError):
            injector.inject(LinkFailureFault(name="l", node_a="a", node_b="zz"))

    def test_latency_spike_and_revert(self, rig):
        sim, topology, _, _, injector = rig
        injector.inject(LatencySpikeFault(name="s", duration=5.0,
                                          node_a="a", node_b="b", factor=10.0))
        assert topology.link_between("a", "b").model.degradation == 10.0
        sim.run(until=6.0)
        assert topology.link_between("a", "b").model.degradation == 1.0

    def test_battery_depletion_on_mains_raises(self, rig):
        _, _, _, fleet, injector = rig
        with pytest.raises(ValueError):
            injector.inject(BatteryDepletionFault(name="b", device_id="a"))

    def test_battery_depletion_on_sensor(self, sim, rngs, trace, metrics):
        topology = build_mesh_topology(["s", "hub"], rng=rngs.stream("net"))
        network = Network(sim, topology, trace=trace)
        fleet = DeviceFleet(sim, network=network, metrics=metrics, trace=trace)
        fleet.add(Device("s", DeviceClass.SENSOR))
        fleet.add(Device("hub", DeviceClass.EDGE))
        injector = FaultInjector(sim, fleet, topology, trace=trace)
        fault = BatteryDepletionFault(name="b", device_id="s")
        injector.inject(fault)
        assert not fleet.get("s").up
        injector.revert(fault)
        assert fleet.get("s").up
        assert fleet.get("s").battery.fraction == 1.0

    def test_domain_transfer_and_revert(self, rig):
        sim, _, _, fleet, injector = rig
        fault = DomainTransferFault(name="d", device_id="a", new_domain="foreign")
        injector.inject(fault)
        assert fleet.get("a").domain == "foreign"
        injector.revert(fault)
        assert fleet.get("a").domain == "default"

    def test_adversarial_environment(self, rig):
        sim, _, _, fleet, injector = rig
        fault = AdversarialEnvironmentFault(name="adv", duration=5.0, device_id="a")
        injector.inject(fault)
        assert not fleet.get("a").environment_trusted
        sim.run(until=6.0)
        assert fleet.get("a").environment_trusted


class TestInjector:
    def test_inject_at_schedules(self, rig):
        sim, _, _, fleet, injector = rig
        injector.inject_at(5.0, CrashFault(name="c", device_id="a"))
        sim.run(until=4.0)
        assert fleet.get("a").up
        sim.run(until=6.0)
        assert not fleet.get("a").up

    def test_revert_all(self, rig):
        sim, topology, _, fleet, injector = rig
        injector.inject(CrashFault(name="c", device_id="a"))
        injector.inject(LinkFailureFault(name="l", node_a="b", node_b="c"))
        for fault in injector.active_faults:
            injector.revert(fault)
        assert fleet.get("a").up
        assert topology.link_between("b", "c").up
        assert injector.active_faults == []

    def test_injection_traced(self, rig, trace):
        sim, _, _, _, injector = rig
        injector.inject(CrashRecoveryFault(name="c", duration=1.0, device_id="a"))
        sim.run(until=2.0)
        assert trace.count(category="injection", name="fault-injected") == 1
        assert trace.count(category="injection", name="fault-reverted") == 1


class TestSchedule:
    def test_entries_sorted(self):
        schedule = DisruptionSchedule()
        schedule.add(5.0, CrashFault(name="b", device_id="x"))
        schedule.add(1.0, CrashFault(name="a", device_id="y"))
        assert [e.time for e in schedule.entries] == [1.0, 5.0]
        assert len(schedule) == 2

    def test_negative_time_raises(self):
        with pytest.raises(ValueError):
            DisruptionSchedule().add(-1.0, CrashFault(name="c", device_id="x"))

    def test_install_applies_at_times(self, rig):
        sim, _, _, fleet, injector = rig
        schedule = DisruptionSchedule()
        schedule.add(2.0, CrashRecoveryFault(name="c", duration=3.0, device_id="a"))
        schedule.install(injector)
        sim.run(until=3.0)
        assert not fleet.get("a").up
        sim.run(until=6.0)
        assert fleet.get("a").up

    def test_disruption_windows_merge_and_clip(self):
        schedule = DisruptionSchedule()
        schedule.add(1.0, CrashRecoveryFault(name="a", duration=4.0, device_id="x"))
        schedule.add(3.0, CrashRecoveryFault(name="b", duration=4.0, device_id="y"))
        schedule.add(20.0, CrashFault(name="c", device_id="z"))  # permanent
        windows = schedule.disruption_windows(horizon=25.0)
        assert windows == [(1.0, 7.0), (20.0, 25.0)]

    def test_merge_windows(self):
        assert merge_windows([(0, 2), (1, 3), (5, 6)]) == [(0, 3), (5, 6)]
        assert merge_windows([]) == []
        assert merge_windows([(2, 2)]) == []   # empty interval dropped
        assert merge_windows([(0, 1), (1, 2)]) == [(0, 2)]   # adjacent merge


class TestRandomGenerator:
    def test_deterministic_given_seed(self):
        def build():
            rng = RngRegistry(seed=9).stream("faults")
            generator = RandomDisruptionGenerator(rng, rate=0.5)
            return generator.generate(
                100.0, crash_targets=["a", "b"],
                service_targets=[("a", "svc")],
                link_targets=[("a", "b")],
                partition_targets=["a"],
            )

        first = build()
        second = build()
        assert [(e.time, e.fault.name) for e in first.entries] == \
               [(e.time, e.fault.name) for e in second.entries]

    def test_rate_controls_count(self):
        rng = RngRegistry(seed=9).stream("faults")
        generator = RandomDisruptionGenerator(rng, rate=1.0)
        schedule = generator.generate(200.0, crash_targets=["a"])
        # Expect ~200 * P(kind has targets); crash weight 0.4 of the mix.
        assert 40 <= len(schedule) <= 130

    def test_unknown_kind_raises(self):
        rng = RngRegistry(seed=9).stream("faults")
        with pytest.raises(ValueError):
            RandomDisruptionGenerator(rng, rate=1.0, fault_mix={"meteor": 1.0})

    def test_invalid_rate_raises(self):
        rng = RngRegistry(seed=9).stream("faults")
        with pytest.raises(ValueError):
            RandomDisruptionGenerator(rng, rate=0.0)

    def test_kinds_without_targets_skipped(self):
        rng = RngRegistry(seed=9).stream("faults")
        generator = RandomDisruptionGenerator(rng, rate=1.0,
                                              fault_mix={"partition": 1.0})
        schedule = generator.generate(50.0, crash_targets=["a"])  # no partition targets
        assert len(schedule) == 0
