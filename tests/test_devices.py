"""Unit tests for resources, software stacks, devices and fleets."""

import pytest

from repro.devices.base import DEVICE_CLASS_SPECS, Device, DeviceClass
from repro.devices.fleet import DeviceFleet
from repro.devices.resources import Battery, InsufficientResources, ResourcePool, ResourceSpec
from repro.devices.sensor import Actuator
from repro.devices.software import (
    STACK_PRESETS,
    Service,
    ServiceState,
    SoftwareStack,
    make_stack,
)
from repro.network.topology import Topology
from repro.network.transport import Network


class TestResourcePool:
    def test_allocate_and_release(self):
        pool = ResourcePool(ResourceSpec(cpu=100, memory=100, storage=100))
        pool.allocate("a", cpu=60, memory=10)
        assert pool.available("cpu") == 40
        pool.release("a")
        assert pool.available("cpu") == 100

    def test_overallocation_raises(self):
        pool = ResourcePool(ResourceSpec(cpu=100, memory=100, storage=100))
        pool.allocate("a", cpu=80)
        with pytest.raises(InsufficientResources):
            pool.allocate("b", cpu=30)

    def test_duplicate_name_raises(self):
        pool = ResourcePool(ResourceSpec(cpu=100, memory=100, storage=100))
        pool.allocate("a", cpu=1)
        with pytest.raises(ValueError):
            pool.allocate("a", cpu=1)

    def test_negative_amount_raises(self):
        pool = ResourcePool(ResourceSpec(cpu=100, memory=100, storage=100))
        with pytest.raises(ValueError):
            pool.allocate("a", cpu=-1)

    def test_release_unknown_raises(self):
        pool = ResourcePool(ResourceSpec(cpu=100, memory=100, storage=100))
        with pytest.raises(KeyError):
            pool.release("ghost")

    def test_utilization(self):
        pool = ResourcePool(ResourceSpec(cpu=100, memory=100, storage=100))
        pool.allocate("a", cpu=25)
        assert pool.used("cpu") / pool.spec.cpu == 0.25

    def test_invalid_spec_raises(self):
        with pytest.raises(ValueError):
            ResourceSpec(cpu=0, memory=1, storage=1)
        with pytest.raises(ValueError):
            ResourceSpec(cpu=1, memory=1, storage=1, energy_capacity=-5)


class TestBattery:
    def test_mains_powered_never_depletes(self):
        battery = Battery(None)
        assert battery.mains_powered
        assert battery.drain(1e9)
        assert battery.fraction == 1.0

    def test_drain_to_depletion(self):
        battery = Battery(10.0)
        assert battery.drain(5.0)
        assert not battery.drain(6.0)
        assert battery.depleted
        assert battery.fraction == 0.0

    def test_recharge_partial_and_full(self):
        battery = Battery(10.0)
        battery.drain(8.0)
        battery.recharge(3.0)
        assert battery.level == pytest.approx(5.0)
        battery.recharge()
        assert battery.level == 10.0

    def test_negative_drain_raises(self):
        with pytest.raises(ValueError):
            Battery(10.0).drain(-1.0)


class TestSoftwareStack:
    def test_deploy_start_stop_lifecycle(self):
        stack = make_stack("edge")
        service = Service("svc", runtime="python")
        stack.deploy(service)
        assert service.state == ServiceState.STARTING
        stack.start("svc")
        assert service.state == ServiceState.RUNNING
        assert stack.undeploy("svc") is service
        assert service.state == ServiceState.STOPPED

    def test_runtime_mismatch_raises(self):
        stack = make_stack("bare")   # only c
        with pytest.raises(ValueError):
            stack.deploy(Service("svc", runtime="python"))

    def test_max_services_enforced(self):
        stack = make_stack("bare")   # max 1
        stack.deploy(Service("one", runtime="c"))
        with pytest.raises(ValueError):
            stack.deploy(Service("two", runtime="c"))

    def test_duplicate_deploy_raises(self):
        stack = make_stack("edge")
        stack.deploy(Service("svc"))
        with pytest.raises(ValueError):
            stack.deploy(Service("svc"))

    def test_undeploy_returns_service(self):
        stack = make_stack("edge")
        stack.deploy(Service("svc"))
        service = stack.undeploy("svc")
        assert service.name == "svc"
        assert not stack.has_service("svc")

    def test_unknown_service_raises(self):
        stack = make_stack("edge")
        with pytest.raises(KeyError):
            stack.start("ghost")

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError):
            make_stack("quantum")


class TestDevice:
    def test_class_defaults_applied(self):
        device = Device("s1", DeviceClass.SENSOR)
        assert device.resources.spec.cpu == DEVICE_CLASS_SPECS[DeviceClass.SENSOR]["spec"].cpu
        assert device.battery.capacity is not None

    def test_host_reserves_resources(self):
        device = Device("e1", DeviceClass.EDGE)
        service = Service("svc", cpu=100.0, memory=64.0)
        device.host(service)
        assert device.hosts("svc")
        assert service.state == ServiceState.RUNNING
        assert device.resources.holds("svc:svc")

    def test_evict_releases_resources(self):
        device = Device("e1", DeviceClass.EDGE)
        device.host(Service("svc", cpu=100.0))
        before = device.resources.available("cpu")
        device.evict("svc")
        assert device.resources.available("cpu") == before + 100.0

    def test_can_host_respects_runtime_and_resources(self):
        sensor = Device("s1", DeviceClass.SENSOR)
        assert not sensor.can_host(Service("svc", runtime="python"))
        edge = Device("e1", DeviceClass.EDGE)
        assert edge.can_host(Service("svc", runtime="python"))
        huge = Service("huge", cpu=1e9)
        assert not edge.can_host(huge)

    def test_host_failure_rolls_back_allocation(self):
        device = Device("e1", DeviceClass.EDGE)
        device.host(Service("svc"))
        with pytest.raises(ValueError):
            device.host(Service("svc"))   # duplicate deploy
        # The failed attempt must not leak a second allocation.
        assert sorted(device.resources._allocations) == ["svc:svc"]

    def test_crash_and_recover(self):
        device = Device("e1", DeviceClass.EDGE)
        device.crash()
        assert not device.up
        device.recover()
        assert device.up

    def test_battery_depletion_downs_device(self):
        device = Device("s1", DeviceClass.SENSOR)
        device.battery.drain(device.battery.capacity)
        assert not device.up
        device.recover()   # recharge + up
        assert device.up


def _star(center, leaves, rng):
    """Every leaf linked to ``center`` over a LAN link."""
    topo = Topology(rng=rng)
    topo.add_node(center)
    for leaf in leaves:
        topo.add_link(leaf, center, profile="lan")
    return topo


class TestFleet:
    def _fleet(self, sim, rngs, metrics, trace):
        topo = _star("hub", ["d1", "d2"], rng=rngs.stream("net"))
        network = Network(sim, topo, trace=trace)
        fleet = DeviceFleet(sim, network=network, metrics=metrics, trace=trace)
        fleet.add(Device("hub", DeviceClass.EDGE))
        fleet.add(Device("d1", DeviceClass.GATEWAY, domain="a", location="l1"))
        fleet.add(Device("d2", DeviceClass.GATEWAY, domain="b", location="l2"))
        return fleet, network

    def test_duplicate_add_raises(self, sim, rngs, metrics, trace):
        fleet, _ = self._fleet(sim, rngs, metrics, trace)
        with pytest.raises(ValueError):
            fleet.add(Device("d1", DeviceClass.GATEWAY))

    def test_queries(self, sim, rngs, metrics, trace):
        fleet, _ = self._fleet(sim, rngs, metrics, trace)
        assert len(fleet) == 3
        assert [d.device_id for d in fleet.select(
            lambda d: d.domain == "a")] == ["d1"]
        assert [d.device_id for d in fleet.select(
            lambda d: d.location == "l2")] == ["d2"]
        assert len(fleet.select(
            lambda d: d.device_class == DeviceClass.GATEWAY)) == 2
        assert "d1" in fleet

    def test_crash_syncs_network_and_metrics(self, sim, rngs, metrics, trace):
        fleet, network = self._fleet(sim, rngs, metrics, trace)
        fleet.crash("d1")
        assert not fleet.get("d1").up
        assert not network.node_up("d1")
        assert metrics.series("up:d1").value_at(sim.now) == 0.0
        assert trace.count(category="fault", name="crash") == 1

    def test_recover_restores_everything(self, sim, rngs, metrics, trace):
        fleet, network = self._fleet(sim, rngs, metrics, trace)
        fleet.crash("d1")
        fleet.recover("d1")
        assert fleet.get("d1").up
        assert network.node_up("d1")
        assert trace.count(category="recovery") == 1

    def test_crash_idempotent(self, sim, rngs, metrics, trace):
        fleet, _ = self._fleet(sim, rngs, metrics, trace)
        fleet.crash("d1")
        fleet.crash("d1")
        assert trace.count(category="fault", name="crash") == 1

    def test_up_fraction(self, sim, rngs, metrics, trace):
        fleet, _ = self._fleet(sim, rngs, metrics, trace)
        assert len(fleet.select(lambda d: d.up)) == len(fleet)
        fleet.crash("d1")
        pair = fleet.select(lambda d: d.device_id in ("d1", "d2"))
        assert sum(d.up for d in pair) / len(pair) == 0.5

    def test_domain_transfer_traced(self, sim, rngs, metrics, trace):
        fleet, _ = self._fleet(sim, rngs, metrics, trace)
        old = fleet.transfer_domain("d1", "c")
        assert old == "a"
        assert fleet.get("d1").domain == "c"
        assert trace.count(name="domain-transfer") == 1

    def test_unknown_device_raises(self, sim, rngs, metrics, trace):
        fleet, _ = self._fleet(sim, rngs, metrics, trace)
        with pytest.raises(KeyError):
            fleet.get("ghost")


class TestSensorActuator:
    def test_actuator_applies_commands_and_records_latency(self, sim, rngs, metrics, trace):
        topo = _star("ctl", ["a1"], rng=rngs.stream("net"))
        network = Network(sim, topo)
        applied = []
        actuator = Actuator("a1", apply=applied.append)
        actuator.attach(sim, network, metrics=metrics, trace=trace)
        network.send("ctl", "a1", "actuator.command",
                     payload={"plan": "x", "issued_at": 0.0})
        sim.run()
        assert applied == [{"plan": "x", "issued_at": 0.0}]
        assert actuator.commands_applied == 1
        assert metrics.series("actuation.latency").mean() > 0.0
        assert trace.count(category="actuation") == 1

    def test_down_actuator_ignores_commands(self, sim, rngs):
        topo = _star("ctl", ["a1"], rng=rngs.stream("net"))
        network = Network(sim, topo)
        actuator = Actuator("a1")
        actuator.attach(sim, network)
        actuator.crash()
        network.set_node_up("a1", True)   # network path open; device logic down
        network.send("ctl", "a1", "actuator.command", payload={})
        sim.run()
        assert actuator.commands_applied == 0
