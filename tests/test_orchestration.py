"""Unit tests for placement solvers and the deviceless scheduler."""

import pytest

from repro.coordination.gossip import GossipNode
from repro.coordination.registry import ServiceRegistry
from repro.devices.base import Device, DeviceClass
from repro.devices.fleet import DeviceFleet
from repro.devices.software import Service, ServiceState
from repro.network.topology import build_edge_cloud_topology
from repro.network.transport import Network
from repro.orchestration.placement import (
    PlacementConstraints,
    PlacementError,
    best_fit_placement,
    latency_aware_placement,
)
from repro.orchestration.scheduler import DevicelessScheduler


def make_devices():
    small = Device("small", DeviceClass.GATEWAY)
    big = Device("big", DeviceClass.EDGE)
    cloud = Device("cloud", DeviceClass.CLOUD)
    return [small, big, cloud]


class TestBestFit:
    def test_picks_tightest_fit(self):
        devices = make_devices()
        service = Service("svc", cpu=500.0)
        decision = best_fit_placement(service, devices)
        assert decision.device_id == "small"   # 1000 cpu leaves least slack

    def test_skips_down_devices(self):
        devices = make_devices()
        devices[0].crash()
        decision = best_fit_placement(Service("svc", cpu=500.0), devices)
        assert decision.device_id == "big"

    def test_respects_domain_constraint(self):
        devices = make_devices()
        devices[1].domain = "allowed"
        constraints = PlacementConstraints(allowed_domains=frozenset({"allowed"}))
        decision = best_fit_placement(Service("svc"), devices, constraints)
        assert decision.device_id == "big"

    def test_respects_tier_constraint(self):
        devices = make_devices()
        constraints = PlacementConstraints(required_tiers=frozenset({"cloud"}))
        decision = best_fit_placement(Service("svc"), devices, constraints)
        assert decision.device_id == "cloud"

    def test_anti_affinity(self):
        devices = make_devices()
        devices[0].host(Service("rival"))
        constraints = PlacementConstraints(anti_affinity=frozenset({"rival"}))
        decision = best_fit_placement(Service("svc", cpu=500.0), devices, constraints)
        assert decision.device_id == "big"

    def test_no_feasible_host_raises(self):
        devices = make_devices()
        with pytest.raises(PlacementError):
            best_fit_placement(Service("svc", cpu=1e9), devices)


class TestLatencyAware:
    def test_prefers_host_near_clients(self, rngs):
        topology, sites = build_edge_cloud_topology(2, 2, rng=rngs.stream("net"))
        fleet = {}
        devices = []
        for node in ("edge0", "edge1"):
            device = Device(node, DeviceClass.EDGE)
            devices.append(device)
        cloud = Device("cloud", DeviceClass.CLOUD)
        devices.append(cloud)
        clients = sites["edge0"]
        decision = latency_aware_placement(Service("svc"), devices, topology, clients)
        assert decision.device_id == "edge0"

    def test_unreachable_clients_penalized_not_fatal(self, rngs):
        topology, sites = build_edge_cloud_topology(2, 2, rng=rngs.stream("net"))
        devices = [Device("edge0", DeviceClass.EDGE), Device("edge1", DeviceClass.EDGE)]
        decision = latency_aware_placement(
            Service("svc"), devices, topology, ["ghost-client"]
        )
        assert decision.device_id in ("edge0", "edge1")


@pytest.fixture
def scheduler_rig(sim, rngs, trace):
    topology, sites = build_edge_cloud_topology(2, 2, rng=rngs.stream("net"))
    network = Network(sim, topology, trace=trace)
    fleet = DeviceFleet(sim, network=network, trace=trace)
    fleet.add(Device("cloud", DeviceClass.CLOUD))
    for edge in sites:
        fleet.add(Device(edge, DeviceClass.EDGE))
        for device_id in sites[edge]:
            fleet.add(Device(device_id, DeviceClass.GATEWAY))
    gossip = GossipNode(sim, network, "edge0", ["edge0"], rngs.stream("g"))
    registry = ServiceRegistry(gossip)
    scheduler = DevicelessScheduler(sim, fleet, topology, registry=registry,
                                    trace=trace)
    return scheduler, fleet, topology, sites, registry


class TestDevicelessScheduler:
    def test_submit_latency_aware(self, scheduler_rig):
        scheduler, fleet, _, sites, registry = scheduler_rig
        decision = scheduler.submit(Service("proc"), clients=sites["edge1"])
        # Site-1 hosts (the edge or a local gateway) beat everything else
        # on mean latency to site-1 clients.
        site1_hosts = {"edge1"} | set(sites["edge1"])
        assert decision.device_id in site1_hosts
        assert scheduler.placement_of("proc") == decision.device_id
        assert scheduler.healthy("proc")
        assert registry.lookup("proc").device_id == decision.device_id

    def test_submit_best_fit_without_clients(self, scheduler_rig):
        scheduler, fleet, _, _, _ = scheduler_rig
        decision = scheduler.submit(Service("batch", cpu=500.0))
        assert decision.device_id is not None

    def test_duplicate_submit_raises(self, scheduler_rig):
        scheduler, _, _, sites, _ = scheduler_rig
        scheduler.submit(Service("proc"), clients=sites["edge0"])
        with pytest.raises(ValueError):
            scheduler.submit(Service("proc"))

    def test_reconcile_replaces_after_host_crash(self, scheduler_rig):
        scheduler, fleet, _, sites, _ = scheduler_rig
        decision = scheduler.submit(Service("proc"), clients=sites["edge1"])
        old_host = decision.device_id
        fleet.crash(old_host)
        assert not scheduler.healthy("proc")
        decisions = scheduler.reconcile()
        assert len(decisions) == 1
        new_host = scheduler.placement_of("proc")
        assert new_host != old_host
        assert scheduler.healthy("proc")
        assert scheduler.reschedules == 1

    def test_reconcile_replaces_failed_service(self, scheduler_rig):
        scheduler, fleet, _, sites, _ = scheduler_rig
        decision = scheduler.submit(Service("proc"), clients=sites["edge0"])
        fleet.get(decision.device_id).stack.mark_failed("proc")
        scheduler.reconcile()
        assert scheduler.healthy("proc")

    def test_reconcile_noop_when_healthy(self, scheduler_rig):
        scheduler, _, _, sites, _ = scheduler_rig
        scheduler.submit(Service("proc"), clients=sites["edge0"])
        assert scheduler.reconcile() == []

    def test_reconcile_survives_no_capacity(self, scheduler_rig):
        scheduler, fleet, _, sites, _ = scheduler_rig
        decision = scheduler.submit(Service("proc"), clients=sites["edge0"])
        # Crash every device: reconcile has nowhere to go.
        for device in fleet.devices:
            fleet.crash(device.device_id)
        decisions = scheduler.reconcile()
        assert decisions == []   # nowhere to go; deployment stays put
        assert scheduler.placement_of("proc") == decision.device_id
