"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from typing import Any, List

import pytest

from repro.network.topology import Topology, build_edge_cloud_topology, build_mesh_topology
from repro.network.transport import Network
from repro.simulation.kernel import Simulator
from repro.simulation.metrics import MetricsRecorder
from repro.simulation.rng import RngRegistry
from repro.simulation.trace import TraceLog


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def rngs() -> RngRegistry:
    return RngRegistry(seed=1234)


@pytest.fixture
def trace() -> TraceLog:
    return TraceLog()


@pytest.fixture
def metrics() -> MetricsRecorder:
    return MetricsRecorder()


@pytest.fixture
def digest_calls(monkeypatch) -> List[Any]:
    """The systems ``system_digest`` is called on during the test, in order.

    ``from x import f`` copies the binding, so every ``repro`` module's
    binding of the function is wrapped, not only the defining one.
    """
    from repro.persistence import snapshot

    original = snapshot.system_digest
    calls: List[Any] = []

    def counted(system: Any) -> str:
        calls.append(system)
        return original(system)

    for name, module in list(sys.modules.items()):
        if ((name == "repro" or name.startswith("repro."))
                and vars(module).get("system_digest") is original):
            monkeypatch.setattr(module, "system_digest", counted)
    return calls


@pytest.fixture
def mesh5(sim, rngs, trace):
    """A 5-node full mesh with its network, for protocol tests."""
    nodes = ["n1", "n2", "n3", "n4", "n5"]
    topology = build_mesh_topology(nodes, rng=rngs.stream("net"))
    network = Network(sim, topology, trace=trace)
    return nodes, topology, network


@pytest.fixture
def landscape(sim, rngs, trace):
    """A 2-site x 3-device edge-cloud landscape with its network."""
    topology, sites = build_edge_cloud_topology(2, 3, rng=rngs.stream("net"))
    network = Network(sim, topology, trace=trace)
    return topology, sites, network
