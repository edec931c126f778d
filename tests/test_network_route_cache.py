"""The route cache answers exactly what a per-call rebuild would.

``Topology`` keeps the up-link graph and a ``(src, dst) -> route`` memo
until topology state changes.  The reference below is the per-call
algorithm the cache replaced, kept verbatim: a different equal-cost path
would change latency draws and every digest, so paths must match exactly,
ties included.
"""

import random

import networkx as nx

from repro.core.system import IoTSystem
from repro.faults.models import LinkFailureFault
from repro.network.link import LINK_PROFILES
from repro.workloads.mobility import MobilityWorkload


# -- reference: the uncached algorithm ------------------------------------- #
def reference_edges(topology):
    """The topology's links in ``nx.Graph.edges()`` order: nodes in order,
    each node's neighbours in order, an edge once, from the endpoint walked
    first.  (``tests/test_network_router_oracle.py`` holds that order to a
    real ``nx.Graph`` fed the same mutations.)"""
    walked = set()
    for u in topology.nodes:
        for v in topology.neighbors(u):
            if v not in walked:
                yield u, v, topology.link_between(u, v)
        walked.add(u)


def reference_up_subgraph(topology):
    up_edges = [
        (u, v, link) for u, v, link in reference_edges(topology) if link.up
    ]
    sub = nx.Graph()
    sub.add_nodes_from(topology.nodes)
    for u, v, link in up_edges:
        sub.add_edge(u, v, weight=link.profile.base_latency)
    return sub


def reference_route(topology, src, dst):
    if src == dst:
        return [src]
    if not topology.has_node(src) or not topology.has_node(dst):
        return None
    sub = reference_up_subgraph(topology)
    try:
        return nx.shortest_path(sub, src, dst, weight="weight")
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None


def reference_expected_latency(topology, src, dst):
    path = reference_route(topology, src, dst)
    if path is None:
        return None
    return sum(
        topology.link_between(u, v).profile.base_latency
        for u, v in zip(path, path[1:])
    )


def reference_components(topology):
    return [set(c) for c in nx.connected_components(reference_up_subgraph(topology))]


def assert_matches_reference(topology, pairs):
    # Twice: the second pass is served from the memo.
    for _ in range(2):
        for src, dst in pairs:
            expected = reference_route(topology, src, dst)
            assert topology.route(src, dst) == expected, (src, dst)
            assert topology.reachable(src, dst) == (expected is not None)
            assert topology.expected_latency(src, dst) == \
                reference_expected_latency(topology, src, dst)
        assert topology.components() == reference_components(topology)


# -- the property ------------------------------------------------------------ #
class TestRouteCacheProperty:
    def test_random_mutations_match_uncached_reference(self):
        rng = random.Random(1914)
        # Four meshed sites give equal-cost ties around the edge ring.
        workload = MobilityWorkload(n_vehicles=3, n_sites=4, seed=5)
        system = workload.system
        topology, partitions = system.topology, system.partitions
        vehicles = sorted(workload._vehicle_site)
        added = []
        profiles = sorted(LINK_PROFILES)

        def toggle_set_up():
            rng.choice(topology.links).set_up(rng.random() < 0.5)

        def toggle_attribute():
            rng.choice(topology.links).up = rng.random() < 0.5

        def add_link():
            a, b = rng.sample(topology.nodes, 2)
            if topology.link_between(a, b) is None:
                topology.add_link(a, b, profile=rng.choice(profiles))

        def add_node():
            node = f"extra{len(added)}"
            added.append(node)
            topology.add_node(node)
            if rng.random() < 0.7:
                topology.add_link(node, rng.choice(topology.nodes[:-1]),
                                  profile=rng.choice(profiles))

        def remove_node():
            candidates = [n for n in added if topology.has_node(n)]
            if candidates:
                topology.remove_node(rng.choice(candidates))

        def cut_between():
            nodes = topology.nodes
            rng.shuffle(nodes)
            half = len(nodes) // 2
            partitions.cut_between(set(nodes[:half]), set(nodes[half:]),
                                   name=f"cut{step}")

        def isolate_node():
            partitions.isolate_node(rng.choice(topology.nodes),
                                    name=f"isolate{step}")

        def heal():
            if partitions._active:
                partitions.heal(rng.choice(sorted(partitions._active)))

        def handover():
            workload._handover(rng.choice(vehicles))

        operations = [toggle_set_up, toggle_attribute, add_link, add_node,
                      remove_node, cut_between, isolate_node, heal, heal,
                      handover]
        seen = set()
        for step in range(240):
            operation = rng.choice(operations)
            seen.add(operation.__name__)
            operation()
            nodes = topology.nodes
            pairs = [tuple(rng.sample(nodes, 2)) for _ in range(10)]
            pairs += [(nodes[0], nodes[0]), (nodes[0], "nowhere"),
                      ("edge0", "edge2"), ("edge2", "edge0")]
            assert_matches_reference(topology, pairs)
        assert seen == {op.__name__ for op in operations}
        # The run exercised both sides of the cache.
        assert topology.route_hits > 0
        assert topology.route_misses > 0
        assert topology.invalidations > 0

    def test_steady_topology_is_served_from_the_memo(self):
        system = IoTSystem.with_edge_cloud_landscape(3, 2, seed=1)
        topology = system.topology
        before = topology.invalidations
        for _ in range(5):
            assert topology.route("d0.0", "d2.1") == \
                reference_route(topology, "d0.0", "d2.1")
        assert (topology.route_misses, topology.route_hits) == (1, 4)
        assert topology.invalidations == before
        assert topology.route_cache_stats()["hit_rate"] == 0.8
        # Re-asserting the state a link already has is not a change.
        topology.link_between("d0.0", "edge0").set_up(True)
        assert topology.invalidations == before

    def test_mutating_a_returned_path_does_not_poison_the_memo(self):
        system = IoTSystem.with_edge_cloud_landscape(2, 1, seed=1)
        topology = system.topology
        path = topology.route("d0.0", "cloud")
        expected = list(path)
        path.reverse()
        path.append("bogus")
        assert topology.route("d0.0", "cloud") == expected

    def test_unreachable_is_memoised_and_forgotten_on_heal(self):
        system = IoTSystem.with_edge_cloud_landscape(2, 1, seed=1)
        topology = system.topology
        link = topology.link_between("d0.0", "edge0")
        link.up = False
        assert topology.route("d0.0", "cloud") is None
        assert topology.route("d0.0", "cloud") is None
        link.up = True
        assert topology.route("d0.0", "cloud") == ["d0.0", "edge0", "cloud"]


class TestLinkFaultThroughTransport:
    def test_apply_then_revert_changes_the_very_next_send(self):
        system = IoTSystem.with_edge_cloud_landscape(1, 1, seed=3)
        network, stats = system.network, system.network.stats
        received = []
        network.register("edge0", "ping", received.append)

        network.send("d0.0", "edge0", "ping")  # warms the route memo
        fault = LinkFailureFault(name="cut", node_a="d0.0", node_b="edge0")
        system.injector.inject(fault)
        network.send("d0.0", "edge0", "ping")
        assert stats.dropped_unreachable == 1
        system.injector.revert(fault)
        network.send("d0.0", "edge0", "ping")
        system.run(until=1.0)
        assert stats.dropped_unreachable == 1
        assert stats.delivered == len(received) == 2
