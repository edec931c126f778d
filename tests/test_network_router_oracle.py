"""The owned router against its oracle.

``Topology`` keeps its own adjacency map and routes with its own
bidirectional Dijkstra (``repro.network.topology.shortest_path``).  Before
that it kept an ``nx.Graph`` and asked ``nx.shortest_path``; which of several
equal-cost paths comes back decides latency draws and every digest after
them, so the replacement must agree *exactly*, ties included.  The shadow
below is that former implementation, kept by the test: every mutation is
applied to both, and after every step the paths, the node order, each node's
neighbour order and the components must be equal.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.network.link import LINK_PROFILES
from repro.network.topology import Topology, build_edge_cloud_topology

# 0.002 / 0.008 / 0.010: four lan hops tie with one wireless hop, a lan plus a
# wireless hop with one metro hop -- equal-cost alternatives abound.
PROFILES = ("lan", "wireless", "metro")


class Shadow:
    """What ``Topology`` did on networkx, mutation for mutation."""

    def __init__(self):
        self.graph = nx.Graph()

    def add_node(self, node):
        self.graph.add_node(node)

    def add_link(self, a, b, profile):
        for node in (a, b):
            if node not in self.graph:
                self.graph.add_node(node)
        if a == b:
            raise ValueError("self-link")
        self.graph.add_edge(a, b, up=True,
                            weight=LINK_PROFILES[profile].base_latency)

    def remove_node(self, node):
        if node in self.graph:
            self.graph.remove_node(node)

    def set_up(self, a, b, up):
        self.graph.edges[a, b]["up"] = up

    def up_subgraph(self):
        sub = nx.Graph()
        sub.add_nodes_from(self.graph.nodes)
        for u, v, data in self.graph.edges(data=True):
            if data["up"]:
                sub.add_edge(u, v, weight=data["weight"])
        return sub

    def route(self, sub, src, dst):
        if src == dst:
            return [src]
        if src not in self.graph or dst not in self.graph:
            return None
        try:
            return nx.shortest_path(sub, src, dst, weight="weight")
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            return None


def apply(topology, shadow, op):
    """Apply one mutation to both sides; both must accept or refuse it."""
    kind = op[0]
    if kind == "node":
        _, node = op
        topology.add_node(node)
        shadow.add_node(node)
    elif kind == "link":
        _, a, b, profile = op
        if a == b:
            with pytest.raises(ValueError):
                topology.add_link(a, b, profile=profile)
            with pytest.raises(ValueError):
                shadow.add_link(a, b, profile)
        else:
            link = topology.add_link(a, b, profile=profile)
            shadow.add_link(a, b, profile)
            assert topology.link_between(a, b) is link
            assert topology.link_between(b, a) is link
    elif kind == "remove":
        topology.remove_node(op[1])
        shadow.remove_node(op[1])
    else:
        _, index, up = op
        edges = list(shadow.graph.edges)
        if edges:
            a, b = edges[index % len(edges)]
            topology.link_between(a, b).set_up(up)
            shadow.set_up(a, b, up)


def assert_same_graph(topology, shadow, pairs):
    graph = shadow.graph
    assert topology.nodes == list(graph.nodes)
    for node in graph.nodes:
        assert topology.neighbors(node) == list(graph.neighbors(node)), node
    assert {link.key() for link in topology.links} == \
        {"--".join(sorted(edge)) for edge in graph.edges}
    sub = shadow.up_subgraph()
    # Twice: the second pass is served from the route memo.
    for _ in range(2):
        for src, dst in pairs:
            expected = shadow.route(sub, src, dst)
            assert topology.route(src, dst) == expected, (src, dst)
            assert topology.reachable(src, dst) == (expected is not None)
    assert topology.components() == \
        [set(c) for c in nx.connected_components(sub)]


# -- hypothesis: small pool, so re-adds, removals and ties collide ---------- #
POOL = ("a", "b", "c", "d", "e", "f", "g")
ALL_PAIRS = [(s, d) for s in POOL + ("nowhere",) for d in POOL + ("nowhere",)]

names = st.sampled_from(POOL)
operations = st.one_of(
    st.tuples(st.just("node"), names),
    st.tuples(st.just("link"), names, names, st.sampled_from(PROFILES)),
    st.tuples(st.just("link"), names, names, st.sampled_from(PROFILES)),
    st.tuples(st.just("remove"), names),
    st.tuples(st.just("flap"), st.integers(0, 50), st.booleans()),
    st.tuples(st.just("flap"), st.integers(0, 50), st.booleans()),
)


class TestRouterAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(operations, min_size=1, max_size=30))
    def test_any_mutation_schedule_routes_like_networkx(self, schedule):
        topology, shadow = Topology(), Shadow()
        for op in schedule:
            apply(topology, shadow, op)
            assert_same_graph(topology, shadow, ALL_PAIRS)

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_churn_on_an_edge_cloud_landscape(self, seed):
        """Longer schedules on the landscape scenarios actually route over."""
        rng = random.Random(seed)
        topology, _sites = build_edge_cloud_topology(4, 3)
        shadow = Shadow()
        for node in topology.nodes:
            shadow.add_node(node)
        # Replay the builder's links in the order it added them.
        for link in topology.links:
            shadow.add_link(link.a, link.b, link.profile.name)
        assert_same_graph(topology, shadow, [("d0.0", "d2.1"), ("d3.2", "cloud")])
        extras = [f"x{i}" for i in range(5)]
        for _step in range(50):
            roll = rng.random()
            nodes = topology.nodes
            if roll < 0.15:
                op = ("node", rng.choice(extras))
            elif roll < 0.50:
                # Mostly three tie-prone profiles; sometimes any of them.
                profile = (rng.choice(PROFILES) if rng.random() < 0.8
                           else rng.choice(sorted(LINK_PROFILES)))
                op = ("link", rng.choice(nodes + extras), rng.choice(nodes),
                      profile)
            elif roll < 0.60:
                op = ("remove", rng.choice(extras + nodes[-3:]))
            else:
                op = ("flap", rng.randrange(1000), rng.random() < 0.5)
            apply(topology, shadow, op)
            nodes = topology.nodes
            pairs = [tuple(rng.sample(nodes, 2)) for _ in range(12)]
            pairs += [(nodes[0], nodes[0]), (nodes[0], "nowhere"),
                      ("edge0", "edge2"), ("edge2", "edge0")]
            assert_same_graph(topology, shadow, pairs)
        assert topology.route_hits and topology.route_misses \
            and topology.invalidations


class TestOrderingRules:
    """The three ordering rules of DESIGN.md §4, stated directly."""

    def test_re_adding_a_pair_replaces_the_link_in_place(self):
        topology = Topology()
        topology.add_link("a", "b")
        topology.add_link("a", "c")
        old = topology.link_between("a", "b")
        new = topology.add_link("b", "a", profile="wan")
        assert new is not old
        assert topology.link_between("a", "b") is new
        assert topology.neighbors("a") == ["b", "c"]
        assert topology.links == [new, topology.link_between("a", "c")]

    def test_a_removed_node_goes_last_when_re_added(self):
        topology = Topology()
        for node in "abc":
            topology.add_node(node)
        topology.add_link("a", "b")
        topology.add_link("c", "b")
        topology.remove_node("a")
        assert topology.nodes == ["b", "c"]
        assert topology.neighbors("b") == ["c"]
        assert topology.link_between("a", "b") is None
        topology.add_link("a", "b")
        assert topology.nodes == ["b", "c", "a"]
        assert topology.neighbors("b") == ["c", "a"]

    def test_re_adding_a_node_keeps_its_position(self):
        topology = Topology()
        topology.add_node("a")
        topology.add_node("b")
        topology.add_link("a", "b")
        topology.add_node("a")
        assert topology.nodes == ["a", "b"]
        assert topology.neighbors("a") == ["b"]

    def test_self_link_raises_after_adding_the_node(self):
        topology = Topology()
        with pytest.raises(ValueError):
            topology.add_link("a", "a")
        assert topology.nodes == ["a"]
        assert topology.links == []

    def test_equal_cost_tie_follows_the_up_graph_not_the_base_order(self):
        """An edge is emitted from its earlier-inserted endpoint, so the
        up-link graph's neighbour order can differ from the base map's."""
        topology = Topology()
        for node in ("s", "p", "q", "t"):
            topology.add_node(node)
        # t's base neighbour order is [q, p]; walked from p first, the
        # up-link graph has it as [p, q].
        topology.add_link("q", "t")
        topology.add_link("p", "t")
        topology.add_link("s", "p")
        topology.add_link("s", "q")
        shadow = Shadow()
        for node in topology.nodes:
            shadow.add_node(node)
        for link in topology.links:
            shadow.add_link(link.a, link.b, link.profile.name)
        assert topology.neighbors("t") == ["q", "p"]
        assert list(shadow.up_subgraph().neighbors("t")) == ["p", "q"]
        assert_same_graph(topology, shadow, [("s", "t"), ("t", "s")])
