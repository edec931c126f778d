"""Network topologies.

A :class:`Topology` is a networkx graph of node ids plus a :class:`Link`
per edge.  Builders construct the archetypal IoT layouts of Figure 1: a
cloud region, edge sites with their local device clusters, and the links
between the tiers.  Routing is shortest-path by expected latency, restricted
to links that are currently up, and is a function of topology *state*: the
up-link graph and the routes found on it are kept until a node, a link or a
link's up/down state changes (DESIGN.md §4, "Route on change").
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.network.link import LINK_PROFILES, Link, LinkProfile

#: ``(nodes, links)`` of one route, as the route memo stores and shares it.
Route = Tuple[Tuple[str, ...], Tuple[Link, ...]]

# Memo default for "not looked up yet" (None is a memoised answer: unreachable).
_UNKNOWN = object()


class Topology:
    """A mutable graph of nodes and latency-annotated links."""

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self.graph = nx.Graph()
        self._rng = rng if rng is not None else random.Random(0)
        self._links: Dict[str, Link] = {}
        # Derived from topology state, dropped together by _invalidate().
        self._up_graph: Optional[nx.Graph] = None
        self._routes: Dict[Tuple[str, str], Optional[Route]] = {}
        # Plain ints, deliberately not metrics counters: those feed
        # system_digest, and cache health must stay off the digest.
        self.route_hits = 0
        self.route_misses = 0
        self.invalidations = 0

    # -- construction ----------------------------------------------------- #
    def add_node(self, node: str, **attrs: object) -> None:
        self.graph.add_node(node, **attrs)
        self._invalidate()

    def add_link(self, a: str, b: str, profile: str = "lan") -> Link:
        """Add a bidirectional link with a named profile (see LINK_PROFILES)."""
        if profile not in LINK_PROFILES:
            raise ValueError(f"unknown link profile {profile!r}")
        return self.add_link_with_profile(a, b, LINK_PROFILES[profile])

    def add_link_with_profile(self, a: str, b: str, profile: LinkProfile) -> Link:
        for node in (a, b):
            if node not in self.graph:
                self.graph.add_node(node)
        link = Link(a, b, profile, self._rng)
        link._topology = self
        self.graph.add_edge(a, b, link=link, weight=profile.base_latency)
        self._links[link.key()] = link
        self._invalidate()
        return link

    def remove_node(self, node: str) -> None:
        if node in self.graph:
            for neighbor in list(self.graph.neighbors(node)):
                key = self.graph.edges[node, neighbor]["link"].key()
                self._links.pop(key, None)
            self.graph.remove_node(node)
            self._invalidate()

    # -- access --------------------------------------------------------- #
    @property
    def nodes(self) -> List[str]:
        return list(self.graph.nodes)

    @property
    def links(self) -> List[Link]:
        return list(self._links.values())

    def has_node(self, node: str) -> bool:
        return node in self.graph

    def link_between(self, a: str, b: str) -> Optional[Link]:
        if self.graph.has_edge(a, b):
            return self.graph.edges[a, b]["link"]
        return None

    def neighbors(self, node: str) -> List[str]:
        if node not in self.graph:
            return []
        return list(self.graph.neighbors(node))

    def node_attr(self, node: str, key: str, default: object = None) -> object:
        return self.graph.nodes[node].get(key, default)

    # -- routing ---------------------------------------------------------- #
    def _invalidate(self) -> None:
        """Drop everything derived from topology state.

        Called from the four seams that change that state (``add_node``,
        ``add_link_with_profile``, ``remove_node``, the ``Link.up`` setter)
        and from nowhere else.  A no-op while nothing has been derived since
        the last change, so building a topology costs nothing extra.
        """
        if self._up_graph is None:
            return
        self._up_graph = None
        self._routes.clear()
        self.invalidations += 1

    def _up_subgraph(self) -> nx.Graph:
        """The graph of up links, built on the first read after a change.

        Always rebuilt in base-graph node/edge order, never patched: networkx
        breaks equal-cost ties by adjacency insertion order, so a re-added
        edge landing last would silently change routes (and with them every
        latency draw and digest downstream).
        """
        sub = self._up_graph
        if sub is None:
            sub = nx.Graph()
            sub.add_nodes_from(self.graph.nodes)
            for u, v, data in self.graph.edges(data=True):
                if data["link"].up:
                    sub.add_edge(u, v, weight=data["weight"])
            self._up_graph = sub
        return sub

    def route_links(self, src: str, dst: str) -> Optional[Route]:
        """The best route as ``(nodes, links)`` tuples, or None if unreachable.

        Memoised per ``(src, dst)`` until the next topology change; the
        tuples are shared with the memo, hence immutable.
        """
        if src == dst:
            return (src,), ()
        if src not in self.graph or dst not in self.graph:
            return None
        key = (src, dst)
        found = self._routes.get(key, _UNKNOWN)
        if found is not _UNKNOWN:
            self.route_hits += 1
            return found
        self.route_misses += 1
        try:
            path = nx.shortest_path(self._up_subgraph(), src, dst, weight="weight")
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            found = None
        else:
            edges = self.graph.edges
            found = (tuple(path),
                     tuple(edges[u, v]["link"] for u, v in zip(path, path[1:])))
        self._routes[key] = found
        return found

    def route(self, src: str, dst: str) -> Optional[List[str]]:
        """Lowest expected-latency path over up links, or None if unreachable."""
        found = self.route_links(src, dst)
        return None if found is None else list(found[0])

    def reachable(self, src: str, dst: str) -> bool:
        return self.route_links(src, dst) is not None

    def expected_latency(self, src: str, dst: str) -> Optional[float]:
        """Sum of base latencies along the current best route."""
        found = self.route_links(src, dst)
        if found is None:
            return None
        return sum(link.profile.base_latency for link in found[1])

    def components(self) -> List[set]:
        """Connected components over up links (partition structure)."""
        return [set(c) for c in nx.connected_components(self._up_subgraph())]

    def route_cache_stats(self) -> Dict[str, float]:
        """Route-memo health: lookups served, recomputed, and cache drops."""
        lookups = self.route_hits + self.route_misses
        return {
            "hits": self.route_hits,
            "misses": self.route_misses,
            "invalidations": self.invalidations,
            "hit_rate": self.route_hits / lookups if lookups else 0.0,
        }


# ------------------------------------------------------------------------- #
# Builders for the archetypal layouts of Figure 1
# ------------------------------------------------------------------------- #
def build_edge_cloud_topology(
    n_sites: int,
    devices_per_site: int,
    rng: Optional[random.Random] = None,
    cloud_node: str = "cloud",
    device_profile: str = "wireless",
    site_uplink_profile: str = "wan",
    inter_site_profile: str = "metro",
    mesh_sites: bool = True,
) -> Tuple[Topology, Dict[str, List[str]]]:
    """The canonical paper landscape: cloud, edge sites, local devices.

    Returns the topology and a mapping ``edge_node -> [device ids]``.
    Device ids are ``d{site}.{index}``; edge nodes are ``edge{site}``.
    When ``mesh_sites`` is set, neighbouring edge sites get metro links so
    that decentralized coordination between edges (Fig. 3) has a path that
    does not traverse the cloud.
    """
    if n_sites < 1:
        raise ValueError("need at least one edge site")
    topo = Topology(rng=rng)
    topo.add_node(cloud_node, tier="cloud")
    site_devices: Dict[str, List[str]] = {}
    edge_nodes = []
    for s in range(n_sites):
        edge = f"edge{s}"
        edge_nodes.append(edge)
        topo.add_node(edge, tier="edge", site=s)
        topo.add_link(edge, cloud_node, profile=site_uplink_profile)
        members = []
        for d in range(devices_per_site):
            device = f"d{s}.{d}"
            topo.add_node(device, tier="device", site=s)
            topo.add_link(device, edge, profile=device_profile)
            members.append(device)
        site_devices[edge] = members
    if mesh_sites and n_sites > 1:
        for i in range(n_sites):
            j = (i + 1) % n_sites
            if i != j and topo.link_between(edge_nodes[i], edge_nodes[j]) is None:
                topo.add_link(edge_nodes[i], edge_nodes[j], profile=inter_site_profile)
    return topo, site_devices


def build_star_topology(
    center: str,
    leaves: Iterable[str],
    profile: str = "lan",
    rng: Optional[random.Random] = None,
) -> Topology:
    """A star: every leaf linked to ``center`` (the ML1/ML2 archetype)."""
    topo = Topology(rng=rng)
    topo.add_node(center, tier="hub")
    for leaf in leaves:
        topo.add_node(leaf, tier="leaf")
        topo.add_link(leaf, center, profile=profile)
    return topo


def build_mesh_topology(
    nodes: Sequence[str],
    profile: str = "lan",
    rng: Optional[random.Random] = None,
) -> Topology:
    """A full mesh among ``nodes`` (small coordination clusters)."""
    topo = Topology(rng=rng)
    for node in nodes:
        topo.add_node(node)
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            topo.add_link(a, b, profile=profile)
    return topo
