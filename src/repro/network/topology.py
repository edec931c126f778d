"""Network topologies.

A :class:`Topology` owns its graph: one insertion-ordered
``node -> {neighbour: Link}`` map.  Builders construct the archetypal IoT
layouts of Figure 1: a cloud region, edge sites with their local device
clusters, and the links between the tiers.  Routing is shortest-path by
expected latency, restricted to links that are currently up, and is a
function of topology *state*: the up-link graph and the routes found on it
are kept until a node, a link or a link's up/down state changes.  Equal-cost
ties are decided here -- by the map's insertion order and by
:func:`shortest_path` -- and by nothing else (DESIGN.md §4, "Route on
change").
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from itertools import count
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.network.link import LINK_PROFILES, Link, LinkProfile

#: ``(nodes, links)`` of one route, as the route memo stores and shares it.
Route = Tuple[Tuple[str, ...], Tuple[Link, ...]]

#: ``node -> {neighbour: base latency}`` over up links, both directions.
UpGraph = Dict[str, Dict[str, float]]

# Memo default for "not looked up yet" (None is a memoised answer: unreachable).
_UNKNOWN = object()


def shortest_path(graph: UpGraph, source: str, target: str) -> Optional[List[str]]:
    """Lowest-weight path on ``graph``, or None when there is none.

    Bidirectional Dijkstra, and *the* owner of the equal-cost tie-break
    (DESIGN.md §4): the two searches alternate starting forward, share one
    push counter that orders equal distances on both heaps, scan a node's
    neighbours in map order, and relax (and move the meeting node) only on
    a strictly smaller distance.  Every one of those choices decides some
    tie, hence latency draws and digests downstream -- do not reorder them;
    ``tests/test_network_router_oracle.py`` holds the result to the graph
    library that routed here before.
    """
    if source not in graph or target not in graph:
        return None
    if source == target:
        return [source]
    # Index 0 is the forward search, 1 the backward one.
    dists = ({}, {})                        # settled distances
    seen = ({source: 0}, {target: 0})       # best distance found so far
    preds = ({source: None}, {target: None})
    fringe = ([], [])                       # heaps of (distance, push, node)
    pushes = count()
    heappush(fringe[0], (0, next(pushes), source))
    heappush(fringe[1], (0, next(pushes), target))
    best = None         # length of the shortest path discovered so far
    meet = None         # the node where its two halves join
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, v = heappop(fringe[direction])
        done = dists[direction]
        if v in done:
            continue
        done[v] = dist
        if v in dists[1 - direction]:
            # Settled from both ends: the discovered path is shortest.
            path = []
            node = meet
            while node is not None:
                path.append(node)
                node = preds[0][node]
            path.reverse()
            node = preds[1][meet]
            while node is not None:
                path.append(node)
                node = preds[1][node]
            return path
        reached, other = seen[direction], seen[1 - direction]
        for w, cost in graph[v].items():
            if w in done:
                continue        # settled; non-negative weights cannot improve it
            length = dist + cost
            if w not in reached or length < reached[w]:
                reached[w] = length
                heappush(fringe[direction], (length, next(pushes), w))
                preds[direction][w] = v
                if w in other:
                    through = length + other[w]
                    if best is None or best > through:
                        best, meet = through, w
    return None


def connected_components(graph: UpGraph) -> List[Set[str]]:
    """Components of ``graph``, ordered by their first node in map order."""
    placed: Set[str] = set()
    components = []
    for start in graph:
        if start in placed:
            continue
        component = {start}
        frontier = [start]
        for node in frontier:       # grows while iterated: a BFS queue
            for neighbor in graph[node]:
                if neighbor not in component:
                    component.add(neighbor)
                    frontier.append(neighbor)
        placed |= component
        components.append(component)
    return components


class Topology:
    """A mutable graph of nodes and latency-annotated links."""

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self._rng = rng if rng is not None else random.Random(0)
        # The graph.  Both levels keep first-insertion order, which is what
        # the up-link graph, and through it every route tie, is derived from:
        # re-adding a pair replaces its Link in place, removing a node drops
        # its entry in every neighbour, and anything re-added goes last.
        self._adjacency: Dict[str, Dict[str, Link]] = {}
        self._links: Dict[str, Link] = {}
        # Derived from topology state, dropped together by _invalidate().
        self._up_graph: Optional[UpGraph] = None
        self._routes: Dict[Tuple[str, str], Optional[Route]] = {}
        # Plain ints, deliberately not metrics counters: those feed
        # system_digest, and cache health must stay off the digest.
        self.route_hits = 0
        self.route_misses = 0
        self.invalidations = 0

    # -- construction ----------------------------------------------------- #
    def add_node(self, node: str) -> None:
        self._insert_node(node)
        self._invalidate()

    def _insert_node(self, node: str) -> None:
        if node not in self._adjacency:
            self._adjacency[node] = {}

    def add_link(self, a: str, b: str, profile: str = "lan") -> Link:
        """Add a bidirectional link with a named profile (see LINK_PROFILES)."""
        if profile not in LINK_PROFILES:
            raise ValueError(f"unknown link profile {profile!r}")
        return self.add_link_with_profile(a, b, LINK_PROFILES[profile])

    def add_link_with_profile(self, a: str, b: str, profile: LinkProfile) -> Link:
        self._insert_node(a)
        self._insert_node(b)
        # Ahead of Link(), which refuses a self-link with its node already in.
        self._invalidate()
        link = Link(a, b, profile, self._rng)
        link._topology = self
        self._adjacency[a][b] = link
        self._adjacency[b][a] = link
        self._links[link.key()] = link
        return link

    def remove_node(self, node: str) -> None:
        if node in self._adjacency:
            for neighbor, link in self._adjacency.pop(node).items():
                del self._adjacency[neighbor][node]
                self._links.pop(link.key(), None)
            self._invalidate()

    # -- access --------------------------------------------------------- #
    @property
    def nodes(self) -> List[str]:
        return list(self._adjacency)

    @property
    def links(self) -> List[Link]:
        return list(self._links.values())

    def has_node(self, node: str) -> bool:
        return node in self._adjacency

    def link_between(self, a: str, b: str) -> Optional[Link]:
        return self._adjacency.get(a, {}).get(b)

    def neighbors(self, node: str) -> List[str]:
        return list(self._adjacency.get(node, ()))

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

    def _up_subgraph(self) -> UpGraph:
        """The graph of up links, built on the first read after a change.

        Walks nodes in order and each node's neighbours in order; an
        undirected edge is emitted once, from whichever endpoint is walked
        first, and inserted in both directions.  Always rebuilt, never
        patched: neighbour order decides equal-cost ties, so a re-upped
        edge landing last would silently change routes (and with them every
        latency draw and digest downstream).
        """
        up = self._up_graph
        if up is None:
            up = {node: {} for node in self._adjacency}
            walked: Set[str] = set()
            for u, neighbors in self._adjacency.items():
                for v, link in neighbors.items():
                    if v not in walked and link.up:
                        up[u][v] = up[v][u] = link.profile.base_latency
                walked.add(u)
            self._up_graph = up
        return up

    def route_links(self, src: str, dst: str) -> Optional[Route]:
        """The best route as ``(nodes, links)`` tuples, or None if unreachable.

        Memoised per ``(src, dst)`` until the next topology change; the
        tuples are shared with the memo, hence immutable.
        """
        if src == dst:
            return (src,), ()
        adjacency = self._adjacency
        if src not in adjacency or dst not in adjacency:
            return None
        key = (src, dst)
        found = self._routes.get(key, _UNKNOWN)
        if found is not _UNKNOWN:
            self.route_hits += 1
            return found
        self.route_misses += 1
        path = shortest_path(self._up_subgraph(), src, dst)
        if path is None:
            found = None
        else:
            found = (tuple(path),
                     tuple(adjacency[u][v] for u, v in zip(path, path[1:])))
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
        return connected_components(self._up_subgraph())

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
    topo.add_node(cloud_node)
    site_devices: Dict[str, List[str]] = {}
    edge_nodes = []
    for s in range(n_sites):
        edge = f"edge{s}"
        edge_nodes.append(edge)
        topo.add_node(edge)
        topo.add_link(edge, cloud_node, profile=site_uplink_profile)
        members = []
        for d in range(devices_per_site):
            device = f"d{s}.{d}"
            topo.add_node(device)
            topo.add_link(device, edge, profile=device_profile)
            members.append(device)
        site_devices[edge] = members
    if mesh_sites and n_sites > 1:
        for i in range(n_sites):
            j = (i + 1) % n_sites
            if i != j and topo.link_between(edge_nodes[i], edge_nodes[j]) is None:
                topo.add_link(edge_nodes[i], edge_nodes[j], profile=inter_site_profile)
    return topo, site_devices


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
