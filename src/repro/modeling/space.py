"""Spatial environment models.

§VII.B: "As devices are often deployed in wide physical spaces, the
spatial aspect (and how locality affects the system) is significant", and
§IV calls for "a view of the system's environment as a composite model".
This module provides that composite spatial view:

* a hierarchy of *places* (containment: city > district > building > room);
* an adjacency relation among places (physical connectivity);
* entities (devices, people) located at places, moving at runtime.

Queries cover the paper's locality reasoning: which entities are within a
place (transitively), hop distance between places, and *coverage*
properties ("every sensor is within k hops of a controller") -- evaluated
either ad hoc or compiled into atomic propositions for the runtime
monitor, which is how spatial requirements become checkable resilience
properties.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple


class SpatialModel:
    """A composite model of physical space and located entities."""

    def __init__(self) -> None:
        self._parent: Dict[str, Optional[str]] = {}
        self._adjacency: Dict[str, Set[str]] = {}
        self._location: Dict[str, str] = {}   # entity -> place
        self._moves: List[Tuple[float, str, str, str]] = []

    # -- places ------------------------------------------------------------- #
    def add_place(self, place: str, parent: Optional[str] = None) -> None:
        if place in self._parent:
            raise ValueError(f"place {place!r} already exists")
        if parent is not None and parent not in self._parent:
            raise KeyError(f"unknown parent place {parent!r}")
        self._parent[place] = parent
        self._adjacency[place] = set()

    def connect(self, a: str, b: str) -> None:
        """Declare two places physically adjacent (door, road, link)."""
        for place in (a, b):
            if place not in self._parent:
                raise KeyError(f"unknown place {place!r}")
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)

    def has_place(self, place: str) -> bool:
        return place in self._parent

    @property
    def places(self) -> List[str]:
        return sorted(self._parent)

    def parent_of(self, place: str) -> Optional[str]:
        return self._parent[place]

    def ancestors(self, place: str) -> List[str]:
        out = []
        current = self._parent.get(place)
        while current is not None:
            out.append(current)
            current = self._parent.get(current)
        return out

    def contains(self, outer: str, inner: str) -> bool:
        """True if ``inner`` is (transitively) inside ``outer``."""
        return outer == inner or outer in self.ancestors(inner)

    def children_of(self, place: str) -> List[str]:
        return sorted(p for p, parent in self._parent.items() if parent == place)

    # -- entities -------------------------------------------------------------- #
    def place_entity(self, entity: str, place: str, time: float = 0.0) -> None:
        if place not in self._parent:
            raise KeyError(f"unknown place {place!r}")
        previous = self._location.get(entity)
        self._location[entity] = place
        if previous is not None and previous != place:
            self._moves.append((time, entity, previous, place))

    def location_of(self, entity: str) -> Optional[str]:
        return self._location.get(entity)

    def entities_at(self, place: str, transitive: bool = True) -> List[str]:
        """Entities located at ``place`` (or inside it, transitively)."""
        if transitive:
            return sorted(
                e for e, p in self._location.items() if self.contains(place, p)
            )
        return sorted(e for e, p in self._location.items() if p == place)

    @property
    def entities(self) -> List[str]:
        return sorted(self._location)

    @property
    def movement_log(self) -> List[Tuple[float, str, str, str]]:
        return list(self._moves)

    # -- spatial queries ---------------------------------------------------------#
    def hop_distance(self, a: str, b: str) -> Optional[int]:
        """Shortest adjacency distance between places; None if disconnected."""
        if a == b:
            return 0
        if a not in self._parent or b not in self._parent:
            return None
        return self._hops_from(a).get(b)

    def entity_distance(self, entity_a: str, entity_b: str) -> Optional[int]:
        place_a = self._location.get(entity_a)
        place_b = self._location.get(entity_b)
        if place_a is None or place_b is None:
            return None
        return self.hop_distance(place_a, place_b)

    def within_hops(self, place: str, hops: int) -> Set[str]:
        """Places reachable from ``place`` in at most ``hops`` steps."""
        if place not in self._parent:
            raise KeyError(f"unknown place {place!r}")
        return set(self._hops_from(place, hops))

    def _hops_from(self, place: str,
                   max_hops: Optional[int] = None) -> Dict[str, int]:
        """Breadth-first hop count to every place within ``max_hops``."""
        depth = {place: 0}
        frontier = deque([place])
        while frontier:
            current = frontier.popleft()
            if depth[current] == max_hops:
                continue
            for neighbor in self._adjacency[current]:
                if neighbor not in depth:
                    depth[neighbor] = depth[current] + 1
                    frontier.append(neighbor)
        return depth

    def covered(
        self,
        targets: Iterable[str],
        guardians: Iterable[str],
        max_hops: int,
    ) -> Tuple[bool, List[str]]:
        """Coverage check: is every target entity within ``max_hops`` of
        some guardian entity?  Returns (ok, uncovered targets) -- the
        paper's "edge responsible for devices within its local scope"
        stated spatially."""
        guardian_places = {
            self._location[g] for g in guardians if g in self._location
        }
        uncovered = []
        for target in targets:
            place = self._location.get(target)
            if place is None:
                uncovered.append(target)
                continue
            reachable = self.within_hops(place, max_hops)
            if not (reachable & guardian_places):
                uncovered.append(target)
        return (not uncovered, uncovered)

    # -- monitor integration ----------------------------------------------------- #
    def proposition(
        self,
        name: str,
        predicate: Callable[["SpatialModel"], bool],
    ) -> "SpatialProposition":
        """Wrap a spatial predicate as a named proposition source."""
        return SpatialProposition(name, self, predicate)


class SpatialProposition:
    """A named, re-evaluable spatial predicate.

    ``current_labels(props)`` evaluates each proposition and returns the
    set of names currently true -- feed it to
    :meth:`repro.modeling.runtime_monitor.RuntimeMonitor.observe` to make
    spatial requirements runtime-monitorable.
    """

    def __init__(self, name: str, model: SpatialModel,
                 predicate: Callable[[SpatialModel], bool]) -> None:
        self.name = name
        self.model = model
        self.predicate = predicate

    def holds(self) -> bool:
        return self.predicate(self.model)


def current_labels(propositions: Iterable[SpatialProposition]) -> Set[str]:
    """Names of all currently-true spatial propositions."""
    return {p.name for p in propositions if p.holds()}


def build_city_space(n_districts: int, buildings_per_district: int) -> SpatialModel:
    """A canonical city hierarchy with a road ring between districts."""
    model = SpatialModel()
    model.add_place("city")
    districts = []
    for d in range(n_districts):
        district = f"district{d}"
        model.add_place(district, parent="city")
        districts.append(district)
        for b in range(buildings_per_district):
            building = f"district{d}/building{b}"
            model.add_place(building, parent=district)
            model.connect(district, building)
    for i in range(len(districts)):
        model.connect(districts[i], districts[(i + 1) % len(districts)])
    return model
