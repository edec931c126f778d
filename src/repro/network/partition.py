"""Network partitions.

The paper repeatedly singles out non-persistent connectivity to cloud
control structures as a defining IoT disruption (§I, §II, §VII).  The
:class:`PartitionManager` severs and heals groups of links, emitting trace
events so that resilience assessment can attribute requirement violations
to the disruption windows that caused them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.network.link import Link
from repro.network.topology import Topology
from repro.observability.spans import Span, SpanRecorder
from repro.simulation.kernel import Simulator
from repro.simulation.trace import TraceLog


class PartitionManager:
    """Creates, tracks and heals named partitions on a topology."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        trace: Optional[TraceLog] = None,
        spans: Optional[SpanRecorder] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.trace = trace
        self.spans = spans
        self._active: Dict[str, List[Link]] = {}
        self._spans_by_name: Dict[str, Span] = {}

    @property
    def active_partitions(self) -> List[str]:
        return sorted(self._active)

    def is_active(self, name: str) -> bool:
        return name in self._active

    # -- cut styles -------------------------------------------------------- #
    def isolate_node(self, node: str, name: Optional[str] = None) -> str:
        """Down every link incident to ``node``."""
        links = [
            self.topology.link_between(node, n)
            for n in self.topology.neighbors(node)
        ]
        return self._cut(name or f"isolate:{node}", [l for l in links if l is not None and l.up])

    def cut_between(self, group_a: Set[str], group_b: Set[str], name: Optional[str] = None) -> str:
        """Down all links crossing between the two node groups."""
        overlapping = group_a & group_b
        if overlapping:
            raise ValueError(f"groups overlap on {sorted(overlapping)}")
        links = [
            link
            for link in self.topology.links
            if link.up
            and ((link.a in group_a and link.b in group_b) or (link.a in group_b and link.b in group_a))
        ]
        return self._cut(name or "cut", links)

    def disconnect_cloud(self, cloud_node: str, name: Optional[str] = None) -> str:
        """The canonical disruption: sever the cloud from everything."""
        return self.isolate_node(cloud_node, name=name or "cloud-outage")

    def _cut(self, name: str, links: List[Link]) -> str:
        if name in self._active:
            raise ValueError(f"partition {name!r} already active")
        for link in links:
            link.set_up(False)
        self._active[name] = links
        if self.spans is not None:
            # Parented to whatever caused the cut (a fault-injection span
            # when driven through the injector); spans the whole outage.
            self._spans_by_name[name] = self.spans.start(
                f"partition:{name}", "fault", self.sim.now,
                links=[l.key() for l in links],
            )
        if self.trace is not None:
            self.trace.emit(
                self.sim.now,
                "fault",
                "partition-start",
                subject=name,
                links=[l.key() for l in links],
            )
        return name

    # -- healing ----------------------------------------------------------- #
    def heal(self, name: str) -> None:
        """Restore all links downed by the named partition."""
        links = self._active.pop(name, None)
        if links is None:
            raise KeyError(f"no active partition {name!r}")
        for link in links:
            link.set_up(True)
        if self.spans is not None:
            span = self._spans_by_name.pop(name, None)
            if span is not None:
                self.spans.record(f"heal:{name}", "recovery", self.sim.now,
                                  parent=span)
                self.spans.finish(span, self.sim.now, status="healed")
        if self.trace is not None:
            self.trace.emit(
                self.sim.now,
                "recovery",
                "partition-heal",
                subject=name,
                links=[l.key() for l in links],
            )

    def heal_all(self) -> None:
        for name in list(self._active):
            self.heal(name)

    # -- scheduled windows ----------------------------------------------- #
    def schedule_outage(
        self,
        start: float,
        duration: float,
        node: str,
        name: Optional[str] = None,
    ) -> str:
        """Isolate ``node`` during ``[start, start+duration)``."""
        outage_name = name or f"outage:{node}@{start}"
        self.sim.schedule_at(
            start, lambda _s: self.isolate_node(node, name=outage_name),
            label=f"partition:{outage_name}",
        )
        self.sim.schedule_at(
            start + duration, lambda _s: self.heal(outage_name),
            label=f"heal:{outage_name}",
        )
        return outage_name
