"""The dataflow runtime: operators placed on devices, tuples on the wire.

A :class:`Dataflow` is a linear-or-branching DAG of operators.  Each
operator is placed on a device; emitting downstream sends the tuple over
the simulated network to the next operator's current host (local
forwarding when co-located, which is the edge-analytics payoff).  Host
failure pauses the affected operators; :meth:`migrate_operator` moves an
operator (with its window state) to a new host and traffic follows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.devices.fleet import DeviceFleet
from repro.network.transport import Message, Network
from repro.simulation.kernel import Simulator
from repro.simulation.metrics import MetricsRecorder
from repro.streams.operators import Operator, SinkOperator, StreamTuple


@dataclass
class OperatorPlacement:
    operator: Operator
    host: str
    migrations: int = 0


class Dataflow:
    """A named dataflow of placed operators.

    Build with :meth:`add_operator` (in topological order; ``upstream``
    names an already-added operator, None for sources), then :meth:`start`.
    External feeders push into sources via :meth:`ingest`.
    """

    def __init__(
        self,
        name: str,
        sim: Simulator,
        network: Network,
        fleet: DeviceFleet,
        epoch_period: float = 1.0,
        metrics: Optional[MetricsRecorder] = None,
    ) -> None:
        self.name = name
        self.sim = sim
        self.network = network
        self.fleet = fleet
        self.epoch_period = epoch_period
        self.metrics = metrics
        self._placements: Dict[str, OperatorPlacement] = {}
        self._downstream: Dict[str, List[str]] = {}
        self._started = False
        self.tuples_shipped = 0       # tuples that crossed the network
        self.tuples_local = 0         # tuples forwarded host-locally
        self.tuples_dropped = 0       # arrived at a down host

    # -- construction --------------------------------------------------------- #
    def add_operator(self, operator: Operator, host: str,
                     upstream: Optional[str] = None) -> "Dataflow":
        if operator.name in self._placements:
            raise ValueError(f"operator {operator.name!r} already in dataflow")
        if upstream is not None and upstream not in self._placements:
            raise KeyError(f"unknown upstream operator {upstream!r}")
        if host not in self.fleet:
            raise KeyError(f"unknown host {host!r}")
        self._placements[operator.name] = OperatorPlacement(operator, host)
        self._downstream.setdefault(operator.name, [])
        if upstream is not None:
            self._downstream[upstream].append(operator.name)
        return self

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for placement in self._placements.values():
            self._register_host(placement.host)
        self._epoch_tick(self.sim)

    _registered_hosts: set

    def _register_host(self, host: str) -> None:
        # One handler per (dataflow, host); re-registration is idempotent
        # because the network keeps a single handler per (node, kind).
        self.network.register(host, f"stream:{self.name}", self._on_tuple)

    # -- data movement ----------------------------------------------------------#
    def ingest(self, operator_name: str, item: StreamTuple) -> None:
        """Push a tuple into a (source) operator from outside."""
        placement = self._require(operator_name)
        if not self._host_up(placement.host):
            self.tuples_dropped += 1
            return
        self._run_operator(operator_name, item)

    def _on_tuple(self, message: Message) -> None:
        operator_name, item = message.payload
        placement = self._placements.get(operator_name)
        if placement is None:
            return
        if placement.host != message.dst or not self._host_up(placement.host):
            # The operator moved while the tuple was in flight (or the
            # host died): re-route to its current home.
            self._forward(operator_name, item, from_host=message.dst)
            return
        self._run_operator(operator_name, item)

    def _run_operator(self, operator_name: str, item: StreamTuple) -> None:
        placement = self._placements[operator_name]
        outputs = placement.operator.process(item, self.sim.now)
        if self.metrics is not None and isinstance(placement.operator, SinkOperator):
            self.metrics.record(f"stream.latency:{self.name}", self.sim.now,
                                max(0.0, self.sim.now - item.event_time))
        for output in outputs:
            for downstream_name in self._downstream.get(operator_name, ()):
                self._forward(downstream_name, output,
                              from_host=placement.host)

    def _forward(self, operator_name: str, item: StreamTuple,
                 from_host: str) -> None:
        placement = self._placements[operator_name]
        if not self._host_up(placement.host):
            self.tuples_dropped += 1
            return
        if placement.host == from_host:
            self.tuples_local += 1
            self._run_operator(operator_name, item)
        else:
            self.tuples_shipped += 1
            self.network.send(from_host, placement.host, f"stream:{self.name}",
                              payload=(operator_name, item), size_bytes=96)

    def _epoch_tick(self, sim: Simulator) -> None:
        for name, placement in self._placements.items():
            if not self._host_up(placement.host):
                continue
            for output in placement.operator.on_epoch(sim.now):
                for downstream_name in self._downstream.get(name, ()):
                    self._forward(downstream_name, output,
                                  from_host=placement.host)
        sim.schedule(self.epoch_period, self._epoch_tick,
                     label=f"stream-epoch:{self.name}")

    # -- operations ------------------------------------------------------------ #
    def migrate_operator(self, operator_name: str, new_host: str) -> None:
        """Move an operator (keeping its state) to a new host."""
        placement = self._require(operator_name)
        if new_host not in self.fleet:
            raise KeyError(f"unknown host {new_host!r}")
        placement.host = new_host
        placement.migrations += 1
        self._register_host(new_host)

    def placement_of(self, operator_name: str) -> str:
        return self._require(operator_name).host

    def operator(self, operator_name: str) -> Operator:
        return self._require(operator_name).operator

    def _require(self, operator_name: str) -> OperatorPlacement:
        placement = self._placements.get(operator_name)
        if placement is None:
            raise KeyError(f"no operator {operator_name!r} in dataflow {self.name!r}")
        return placement

    def _host_up(self, host: str) -> bool:
        try:
            return self.fleet.get(host).up
        except KeyError:
            return False
