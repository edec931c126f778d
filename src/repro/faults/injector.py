"""The fault injector: applies faults to a live system.

The injector is the single mutation point through which disruption reaches
the system, so every adverse change is traced uniformly (``category
"fault"`` / ``"recovery"``).  The resilience metric in :mod:`repro.core`
derives disruption windows from exactly these trace events.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.devices.fleet import DeviceFleet
from repro.faults.models import Fault
from repro.network.partition import PartitionManager
from repro.network.topology import Topology
from repro.observability.spans import Span, SpanRecorder
from repro.simulation.kernel import Simulator
from repro.simulation.trace import TraceLog


class FaultInjector:
    """Applies :class:`~repro.faults.models.Fault` instances to a system."""

    def __init__(
        self,
        sim: Simulator,
        fleet: DeviceFleet,
        topology: Topology,
        partitions: Optional[PartitionManager] = None,
        trace: Optional[TraceLog] = None,
        spans: Optional[SpanRecorder] = None,
    ) -> None:
        self.sim = sim
        self.fleet = fleet
        self.topology = topology
        self.partitions = partitions
        self.trace = trace
        self.spans = spans
        self.injected: List[Fault] = []
        self._active: List[Fault] = []
        self._fault_spans: Dict[int, Span] = {}

    def trace_emit(self, category: str, name: str, subject: str = "", **attrs) -> None:
        if self.trace is not None:
            self.trace.emit(self.sim.now, category, name, subject=subject, **attrs)

    def _fault_subjects(self, fault: Fault) -> List[str]:
        """Keys under which the fault's injection span is discoverable.

        Repairers (e.g. a MAPE loop restarting a service) look up the
        active fault span by the subject they acted on, so a recovery far
        from the injector still joins the disruption's trace.
        """
        subjects = [fault.name]
        device_id = getattr(fault, "device_id", None)
        if device_id:
            subjects.append(device_id)
        return subjects

    # -- immediate injection ----------------------------------------------- #
    def inject(self, fault: Fault) -> None:
        """Apply a fault now; schedule its cessation if transient."""
        spans = self.spans
        span: Optional[Span] = None
        if spans is not None:
            # The injection span roots (or joins) the disruption's trace:
            # everything the fault causes -- partition cuts, messages,
            # repairs -- records as its descendant.
            span = spans.start(
                f"fault:{fault.name}", "injection", self.sim.now,
                fault_type=type(fault).__name__,
            )
            self._fault_spans[id(fault)] = span
            for subject in self._fault_subjects(fault):
                spans.open_fault(subject, span)
            with spans.use(span):
                fault.apply(self)
        else:
            fault.apply(self)
        self.injected.append(fault)
        self._active.append(fault)
        self.trace_emit("injection", "fault-injected", subject=fault.name,
                        fault_type=type(fault).__name__)
        if fault.transient:
            self.sim.schedule(
                fault.duration,
                lambda _s, f=fault: self._revert(f),
                label=f"revert:{fault.name}",
            )

    def _revert(self, fault: Fault) -> None:
        if fault not in self._active:
            return
        spans = self.spans
        if spans is not None:
            fault_span = self._fault_spans.pop(id(fault), None)
            recovery = spans.start(
                f"recover:{fault.name}", "recovery", self.sim.now,
                parent=fault_span, fault_type=type(fault).__name__,
            )
            with spans.use(recovery):
                fault.revert(self)
            spans.finish(recovery, self.sim.now)
            if fault_span is not None:
                spans.finish(fault_span, self.sim.now, status="reverted")
            for subject in self._fault_subjects(fault):
                spans.close_fault(subject)
        else:
            fault.revert(self)
        self._active.remove(fault)
        self.trace_emit("injection", "fault-reverted", subject=fault.name)

    def revert(self, fault: Fault) -> None:
        """Manually revert a (possibly permanent) active fault."""
        self._revert(fault)

    # -- deferred injection -------------------------------------------------- #
    def inject_at(self, time: float, fault: Fault) -> None:
        """Schedule injection at absolute simulated time."""
        self.sim.schedule_at(
            time, lambda _s: self.inject(fault), label=f"inject:{fault.name}"
        )

    @property
    def active_faults(self) -> List[Fault]:
        return list(self._active)
