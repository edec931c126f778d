"""Compile a :class:`~repro.chaos.spec.ChaosSpec` onto the plane builders.

The compiler is the bridge between the declarative cross-product and the
builders the per-plane scenarios wire by hand: one
:meth:`ScenarioCompiler.compile` call builds the workload's landscape,
attaches the traffic plane, schedules the fault and adversary timeline,
applies the maturity level's defence stack and wires the SLO monitor --
returning the same :class:`~repro.persistence.scenarios.PreparedRun`
shape every registered scenario returns, so journaling, checkpointing,
deterministic replay and flight-recorder capture all work unchanged.

A level's defences are its row of
:data:`~repro.core.vectors.MATURITY_FEATURES` (``admission_control``,
``retry_containment``, ``backpressure_offload``, ``intrusion_response``);
each flag arms the same builder the hand-written traffic and security
scenarios call.

The SLO monitor is part of the *spec*, not of the campaign that happens
to run it: it is always wired, so a spec found failing by a campaign and
the same spec replayed from a corpus bundle produce bit-identical event
streams.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.chaos.spec import ChaosSpec, FaultEvent
from repro.core.system import IoTSystem
from repro.core.vectors import MaturityFeatures
from repro.faults.models import (
    CrashRecoveryFault,
    Fault,
    LatencySpikeFault,
    LinkFailureFault,
    NodeCompromiseFault,
    PartitionFault,
)
from repro.persistence.scenarios import PreparedRun, register_scenario
from repro.schema import Field
from repro.security.plane import SecurityPlane
from repro.security.scenarios import (
    FLOOD_RATE,
    identity_gate,
    intrusion_response,
    swim_mesh,
)
from repro.traffic.scenarios import (
    EDGE_CAPACITY,
    STORM_RETRY,
    backpressure_offload,
    bound_admission,
    retry_containment,
    serving_stack,
)

#: SLO evaluation period (sim seconds) and goodput objective window.
SLO_PERIOD = 2.0
GOODPUT_WINDOW = 8.0

#: End-state goodput objective: half of what the system should sustain.
#: Transient dips during an outage do not breach the *latest* evaluation;
#: a metastable collapse that outlives its cause does.
GOODPUT_OBJECTIVE_FRACTION = 0.5


class CompileError(ValueError):
    """A spec that cannot be wired onto the landscape it describes."""


class ScenarioCompiler:
    """Stateless spec -> :class:`PreparedRun` compiler."""

    def compile(self, spec: ChaosSpec) -> PreparedRun:
        spec.validate()
        features = spec.features
        system, workload = self._build_landscape(spec)
        plane = (None if spec.adversary.attack == "none"
                 else SecurityPlane(system))
        aux: Dict[str, Any] = {"chaos_spec": spec, "workload": workload,
                               "horizon": spec.horizon, "plane": plane}
        self._wire_traffic(spec, features, system, aux)
        # The membership mesh is the sybil attack's substrate.
        aux["members"] = None if plane is None else swim_mesh(
            system, plane, "chaos-swim",
            identity_gate if features.intrusion_response else None)
        self._wire_defenses(features, system, plane, aux)
        schedule_faults(system, spec.faults)
        if schedule_adversary(spec, system) is not None:
            aux["attacker"] = ATTACKER
        self._wire_monitor(spec, system, aux)
        return PreparedRun(system=system, horizon=spec.horizon, aux=aux)

    # -- landscape ---------------------------------------------------------- #
    def _build_landscape(self, spec: ChaosSpec) -> tuple:
        topo = spec.topology
        if spec.workload == "smart-city":
            from repro.workloads.smart_city import SmartCityWorkload

            workload = SmartCityWorkload(
                n_districts=topo.sites,
                sensors_per_district=topo.devices_per_site, seed=spec.seed)
            return workload.system, workload
        if spec.workload == "energy":
            from repro.workloads.energy import EnergyGridWorkload

            workload = EnergyGridWorkload(
                n_feeders=topo.sites,
                meters_per_feeder=topo.devices_per_site, seed=spec.seed)
            return workload.system, workload
        if spec.workload == "mobility":
            from repro.workloads.mobility import MobilityWorkload

            workload = MobilityWorkload(
                n_vehicles=topo.sites * topo.devices_per_site,
                n_sites=topo.sites, seed=spec.seed)
            return workload.system, workload
        system = IoTSystem.with_edge_cloud_landscape(
            topo.sites, topo.devices_per_site, seed=spec.seed)
        return system, None

    # -- traffic ------------------------------------------------------------ #
    def _wire_traffic(self, spec: ChaosSpec, features: MaturityFeatures,
                      system: IoTSystem, aux: Dict[str, Any]) -> None:
        if spec.traffic.pattern == "none":
            aux["registry"] = None
            return
        storm = spec.traffic.pattern == "retry-storm"
        stack = serving_stack(
            system, spec.traffic.users, spec.traffic.rate_per_user,
            spec.horizon, retry=STORM_RETRY if storm else None,
            **(retry_containment() if storm and features.retry_containment
               else {}))
        stack.cohort.start()
        aux.update(registry=stack.registry, edge=stack.edge,
                   cloud=stack.servers["cloud"], client=stack.client,
                   cohort=stack.cohort)

    # -- maturity defenses --------------------------------------------------- #
    def _wire_defenses(self, features: MaturityFeatures, system: IoTSystem,
                       plane, aux: Dict[str, Any]) -> None:
        edge = aux.get("edge")
        if features.admission_control and edge is not None:
            bound_admission(edge)
        if features.backpressure_offload and edge is not None:
            aux["backpressure_loop"] = backpressure_offload(system, edge)
        if features.intrusion_response and plane is not None:
            edges = list(system.edge_nodes)
            plane.enable_auth(edges + ["d0.0"], protected_kinds=("swim.",))
            aux["sentry"], aux["intrusion_loop"] = intrusion_response(
                system, plane, "edge0", edges, period=0.5,
                flood_rate=FLOOD_RATE)

    # -- SLO monitor --------------------------------------------------------- #
    def _wire_monitor(self, spec: ChaosSpec, system: IoTSystem,
                      aux: Dict[str, Any]) -> None:
        from repro.observability.slo import SloMonitor, SloSpec

        slos: List[SloSpec] = [SloSpec(
            name="chaos-edge-up", kind="availability", series="up:edge0",
            objective=0.9, window=GOODPUT_WINDOW, subject="edge0",
        )]
        if spec.traffic.pattern != "none":
            from repro.traffic.client import COMPLETIONS_SERIES

            expected = min(spec.traffic.offered_rate, EDGE_CAPACITY)
            slos.append(SloSpec(
                name="chaos-goodput", kind="rate",
                series=COMPLETIONS_SERIES,
                objective=GOODPUT_OBJECTIVE_FRACTION * expected,
                window=GOODPUT_WINDOW, subject="edge0", service="serving",
            ))
        monitor = SloMonitor(system.sim, system.metrics, slos,
                             trace=system.trace, period=SLO_PERIOD)
        monitor.start()
        aux["monitor"] = monitor


#: The node a spec's adversary compromises; it floods ``edge0``.
ATTACKER = "edge1"


# --------------------------------------------------------------------------- #
# The disruption program: the one fault-kind mapping (live hot-loads use it)
# --------------------------------------------------------------------------- #
def schedule_faults(system: IoTSystem, events: Sequence[FaultEvent],
                    tag: str = "chaos", offset: float = 0.0) -> List[Fault]:
    """Build every schedule entry, then inject each at ``offset + at``.

    Fault names are ``<tag>-<kind>-<index>@<at>``.  An entry whose target
    is not in ``system`` raises :class:`CompileError` before anything is
    injected.
    """
    faults = [_build_fault(f"{tag}-{event.kind}-{index}@{event.at:g}",
                           event, system)
              for index, event in enumerate(events)]
    for event, fault in zip(events, faults):
        # Without an offset a time passes as is: 0.0 + an int time
        # would journal as a float.
        system.injector.inject_at(
            offset + event.at if offset else event.at, fault)
    return faults


def _build_fault(name: str, event: FaultEvent, system: IoTSystem) -> Fault:
    if event.kind == "crash":
        _require_device(event.target, system)
        return CrashRecoveryFault(name=name, device_id=event.target,
                                  duration=event.duration)
    if event.kind == "partition":
        _require_device(event.target, system)
        return PartitionFault(name=name, isolate_node=event.target,
                              duration=event.duration)
    node_a, _, node_b = event.target.partition(":")
    if system.topology.link_between(node_a, node_b) is None:
        raise CompileError(
            f"fault {name}: no link {node_a!r}-{node_b!r} in the topology")
    if event.kind == "latency":
        return LatencySpikeFault(name=name, node_a=node_a, node_b=node_b,
                                 factor=8.0, duration=event.duration)
    return LinkFailureFault(name=name, node_a=node_a, node_b=node_b,
                            duration=event.duration)


def _require_device(device_id: str, system: IoTSystem) -> None:
    try:
        system.fleet.get(device_id)
    except KeyError:
        raise CompileError(
            f"fault target {device_id!r} not in the fleet "
            f"(devices: cloud, edge0..edge{len(system.sites) - 1}, "
            f"d<site>.<i>)") from None


def schedule_adversary(spec: ChaosSpec, system: IoTSystem,
                       prefix: str = "",
                       offset: float = 0.0) -> Optional[str]:
    """Compromise :data:`ATTACKER` at ``offset + adversary.at``.

    It floods ``edge0`` and, under ``sybil-flood``, forges members toward
    two other edges.  Returns the fault's name,
    ``<prefix>compromise:edge1``; ``None`` when the spec has no attack.
    """
    if spec.adversary.attack == "none":
        return None
    from repro.security.adversary import FloodBehavior, SybilJoinBehavior

    for node in (ATTACKER, "edge0"):
        _require_device(node, system)
    behaviors: List[Any] = [
        FloodBehavior(target="edge0", rate=spec.adversary.rate)]
    if spec.adversary.attack == "sybil-flood":
        edges = list(system.edge_nodes)
        targets = [e for e in edges if e != ATTACKER][:2]
        behaviors.append(SybilJoinBehavior(targets=targets))
    name = f"{prefix}compromise:{ATTACKER}"
    at = spec.adversary.at
    system.injector.inject_at(offset + at if offset else at,
                              NodeCompromiseFault(name=name,
                                                  device_id=ATTACKER,
                                                  behaviors=behaviors))
    return name


def compile_spec(spec: ChaosSpec) -> PreparedRun:
    """Module-level convenience: one-off compile of ``spec``."""
    return ScenarioCompiler().compile(spec)


@register_scenario("chaos", plane="chaos",
                   params={"spec": Field("object", required=False)})
def _chaos(seed: Optional[int], params: Dict[str, Any]) -> PreparedRun:
    """A compiled chaos spec (params carry its full dict form).

    One registry entry covers the whole declarative cross-product:
    ``params["spec"]`` is a :class:`repro.chaos.ChaosSpec` dict, and
    the compiler wires it onto the same builders every hand-written
    scenario uses -- so chaos runs checkpoint, resume and replay
    like any curated scenario.  A persistence-level ``seed``
    overrides the spec's own.
    """
    chaos = ChaosSpec.from_dict(params.get("spec", {}))
    if seed:
        chaos = chaos.with_seed(seed)
    return compile_spec(chaos)
