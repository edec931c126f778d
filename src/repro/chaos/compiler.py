"""Compile a :class:`~repro.chaos.spec.ChaosSpec` onto the plane builders.

The compiler is the bridge between the declarative cross-product and the
imperative wiring the per-plane scenarios do by hand: one
:meth:`ScenarioCompiler.compile` call builds the workload's landscape,
attaches the traffic plane, schedules the fault and adversary timeline,
applies the maturity level's defense stack and wires the SLO monitor --
returning the same :class:`~repro.persistence.scenarios.PreparedRun`
shape every registered scenario returns, so journaling, checkpointing,
deterministic replay and flight-recorder capture all work unchanged.

Maturity levels map onto cumulative defense wiring (paper SSIV):

==== ==============================================================
ML1  naive: no countermeasures at all
ML2  + bounded admission (``QueueLengthAdmission``) at the edge
ML3  + retry budget, circuit breaker, backpressure MAPE loop with a
     cloud offload target
ML4  + security defenses when an adversary is present: authenticated
     transport, trust scoring, flood sentry, membership identity
     filter, intrusion-response MAPE loop
==== ==============================================================

The SLO monitor is part of the *spec*, not of the campaign that happens
to run it: it is always wired, so a spec found failing by a campaign and
the same spec replayed from a corpus bundle produce bit-identical event
streams.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.chaos.spec import ChaosSpec
from repro.core.system import IoTSystem
from repro.faults.models import (
    CrashRecoveryFault,
    Fault,
    LatencySpikeFault,
    LinkFailureFault,
    NodeCompromiseFault,
    PartitionFault,
)
from repro.persistence.scenarios import PreparedRun, register_scenario

#: Edge serving capacity mirrors the canonical traffic scenarios:
#: 4 slots x 50 req/s = 200 req/s.
EDGE_CONCURRENCY = 4
EDGE_QUEUE = 64
SERVICE_MEAN = 0.02
CLIENT_TIMEOUT = 0.25
EDGE_CAPACITY = EDGE_CONCURRENCY / SERVICE_MEAN

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
        system, workload = self._build_landscape(spec)
        aux: Dict[str, Any] = {"chaos_spec": spec, "workload": workload,
                               "horizon": spec.horizon}
        plane = self._build_security_plane(spec, system, aux)
        self._wire_traffic(spec, system, aux)
        self._wire_membership(spec, system, plane, aux)
        self._wire_defenses(spec, system, plane, aux)
        self._schedule_faults(spec, system)
        self._schedule_adversary(spec, system, aux)
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

    # -- security plane ----------------------------------------------------- #
    def _build_security_plane(self, spec: ChaosSpec, system: IoTSystem,
                              aux: Dict[str, Any]):
        if spec.adversary.attack == "none":
            aux["plane"] = None
            return None
        from repro.security.plane import SecurityPlane

        plane = SecurityPlane(system)
        aux["plane"] = plane
        return plane

    # -- traffic ------------------------------------------------------------ #
    def _wire_traffic(self, spec: ChaosSpec, system: IoTSystem,
                      aux: Dict[str, Any]) -> None:
        if spec.traffic.pattern == "none":
            aux["registry"] = None
            return
        from repro.traffic.client import TrafficClient
        from repro.traffic.loadgen import ClientCohort
        from repro.traffic.patterns import (
            CircuitBreaker,
            RetryBudget,
            RetryPolicy,
        )
        from repro.traffic.server import Server, ServiceModel
        from repro.traffic.stats import TrafficRegistry

        registry = TrafficRegistry(system)
        edge = registry.add_server(Server(
            system.sim, system.network, "edge0",
            rng=system.rngs.stream("traffic:server:edge0"),
            concurrency=EDGE_CONCURRENCY, queue_capacity=EDGE_QUEUE,
            service=ServiceModel(mean=SERVICE_MEAN),
            metrics=system.metrics, trace=system.trace,
        ))
        cloud = registry.add_server(Server(
            system.sim, system.network, "cloud",
            rng=system.rngs.stream("traffic:server:cloud"),
            concurrency=32, queue_capacity=512,
            service=ServiceModel(mean=SERVICE_MEAN),
            metrics=system.metrics, trace=system.trace,
        ))
        retry: Optional[RetryPolicy] = None
        if spec.traffic.pattern == "retry-storm":
            # The aggressive policy that makes outages metastable when
            # no budget bounds the amplification (ML < 3).
            retry = RetryPolicy(max_attempts=4, base_delay=0.05,
                                multiplier=2.0, max_delay=1.0, jitter=0.3)
        budget: Optional[RetryBudget] = None
        breaker: Optional[CircuitBreaker] = None
        if spec.maturity >= 3 and retry is not None:
            budget = RetryBudget(ratio=0.1, cap=50.0, initial=10.0)
            breaker = CircuitBreaker(failure_threshold=5, recovery_time=1.0,
                                     half_open_probes=1, success_threshold=3)
        client = registry.add_client(TrafficClient(
            system.sim, system.network, "cohort", "d0.0", "edge0",
            rng=system.rngs.stream("traffic:client"),
            timeout=CLIENT_TIMEOUT, retry=retry, budget=budget,
            breaker=breaker, metrics=system.metrics, trace=system.trace,
        ))
        cohort = registry.add_generator(ClientCohort(
            system.sim, client, users=spec.traffic.users,
            rate_per_user=spec.traffic.rate_per_user,
            rng=system.rngs.stream("traffic:arrivals"),
            stop=spec.horizon,
        ))
        cohort.start()
        aux.update(registry=registry, edge=edge, cloud=cloud,
                   client=client, cohort=cohort)

    # -- membership mesh (the sybil attack's substrate) ---------------------- #
    def _wire_membership(self, spec: ChaosSpec, system: IoTSystem,
                         plane, aux: Dict[str, Any]) -> None:
        if spec.adversary.attack == "none":
            aux["members"] = None
            return
        from repro.coordination.membership import MembershipProtocol

        defended = spec.maturity >= 4
        edges = list(system.edge_nodes)
        members: Dict[str, MembershipProtocol] = {}
        for edge in edges:
            update_filter = None
            evidence = None
            if defended:
                def evidence(subject: str, kind: str, _obs=edge) -> None:
                    plane.trust.record(_obs, subject, kind)

                def update_filter(src: Optional[str], node: str, state: str,
                                  incarnation: int, _obs=edge) -> bool:
                    # Identity gate: only keyed (enrolled) nodes may join.
                    if plane.keychain.known(node):
                        return True
                    if src is not None:
                        plane.trust.record(_obs, src, "sybil-join",
                                           detail=node)
                    return False
            protocol = MembershipProtocol(
                system.sim, system.network, edge,
                [e for e in edges if e != edge],
                system.rngs.stream(f"chaos-swim:{edge}"),
                probe_period=1.0,
                update_filter=update_filter, evidence=evidence,
                max_incarnation_jump=8 if defended else None,
            )
            members[edge] = protocol
            plane.attach_membership(protocol)
        for edge in edges:
            members[edge].start()
        aux["members"] = members

    # -- maturity defenses --------------------------------------------------- #
    def _wire_defenses(self, spec: ChaosSpec, system: IoTSystem,
                       plane, aux: Dict[str, Any]) -> None:
        edge = aux.get("edge")
        if spec.maturity >= 2 and edge is not None:
            from repro.traffic.admission import QueueLengthAdmission

            # 8 entries / 200 req/s = 40ms worst-case wait against the
            # 250ms deadline.
            edge.admission = QueueLengthAdmission(8)
        if spec.maturity >= 3 and edge is not None:
            from repro.adaptation import (
                BackpressureAnalyzer,
                Executor,
                MapeLoop,
                RuleBasedPlanner,
            )

            loop = MapeLoop(
                system.sim, system.network, system.fleet, "edge0", ["d0.0"],
                analyzers=[BackpressureAnalyzer()],
                planner=RuleBasedPlanner(),
                executor=Executor(system.sim, system.network, system.fleet,
                                  "edge0", system.rngs.stream("exec:edge0"),
                                  trace=system.trace),
                period=1.0, metrics=system.metrics, trace=system.trace,
            )
            loop.knowledge.facts["offload_target"] = "cloud"
            edge.attach_backpressure(loop.knowledge)
            loop.start()
            aux["backpressure_loop"] = loop
        if spec.maturity >= 4 and plane is not None:
            from repro.adaptation import (
                Executor,
                IntrusionAnalyzer,
                MapeLoop,
                RuleBasedPlanner,
            )
            from repro.security.trust import FloodSentry

            edges = list(system.edge_nodes)
            plane.enable_auth(edges + ["d0.0"], protected_kinds=("swim.",))
            sentry = FloodSentry(system, plane.trust, observer="edge0",
                                 period=0.5, rate_threshold=300.0,
                                 exempt=["edge0"])
            sentry.start()
            loop = MapeLoop(
                system.sim, system.network, system.fleet, "edge0", edges,
                analyzers=[IntrusionAnalyzer()],
                planner=RuleBasedPlanner(),
                executor=Executor(system.sim, system.network, system.fleet,
                                  "edge0", system.rngs.stream("exec:edge0"),
                                  trace=system.trace),
                period=0.5, metrics=system.metrics, trace=system.trace,
            )
            plane.trust.attach(loop.knowledge)
            loop.start()
            aux["sentry"] = sentry
            aux["intrusion_loop"] = loop

    # -- fault schedule ------------------------------------------------------ #
    def _schedule_faults(self, spec: ChaosSpec, system: IoTSystem) -> None:
        for index, event in enumerate(spec.faults):
            fault = self._build_fault(index, event, system)
            system.injector.inject_at(event.at, fault)

    def _build_fault(self, index: int, event, system: IoTSystem) -> Fault:
        name = f"chaos-{event.kind}-{index}@{event.at:g}"
        if event.kind == "crash":
            self._require_device(event.target, system)
            return CrashRecoveryFault(name=name, device_id=event.target,
                                      duration=event.duration)
        if event.kind == "partition":
            self._require_device(event.target, system)
            return PartitionFault(name=name, isolate_node=event.target,
                                  duration=event.duration)
        node_a, _, node_b = event.target.partition(":")
        if system.topology.link_between(node_a, node_b) is None:
            raise CompileError(
                f"fault {name}: no link {node_a!r}-{node_b!r} in the "
                f"compiled topology")
        if event.kind == "latency":
            return LatencySpikeFault(name=name, node_a=node_a, node_b=node_b,
                                     factor=8.0, duration=event.duration)
        return LinkFailureFault(name=name, node_a=node_a, node_b=node_b,
                                duration=event.duration)

    @staticmethod
    def _require_device(device_id: str, system: IoTSystem) -> None:
        try:
            system.fleet.get(device_id)
        except KeyError:
            raise CompileError(
                f"fault target {device_id!r} not in the compiled fleet "
                f"(devices: cloud, edge0..edge{len(system.sites) - 1}, "
                f"d<site>.<i>)") from None

    # -- adversary ----------------------------------------------------------- #
    def _schedule_adversary(self, spec: ChaosSpec, system: IoTSystem,
                            aux: Dict[str, Any]) -> None:
        if spec.adversary.attack == "none":
            return
        from repro.security.adversary import FloodBehavior, SybilJoinBehavior

        attacker = "edge1"
        behaviors: List[Any] = [
            FloodBehavior(target="edge0", rate=spec.adversary.rate)]
        if spec.adversary.attack == "sybil-flood":
            edges = list(system.edge_nodes)
            targets = [e for e in edges if e != attacker][:2]
            behaviors.append(SybilJoinBehavior(targets=targets))
        system.injector.inject_at(spec.adversary.at, NodeCompromiseFault(
            name=f"compromise:{attacker}", device_id=attacker,
            behaviors=behaviors))
        aux["attacker"] = attacker

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


def compile_spec(spec: ChaosSpec) -> PreparedRun:
    """Module-level convenience: one-off compile of ``spec``."""
    return ScenarioCompiler().compile(spec)


@register_scenario("chaos", plane="chaos")
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
