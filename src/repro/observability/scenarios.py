"""Prepared (not-yet-run) observability scenarios.

The flight recorder can only make an incident *replayable* if the run it
observed is rebuildable from a declarative
:class:`~repro.persistence.scenarios.ScenarioSpec`.  The CLI's monitored
runs historically wired their systems inline; this module factors that
wiring into prepare-style builders so the persistence registry can
rebuild them:

* :func:`prepare_smart_city_partition` -- the canonical observed run (a
  smart city losing its cloud mid-run), optionally with the full SLO
  monitoring stack attached.
* :func:`monitored_setup` -- the reusable monitoring harness (probe,
  default SLOs, monitor attached to every MAPE loop, gossip liveness
  mesh); also used by the ``mape-outage`` builder via its ``monitored``
  param.

Builders are deterministic functions of ``(seed, params)``; they wire in
exactly the order the CLI always did, so journals and digests of the
factored runs are bit-identical to the historical inline wiring.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.persistence.scenarios import PreparedRun, register_scenario

SMART_CITY_HORIZON = 60.0


def monitored_setup(system: Any, loops: List[Any], strict: bool = False,
                    city: bool = False) -> Any:
    """Attach the full SLO monitoring stack; returns the monitor.

    The monitor evaluates inside the simulation (period 2s) so breaches
    land causally among the faults and repairs they concern, and every
    MAPE loop subscribes to alerts -- SLO burn can trigger adaptation.
    Edge nodes additionally run a small gossip mesh sharing liveness
    heartbeats, giving the convergence KPIs a live protocol to measure.
    """
    from repro.coordination.gossip import GossipNode
    from repro.observability.slo import (
        ReachabilityProbe,
        SloMonitor,
        default_slos,
    )

    # Cloud reachability is probed actively: partitions leave the cloud
    # "up" but unreachable, and only the probe sees that.
    if system.cloud_node and system.edge_nodes:
        ReachabilityProbe(system.sim, system.network, system.metrics,
                          source=system.edge_nodes[0],
                          target=system.cloud_node,
                          period=2.0, timeout=1.5).start()
    specs = default_slos(system, strict=strict, city=city)
    monitor = SloMonitor(system.sim, system.metrics, specs,
                         trace=system.trace, period=2.0)
    for loop in loops:
        monitor.attach(loop)
    monitor.start()
    edges = system.edge_nodes
    if len(edges) > 1:
        for edge in edges:
            gossip = GossipNode(
                system.sim, system.network, edge,
                [e for e in edges if e != edge],
                system.rngs.stream(f"monitor-gossip:{edge}"),
                period=2.0)
            gossip.set(f"alive:{edge}", 1)
            gossip.start()
    return monitor


def prepare_smart_city_partition(seed: Optional[int] = None,
                                 quick: bool = False,
                                 monitored: bool = False,
                                 strict: bool = False) -> PreparedRun:
    """The canonical observed run, wired but not run: a smart city losing
    its cloud.

    Per-district MAPE loops keep managing through the outage; a service
    failure injected mid-run is repaired by the local loop, and the whole
    disruption→recovery arc is captured as one span trace.  With
    ``monitored`` the SLO stack from :func:`monitored_setup` is attached
    last (the position the CLI's setup hook always held), and ``aux``
    carries the monitor.
    """
    from repro.adaptation import (
        DeviceLivenessAnalyzer,
        Executor,
        MapeLoop,
        RuleBasedPlanner,
        ServiceHealthAnalyzer,
        SloAlertAnalyzer,
    )
    from repro.faults.models import PartitionFault, ServiceFailureFault
    from repro.workloads.smart_city import SmartCityWorkload

    districts = 2 if quick else 3
    workload = SmartCityWorkload(n_districts=districts,
                                 sensors_per_district=3 if quick else 4,
                                 seed=7 if seed is None else seed)
    system = workload.system
    system.enable_observability()
    loops = []
    for district in range(districts):
        edge = f"edge{district}"
        scope = [edge] + list(system.sites[edge])
        loop = MapeLoop(
            system.sim, system.network, system.fleet, edge, scope,
            analyzers=[ServiceHealthAnalyzer(), DeviceLivenessAnalyzer(),
                       SloAlertAnalyzer()],
            planner=RuleBasedPlanner(),
            executor=Executor(system.sim, system.network, system.fleet, edge,
                              system.rngs.stream(f"exec:{edge}"),
                              trace=system.trace),
            period=1.0, metrics=system.metrics, trace=system.trace,
        )
        loop.start()
        loops.append(loop)
    system.injector.inject_at(10.0, ServiceFailureFault(
        name="svcfail:analytics0", device_id="edge0",
        service_name="traffic-analytics0"))
    system.injector.inject_at(20.0, PartitionFault(
        name="cloud-outage", duration=20.0, isolate_node="cloud"))
    aux = {"loops": loops, "workload": workload}
    if monitored:
        aux["monitor"] = monitored_setup(system, loops, strict=strict,
                                         city=True)
    return PreparedRun(system=system, horizon=SMART_CITY_HORIZON, aux=aux)


@register_scenario("smart-city-partition", plane="observability",
                   quick={"quick": True}, monitored=True)
def _smart_city_partition(seed: Optional[int],
                          params: Dict[str, Any]) -> PreparedRun:
    """The canonical observed run: a smart city losing its cloud."""
    return prepare_smart_city_partition(
        seed=seed,
        quick=bool(params.get("quick")),
        monitored=bool(params.get("monitored")),
        strict=bool(params.get("strict")))
