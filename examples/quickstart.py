#!/usr/bin/env python
"""Quickstart: build a small resilient IoT system and watch it self-heal.

This walks the library's core loop in ~60 lines of user code:

1. build the Fig. 1 landscape (cloud + edge sites + devices);
2. deploy a service through the deviceless scheduler;
3. attach an edge-hosted MAPE-K loop;
4. inject a fault and a cloud outage;
5. verify, on the runtime trace, that every fault led to a repair --
   the paper's resilience definition made checkable.

Run:  python examples/quickstart.py
"""

from repro.adaptation import (
    DeviceLivenessAnalyzer,
    Executor,
    MapeLoop,
    RuleBasedPlanner,
    ServiceHealthAnalyzer,
)
from repro.core.system import IoTSystem
from repro.devices.software import Service
from repro.faults.models import PartitionFault, ServiceFailureFault
from repro.modeling.properties import LeadsTo, prop
from repro.modeling.runtime_monitor import MonitorVerdict, RuntimeMonitor, TraceStateAdapter
from repro.orchestration import DevicelessScheduler


def main() -> None:
    # 1. The landscape: 2 edge sites, 3 gateway devices each, one cloud.
    system = IoTSystem.with_edge_cloud_landscape(n_sites=2, devices_per_site=3,
                                                 seed=42)
    print(f"built landscape: {len(system.fleet)} devices, "
          f"edges={system.edge_nodes}")

    # 2. Deviceless deployment: we say *what* to run and who its clients
    #    are; the scheduler picks where (latency-aware -> an edge).
    scheduler = DevicelessScheduler(system.sim, system.fleet, system.topology)
    decision = scheduler.submit(
        Service("telemetry-processor", cpu=200.0),
        clients=system.sites["edge0"],
    )
    print(f"scheduler placed 'telemetry-processor' on {decision.device_id!r} "
          f"({decision.detail})")

    # 3. Self-adaptation: a MAPE-K loop on edge0 manages its local scope.
    host = "edge0"
    scope = system.sites["edge0"] + ["edge0"]
    loop = MapeLoop(
        system.sim, system.network, system.fleet, host, scope,
        analyzers=[ServiceHealthAnalyzer(), DeviceLivenessAnalyzer()],
        planner=RuleBasedPlanner(),
        executor=Executor(system.sim, system.network, system.fleet, host,
                          system.rngs.stream("executor"), trace=system.trace),
        period=1.0, metrics=system.metrics, trace=system.trace,
    )
    loop.start()

    # 4. models@runtime: watch "every fault is eventually repaired".
    monitor = RuntimeMonitor()
    monitor.watch("resilience", LeadsTo(prop("faulty"), prop("healthy")))
    adapter = (TraceStateAdapter(monitor)
               .set_initial({"healthy"})
               .rule(category="fault", name="service-failure",
                     add={"faulty"}, remove={"healthy"})
               .rule(category="recovery", name="mape-repair",
                     add={"healthy"}, remove={"faulty"}))
    adapter.attach(system.trace)

    # 5. Disruption: a service failure at t=10 and a 20s cloud outage at
    #    t=15 (the edge loop should not care about the latter).
    system.injector.inject_at(10.0, ServiceFailureFault(
        name="svc-fault", device_id=decision.device_id,
        service_name="telemetry-processor"))
    system.injector.inject_at(15.0, PartitionFault(
        name="cloud-outage", duration=20.0, isolate_node="cloud"))

    system.run(until=60.0)

    # Report.
    repairs = system.trace.select(category="recovery", name="mape-repair")
    verdict = monitor.final_verdicts()["resilience"]
    print(f"\nafter 60 simulated seconds:")
    print(f"  MAPE iterations: {loop.iterations}")
    print(f"  repairs performed: {len(repairs)}")
    for event in repairs:
        print(f"    t={event.time:6.2f}s  {event.attrs['action']}")
    print(f"  time-to-repair: "
          f"{['%.2fs' % d for d in loop.time_to_repair(system.trace)]}")
    print(f"  runtime property G(faulty ~> healthy): {verdict.value.upper()}")
    assert verdict == MonitorVerdict.SATISFIED
    print("\nresilience verified: every fault was followed by a repair.")


if __name__ == "__main__":
    main()
