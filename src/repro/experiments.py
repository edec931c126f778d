"""Reusable experiment runners shared by benchmarks and the CLI.

Each function builds, disrupts and runs one of the Fig. 3 / Fig. 5
comparisons and returns the live objects for measurement.  The benchmark
files add timing and shape assertions; the CLI prints tables.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.adaptation import (
    DeviceLivenessAnalyzer,
    Executor,
    MapeLoop,
    RuleBasedPlanner,
    ServiceHealthAnalyzer,
    StaleKnowledgeAnalyzer,
)
from repro.core.system import IoTSystem
from repro.devices.software import Service
from repro.faults.models import (
    HarnessCrashFault,
    PartitionFault,
    ServiceFailureFault,
)
from repro.persistence.scenarios import PreparedRun, register_scenario

# ------------------------------------------------------------------------- #
# Fig. 3: centralized vs decentralized control
# ------------------------------------------------------------------------- #
FIG3_N_SITES = 3
FIG3_DEVICES = 4
FIG3_HORIZON = 90.0
FIG3_OUTAGE = (30.0, 60.0)
FIG3_STALENESS = 3.0


def _make_loop(system: IoTSystem, host: str, scope: List[str],
               extra_analyzers: Tuple = ()) -> MapeLoop:
    return MapeLoop(
        system.sim, system.network, system.fleet, host, scope,
        analyzers=[ServiceHealthAnalyzer(), DeviceLivenessAnalyzer(),
                   *extra_analyzers],
        planner=RuleBasedPlanner(),
        executor=Executor(system.sim, system.network, system.fleet, host,
                          system.rngs.stream(f"exec:{host}"),
                          trace=system.trace),
        period=1.0, metrics=system.metrics, trace=system.trace,
    )


def prepare_control_architecture(architecture: str, seed: int = 11
                                 ) -> Tuple[IoTSystem, List[MapeLoop]]:
    """Wire (but do not run) the Fig. 3 control-architecture comparison.

    The split from :func:`run_control_architecture` exists for the
    persistence subsystem: a rebuildable scenario must be constructable
    without running it, so checkpoints can be resumed and journals
    replayed from the same wiring.
    """
    if architecture not in ("centralized", "decentralized"):
        raise ValueError(f"unknown architecture {architecture!r}")
    system = IoTSystem.with_edge_cloud_landscape(FIG3_N_SITES, FIG3_DEVICES,
                                                 seed=seed)
    loops: List[MapeLoop] = []
    if architecture == "centralized":
        scope = [d for ds in system.sites.values() for d in ds]
        loops.append(_make_loop(system, "cloud", scope))
    else:
        for edge, devices in sorted(system.sites.items()):
            loops.append(_make_loop(system, edge, list(devices)))
    for loop in loops:
        loop.start()
    _probe_control(system, loops)
    system.injector.inject_at(FIG3_OUTAGE[0], PartitionFault(
        name="cloud-outage", duration=FIG3_OUTAGE[1] - FIG3_OUTAGE[0],
        isolate_node="cloud"))
    return system, loops


def run_control_architecture(architecture: str, seed: int = 11
                             ) -> Tuple[IoTSystem, List[MapeLoop]]:
    """Fig. 3: run the landscape under one control-plane architecture."""
    system, loops = prepare_control_architecture(architecture, seed=seed)
    system.run(until=FIG3_HORIZON)
    return system, loops


def _probe_control(system: IoTSystem, loops: List[MapeLoop]) -> None:
    def probe(s):
        now = s.now
        for loop in loops:
            for device_id in loop.scope:
                age = loop.knowledge.age_of(device_id, now)
                controlled = age is not None and age <= FIG3_STALENESS
                system.metrics.set_level(f"controlled:{device_id}", now,
                                         1.0 if controlled else 0.0)
        s.schedule(0.5, probe)

    system.sim.schedule(0.5, probe)


def control_availability(system: IoTSystem, start: float, end: float) -> float:
    """Mean time-weighted 'controlled' level across all probed devices."""
    values = []
    for name in system.metrics.series_names:
        if name.startswith("controlled:"):
            mean = system.metrics.series(name).time_weighted_mean(start, end)
            if mean is not None:
                values.append(mean)
    return sum(values) / len(values) if values else 0.0


# ------------------------------------------------------------------------- #
# Fig. 5: MAPE loop placement
# ------------------------------------------------------------------------- #
FIG5_N_SITES = 2
FIG5_DEVICES = 3
FIG5_HORIZON = 80.0
FIG5_OUTAGE = (30.0, 55.0)
FIG5_FAULTS = [(10.0, "d0.0"), (40.0, "d1.0")]   # second fault lands mid-outage


def prepare_mape_placement(placement: str, seed: int = 19,
                           observe: bool = False, setup=None
                           ) -> Tuple[IoTSystem, List[MapeLoop]]:
    """Wire (but do not run) the Fig. 5 placement comparison.

    With ``observe``, causal spans and kernel profiling are enabled before
    anything runs, so the returned system carries a full trace.  ``setup``
    (if given) is called with ``(system, loops)`` after wiring but before
    the run -- the hook the SLO monitor of ``python -m repro monitor``
    attaches through.  Like :func:`prepare_control_architecture`, the
    prepare/run split makes the scenario rebuildable for checkpoint
    resume and journal replay.
    """
    if placement not in ("cloud", "edge"):
        raise ValueError(f"unknown placement {placement!r}")
    system = IoTSystem.with_edge_cloud_landscape(FIG5_N_SITES, FIG5_DEVICES,
                                                 seed=seed)
    if observe:
        system.enable_observability()
    for _, devices in sorted(system.sites.items()):
        for device_id in devices:
            system.fleet.get(device_id).host(Service(f"svc-{device_id}"))
    loops: List[MapeLoop] = []
    stale = (StaleKnowledgeAnalyzer(5.0),)
    if placement == "cloud":
        scope = [d for ds in system.sites.values() for d in ds]
        loops.append(_make_loop(system, "cloud", scope, extra_analyzers=stale))
    else:
        for edge, devices in sorted(system.sites.items()):
            loops.append(_make_loop(system, edge, list(devices),
                                    extra_analyzers=stale))
    for loop in loops:
        loop.start()
    system.injector.inject_at(FIG5_OUTAGE[0], PartitionFault(
        name="cloud-outage", duration=FIG5_OUTAGE[1] - FIG5_OUTAGE[0],
        isolate_node="cloud"))
    for time, device in FIG5_FAULTS:
        system.injector.inject_at(time, ServiceFailureFault(
            name=f"svcfail:{device}", device_id=device,
            service_name=f"svc-{device}"))
    if setup is not None:
        setup(system, loops)
    return system, loops


def run_mape_placement(placement: str, seed: int = 19, observe: bool = False,
                       setup=None) -> Tuple[IoTSystem, List[MapeLoop]]:
    """Fig. 5: identical faults under a cloud-hosted vs edge-hosted loop."""
    system, loops = prepare_mape_placement(placement, seed=seed,
                                           observe=observe, setup=setup)
    system.run(until=FIG5_HORIZON)
    return system, loops


def mape_repair_delays(system: IoTSystem, loops: List[MapeLoop]) -> List[float]:
    delays: List[float] = []
    for loop in loops:
        delays.extend(loop.time_to_repair(system.trace,
                                          fault_names=["service-failure"]))
    return sorted(delays)


# ------------------------------------------------------------------------- #
# Registered scenarios: the Fig. 3 / Fig. 5 runs as rebuildable specs
# ------------------------------------------------------------------------- #
@register_scenario("mape-outage", plane="adaptation",
                   variants=("edge", "cloud"), variant_param="placement",
                   monitored=True)
def _mape_outage(seed: Optional[int], params: Dict[str, Any]) -> PreparedRun:
    """Fig. 5's MAPE placement run (default: edge placement).

    ``monitored`` attaches the SLO monitoring stack (probe, default
    SLOs, gossip liveness mesh) exactly as the CLI's ``monitor``
    command does; ``strict`` adds the cloud-availability SLO.
    """
    monitored = bool(params.get("monitored"))
    strict = bool(params.get("strict"))
    aux: Dict[str, Any] = {}

    def setup(system, loops) -> None:
        from repro.observability.scenarios import monitored_setup

        aux["monitor"] = monitored_setup(system, loops, strict=strict,
                                         city=False)

    system, loops = prepare_mape_placement(
        params.get("placement", "edge"), seed=seed or 19,
        observe=bool(params.get("observe")) or monitored,
        setup=setup if monitored else None)
    aux["loops"] = loops
    return PreparedRun(system=system,
                       horizon=float(params.get("horizon", FIG5_HORIZON)),
                       aux=aux)


@register_scenario("control-outage", plane="adaptation",
                   variants=("centralized", "decentralized"),
                   variant_param="architecture")
def _control_outage(seed: Optional[int], params: Dict[str, Any]) -> PreparedRun:
    """Fig. 3's control-architecture run (default: decentralized)."""
    system, loops = prepare_control_architecture(
        params.get("architecture", "decentralized"), seed=seed or 11)
    return PreparedRun(system=system,
                       horizon=float(params.get("horizon", FIG3_HORIZON)),
                       aux={"loops": loops})


@register_scenario("harness-crash", plane="persistence")
def _harness_crash(seed: Optional[int], params: Dict[str, Any]) -> PreparedRun:
    """The fault engine's end-to-end recovery proof.

    A decentralized control run whose fault schedule includes a
    :class:`~repro.faults.models.HarnessCrashFault`: at ``crash_at``
    the experiment process itself "dies" (the kernel stops
    mid-horizon).  The persistence runner checkpoints at the stop,
    and a resumed run must complete the horizon bit-identically to a
    driver that ignores the stop -- proving the checkpoint/journal
    path end to end.
    """
    prepared = _control_outage(seed, params)
    crash_at = float(params.get("crash_at", 45.0))
    prepared.system.injector.inject_at(crash_at, HarnessCrashFault(
        name=f"harness-crash@{crash_at:g}"))
    prepared.aux["crash_at"] = crash_at
    return prepared
