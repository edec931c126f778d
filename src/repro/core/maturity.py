"""Runnable maturity-level archetypes (the executable Tables 1-2).

One common smart-city-style workload -- per-site sensor fleets feeding a
per-site processing service, a global dashboard consuming aggregates, and
an identical scripted disruption schedule -- run under four architectures
that differ exactly along the five disruption vectors:

ML1 (silo)
    Processing bundled on a leaf device per site; no cloud; no automated
    operations (a "technician" sweep restarts failed services every
    ``technician_period``); data never leaves the site.
ML2 (IoT-Cloud)
    Processing and the single MAPE loop on the cloud; raw readings stream
    unidirectionally to the cloud (ungoverned -- sensitive readings leaving
    their privacy scope are audited as violations); everything stalls
    during cloud outages.
ML3 (edge-centric)
    Processing and a MAPE loop per edge site; bidirectional edge-cloud
    aggregate push; governance enforced (raw data stays in-site), but
    domain transfers are not sanitized.
ML4 (resilient IoT)
    ML3 plus: deviceless scheduling with failure-driven re-placement
    coordinated by a bully-elected edge orchestrator, CRDT-replicated
    aggregates among edge peers (dashboard survives cloud outage), and
    governed domain transfers with edge anonymization.

The scenario measures five requirements (availability, latency, coverage,
dashboard freshness, privacy, control) and produces a
:class:`~repro.core.resilience.ResilienceReport` per level; the expected
shape is strictly increasing resilience ML1 -> ML4 (EXPERIMENTS.md T1/T2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.adaptation import (
    DeviceLivenessAnalyzer,
    MapeLoop,
    ServiceHealthAnalyzer,
    StaleKnowledgeAnalyzer,
    mape_loop,
)
from repro.coordination.election import BullyElection
from repro.core.requirements import (
    AvailabilityRequirement,
    ControlAvailabilityRequirement,
    CoverageRequirement,
    EvaluationContext,
    FreshnessRequirement,
    LatencyRequirement,
    PrivacyRequirement,
)
from repro.core.resilience import ResilienceAnalyzer, ResilienceReport
from repro.core.system import IoTSystem
from repro.core.vectors import MaturityFeatures, MaturityLevel, features_of
from repro.data.crdt import LWWMap
from repro.data.sync import ReplicaStore, SyncProtocol
from repro.devices.base import DeviceClass
from repro.devices.software import Service, ServiceState
from repro.faults.models import CrashRecoveryFault, Fault, LatencySpikeFault, PartitionFault
from repro.faults.schedule import DisruptionSchedule


@dataclass
class ScenarioParams:
    """Knobs of the common workload."""

    n_sites: int = 3
    sensors_per_site: int = 4
    horizon: float = 120.0
    seed: int = 42
    sensor_period: float = 1.0
    latency_deadline: float = 0.15      # a realistic end-to-end SLA; the
    # *stringent* (<30ms) latency story -- where cloud paths structurally
    # fail -- is measured separately in the Fig. 1 landscape artifact.
    freshness_max_age: float = 6.0
    probe_period: float = 0.5
    aggregate_push_period: float = 2.0
    control_staleness: float = 3.0
    mape_period: float = 1.0
    technician_period: float = 80.0     # ML1's manual ops cadence (on-site dispatch)
    disruption: bool = True
    # When set, replaces the scripted schedule with a seeded stochastic one
    # of this intensity (expected faults per second) -- used by the
    # disruption-intensity sweep artifact.
    disruption_rate: Optional[float] = None
    disruption_mean_duration: float = 15.0


@dataclass
class _ProcServiceFailure(Fault):
    """Service failure resolved against the proc host *at injection time*.

    The processing service lives on different devices per maturity level,
    so a scripted schedule addresses it by site and the scenario resolves
    the host when the fault fires -- keeping the schedule identical across
    architectures.

    ``duration`` here is the *nominal assessment window* only (it shapes
    the disruption intervals the resilience metric uses); the faulted
    state itself persists until a repair mechanism -- MAPE, orchestrator,
    or ML1's technician -- fixes it.  ``revert`` is therefore a no-op.
    """

    site: int = 0
    scenario: Optional["MaturityScenario"] = None

    def revert(self, injector) -> None:
        """No self-healing from the fault itself; see class docstring."""

    def apply(self, injector) -> None:
        host = self.scenario.proc_host(self.site)
        if host is None:
            return
        device = injector.fleet.get(host)
        name = self.scenario.proc_name(self.site)
        if device.stack.has_service(name):
            device.stack.mark_failed(name)
            injector.trace_emit("fault", "service-failure", subject=host, service=name)


class MaturityScenario:
    """One maturity level running the common workload.

    ``features`` defaults to the level's row of the feature table; the
    ablation passes a copy with one mechanism switched off.
    """

    def __init__(self, level: MaturityLevel, params: Optional[ScenarioParams] = None,
                 features: Optional[MaturityFeatures] = None) -> None:
        self.level = level
        self.params = params or ScenarioParams()
        self.features: MaturityFeatures = features or features_of(level)
        self.system = IoTSystem.with_edge_cloud_landscape(
            self.params.n_sites, self.params.sensors_per_site,
            seed=self.params.seed, device_class=DeviceClass.GATEWAY,
            mesh_sites=True, domain_per_site=True,
        )
        self._proc_hosts: Dict[int, str] = {}
        self._aggregates: Dict[int, Tuple[int, float, float]] = {}  # site -> (count, mean, t)
        self._dashboard_view: Dict[int, float] = {}   # site -> produced_at of newest aggregate seen
        self._loops: Dict[str, MapeLoop] = {}
        self._scheduler = None
        self._orchestrator_election: Dict[str, BullyElection] = {}
        self._edge_stores: Dict[str, ReplicaStore] = {}
        self._edge_syncs: Dict[str, SyncProtocol] = {}
        self.schedule = DisruptionSchedule()
        self._wire()

    # ------------------------------------------------------------------ #
    # Identifiers
    # ------------------------------------------------------------------ #
    def site_edge(self, site: int) -> str:
        return f"edge{site}"

    def site_devices(self, site: int) -> List[str]:
        return self.system.sites[self.site_edge(site)]

    def proc_name(self, site: int) -> str:
        return f"proc{site}"

    def proc_host(self, site: int) -> Optional[str]:
        if self.features.service_placement == "deviceless" and self._scheduler is not None:
            return self._scheduler.placement_of(self.proc_name(site))
        return self._proc_hosts.get(site)

    @property
    def all_leaf_devices(self) -> List[str]:
        out: List[str] = []
        for site in range(self.params.n_sites):
            out.extend(self.site_devices(site))
        return out

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def _wire(self) -> None:
        self._place_services()
        self._wire_sensing()
        self._wire_self_healing()
        self._wire_data_plane()
        self._wire_probes()
        if self.params.disruption:
            self._build_disruption_schedule()
            self.schedule.install(self.system.injector)

    def _make_proc_service(self, site: int) -> Service:
        return Service(self.proc_name(site), runtime="python",
                       cpu=200.0, memory=128.0, storage=32.0,
                       provides={f"processing:site{site}"})

    def _place_services(self) -> None:
        placement = self.features.service_placement
        if placement == "deviceless":
            from repro.orchestration import DevicelessScheduler

            self._scheduler = DevicelessScheduler(
                self.system.sim, self.system.fleet, self.system.topology,
                candidate_tiers=("edge", "gateway"), trace=self.system.trace,
            )
            for site in range(self.params.n_sites):
                decision = self._scheduler.submit(
                    self._make_proc_service(site),
                    clients=self.site_devices(site),
                )
                self._proc_hosts[site] = decision.device_id
            return
        for site in range(self.params.n_sites):
            if placement == "bundled":
                host = self.site_devices(site)[0]
            elif placement == "cloud":
                host = "cloud"
            else:  # "edge"
                host = self.site_edge(site)
            self.system.fleet.get(host).host(self._make_proc_service(site))
            self._proc_hosts[site] = host

    # -- sensing ----------------------------------------------------------- #
    def _wire_sensing(self) -> None:
        sim = self.system.sim
        network = self.system.network
        rng = self.system.rngs.stream("sensing")
        for site in range(self.params.n_sites):
            for index, device_id in enumerate(self.site_devices(site)):
                sensitive = index % 2 == 1
                offset = rng.uniform(0.0, self.params.sensor_period)
                self._start_sensor(site, device_id, sensitive, offset)
            # The proc host handles deliveries for its site.
        for site in range(self.params.n_sites):
            self._register_proc_handler(site)

    def _start_sensor(self, site: int, device_id: str, sensitive: bool, offset: float) -> None:
        sim = self.system.sim
        params = self.params

        def tick(s) -> None:
            device = self.system.fleet.get(device_id)
            if device.up:
                host = self.proc_host(site)
                if host is not None:
                    self.system.network.send(
                        device_id, host, f"reading:{site}",
                        payload={
                            "site": site, "device": device_id,
                            "sensitive": sensitive, "t": s.now,
                        },
                        size_bytes=64,
                    )
            s.schedule(params.sensor_period, tick, label=f"sense:{device_id}")

        sim.schedule(offset, tick, label=f"sense:{device_id}")

    def _register_proc_handler(self, site: int) -> None:
        """Deliveries go wherever the proc service currently runs, so the
        handler is registered on every potential host and checks locally
        whether it currently hosts a *running* proc instance."""
        kind = f"reading:{site}"

        def handle(message) -> None:
            host = message.dst
            device = self.system.fleet.get(host)
            service = device.stack.service(self.proc_name(site))
            if not device.up or service is None or service.state != ServiceState.RUNNING:
                return
            now = self.system.sim.now
            payload = message.payload
            self.system.metrics.record("ingest", now, 1.0)
            self.system.metrics.record(f"ingest:site{site}", now, 1.0)
            self.system.metrics.record("reading.latency", now, now - payload["t"])
            self._update_aggregate(site, now)
            self._audit_privacy(payload, host, now)

        for candidate in self._potential_hosts(site):
            self.system.network.register(candidate, kind, handle)

    def _potential_hosts(self, site: int) -> List[str]:
        hosts = set(self.site_devices(site))
        hosts.add(self.site_edge(site))
        hosts.add("cloud")
        for other in range(self.params.n_sites):
            hosts.add(self.site_edge(other))
        return sorted(hosts)

    def _audit_privacy(self, payload: dict, host: str, now: float) -> None:
        """Ungoverned levels leak: a sensitive reading delivered outside
        its site scope is a privacy violation (audited post-hoc, exactly
        because ML1/ML2 have no enforcement to stop it)."""
        if not payload["sensitive"]:
            return
        site = payload["site"]
        scope = set(self.site_devices(site)) | {self.site_edge(site)}
        if host in scope:
            return
        self.system.trace.emit(
            now, "governance", "privacy-violation", subject=payload["device"],
            host=host, site=site,
        )

    # -- self healing ------------------------------------------------------------#
    def _wire_self_healing(self) -> None:
        mode = self.features.self_healing
        if mode == "none":
            self._wire_technician()
            return
        if mode == "cloud":
            scope = self.all_leaf_devices + ["cloud"]
            self._add_loop("cloud", scope)
        else:  # "edge"
            for site in range(self.params.n_sites):
                edge = self.site_edge(site)
                scope = self.site_devices(site) + [edge]
                self._add_loop(edge, scope)
        if self.features.failover_replacement:
            self._wire_orchestrator()

    def _add_loop(self, host: str, scope: List[str]) -> None:
        loop = mape_loop(self.system, host, scope, [
            ServiceHealthAnalyzer(),
            DeviceLivenessAnalyzer(),
            StaleKnowledgeAnalyzer(self.params.control_staleness * 2),
        ], period=self.params.mape_period, stream="executor")
        self._loops[host] = loop
        loop.start()

    def _wire_technician(self) -> None:
        """ML1's manual operations: an on-site sweep that restarts every
        failed service, once per ``technician_period``."""
        sim = self.system.sim

        def sweep(s) -> None:
            for device in self.system.fleet.devices:
                if not device.up:
                    self.system.fleet.recover(device.device_id)
                for service in device.stack.services:
                    if service.state == ServiceState.FAILED:
                        device.stack.start(service.name)
                        self.system.trace.emit(
                            s.now, "recovery", "technician-repair",
                            subject=device.device_id, service=service.name,
                        )
            s.schedule(self.params.technician_period, sweep, label="technician")

        sim.schedule(self.params.technician_period, sweep, label="technician")

    def _wire_orchestrator(self) -> None:
        """ML4: bully-elected edge orchestrator reconciles placements."""
        edges = [self.site_edge(s) for s in range(self.params.n_sites)]
        for edge in edges:
            self._orchestrator_election[edge] = BullyElection(
                self.system.sim, self.system.network, edge, edges,
            )
        if edges:
            self._orchestrator_election[edges[0]].start_election()
        sim = self.system.sim

        def reconcile(s) -> None:
            leader = self._current_orchestrator(edges)
            if leader is not None and self._scheduler is not None:
                self._scheduler.reconcile()
            s.schedule(2.0, reconcile, label="orchestrator-reconcile")

        sim.schedule(2.0, reconcile, label="orchestrator-reconcile")

    def _current_orchestrator(self, edges: List[str]) -> Optional[str]:
        alive = [e for e in edges if self.system.fleet.get(e).up]
        if not alive:
            return None
        # The highest-id live edge acts (bully semantics); elections keep
        # the `leader` fields eventually right, the liveness filter keeps
        # reconciliation running even mid-election.
        return max(alive)

    # -- data plane -------------------------------------------------------------- #
    def _update_aggregate(self, site: int, now: float) -> None:
        count, mean, _ = self._aggregates.get(site, (0, 0.0, 0.0))
        self._aggregates[site] = (count + 1, mean, now)
        placement = self.features.service_placement
        if placement == "cloud":
            # Aggregation happens ON the cloud; the dashboard (also on the
            # cloud) sees it immediately.
            self._dashboard_view[site] = now
        elif self.features.data_replication and self._edge_stores:
            store = self._replica_store_for(site)
            if store is not None:
                aggregate_map: LWWMap = store.get("aggregates")
                aggregate_map.set(str(site), {"count": count + 1, "t": now}, now)
        # ML1: isolated -- the dashboard never hears about it.

    def _replica_store_for(self, site: int) -> Optional[ReplicaStore]:
        """The replica the site's proc pushes aggregates into: its own
        edge when up, otherwise the nearest up edge (the proc may have
        been re-placed onto a gateway after an edge crash)."""
        preferred = self.site_edge(site)
        if self.system.fleet.get(preferred).up:
            return self._edge_stores.get(preferred)
        for other in range(self.params.n_sites):
            candidate = self.site_edge(other)
            if self.system.fleet.get(candidate).up:
                return self._edge_stores.get(candidate)
        return None

    def _wire_data_plane(self) -> None:
        if self.features.data_replication:
            # ML4: CRDT-replicated aggregates among edges (+ cloud replica).
            nodes = [self.site_edge(s) for s in range(self.params.n_sites)] + ["cloud"]
            for node in nodes:
                store = ReplicaStore(node)
                store.register("aggregates", LWWMap(node))
                self._edge_stores[node] = store
            for node in nodes:
                sync = SyncProtocol(
                    self.system.sim, self.system.network,
                    self._edge_stores[node],
                    peers=[n for n in nodes if n != node],
                    rng=self.system.rngs.stream(f"sync:{node}"),
                    period=1.0, trace=self.system.trace,
                )
                self._edge_syncs[node] = sync
                sync.start()
        elif self.features.data_flows == "bidirectional":
            # ML3: periodic aggregate push edge -> cloud.
            self._wire_aggregate_push()

    def _wire_aggregate_push(self) -> None:
        sim = self.system.sim

        def handle_push(message) -> None:
            payload = message.payload
            site = payload["site"]
            produced_at = payload["t"]
            if produced_at > self._dashboard_view.get(site, -1.0):
                self._dashboard_view[site] = produced_at

        self.system.network.register("cloud", "aggregate.push", handle_push)

        def push(s) -> None:
            for site in range(self.params.n_sites):
                edge = self.site_edge(site)
                if not self.system.fleet.get(edge).up:
                    continue
                aggregate = self._aggregates.get(site)
                if aggregate is None:
                    continue
                self.system.network.send(
                    edge, "cloud", "aggregate.push",
                    payload={"site": site, "count": aggregate[0], "t": aggregate[2]},
                    size_bytes=64,
                )
            s.schedule(self.params.aggregate_push_period, push, label="aggregate-push")

        sim.schedule(self.params.aggregate_push_period, push, label="aggregate-push")

    # -- probes (requirement signals) ---------------------------------------------#
    def _wire_probes(self) -> None:
        sim = self.system.sim
        params = self.params

        def probe(s) -> None:
            now = s.now
            # Service health levels.
            for site in range(params.n_sites):
                self.system.metrics.set_level(
                    f"service.healthy:{self.proc_name(site)}", now,
                    1.0 if self._proc_healthy(site) else 0.0,
                )
            # Control levels.
            for device_id in self.all_leaf_devices:
                self.system.metrics.set_level(
                    f"controlled:{device_id}", now,
                    1.0 if self._device_controlled(device_id, now) else 0.0,
                )
            # Dashboard freshness.
            self.system.metrics.record(
                "data.freshness:dashboard", now, self._dashboard_age(now)
            )
            s.schedule(params.probe_period, probe, label="probe")

        sim.schedule(params.probe_period, probe, label="probe")

    def _proc_healthy(self, site: int) -> bool:
        host = self.proc_host(site)
        if host is None:
            return False
        try:
            device = self.system.fleet.get(host)
        except KeyError:
            return False
        service = device.stack.service(self.proc_name(site))
        if not device.up or service is None or service.state != ServiceState.RUNNING:
            return False
        # Consumers are the site's devices: at least one must reach the host.
        return any(
            self.system.topology.reachable(d, host)
            for d in self.site_devices(site)
            if self.system.fleet.get(d).up
        )

    def _device_controlled(self, device_id: str, now: float) -> bool:
        for loop in self._loops.values():
            if device_id in loop.scope:
                age = loop.knowledge.age_of(device_id, now)
                if age is not None and age <= self.params.control_staleness:
                    return True
        return False

    def _dashboard_age(self, now: float) -> float:
        """Age of the *stalest* site aggregate at the dashboard consumer.

        Consumer placement follows the architecture: cloud for ML2/ML3
        (operator connects to the cloud portal), the site-0 edge replica
        for ML4 (decentralized serving), nothing for ML1 (isolated flows).
        """
        if self.features.data_replication and self._edge_stores:
            consumer = self._edge_stores["edge0"]
            aggregate_map: LWWMap = consumer.get("aggregates")
            ages = []
            for site in range(self.params.n_sites):
                entry = aggregate_map.get(str(site))
                ages.append(now - entry["t"] if entry is not None else now)
            return max(ages)
        ages = [
            now - self._dashboard_view.get(site, 0.0)
            for site in range(self.params.n_sites)
        ]
        return max(ages) if ages else now

    # ------------------------------------------------------------------ #
    # Disruption schedule (identical across levels)
    # ------------------------------------------------------------------ #
    def _build_disruption_schedule(self) -> None:
        if self.params.disruption_rate is not None:
            self._build_random_schedule()
            return
        p = self.params
        s = self.schedule
        # A processing-service failure early on (permanent: only repair
        # mechanisms fix it).
        s.add(15.0, _ProcServiceFailure(name="svc-fail:proc0", site=0, scenario=self,
                                        duration=20.0))
        # A leaf device crash.
        victim = self.site_devices(0)[1]
        s.add(20.0, CrashRecoveryFault(name=f"crash:{victim}", duration=15.0,
                                       device_id=victim))
        # The canonical cloud outage.
        s.add(40.0, PartitionFault(name="cloud-outage", duration=25.0,
                                   isolate_node="cloud"))
        # A second service failure *during* the outage.
        if p.n_sites > 1:
            s.add(45.0, _ProcServiceFailure(name="svc-fail:proc1", site=1, scenario=self,
                                            duration=15.0))
        # An edge node crash.
        if p.n_sites > 1:
            s.add(70.0, CrashRecoveryFault(name="crash:edge1", duration=20.0,
                                           device_id="edge1"))
        # A latency spike on a device uplink.
        last_site = p.n_sites - 1
        device = self.site_devices(last_site)[0]
        s.add(95.0, LatencySpikeFault(name="latency-spike", duration=10.0,
                                      node_a=device, node_b=self.site_edge(last_site),
                                      factor=10.0))

    def _build_random_schedule(self) -> None:
        """Seeded stochastic disruption of configurable intensity.

        Service failures are addressed to the *initial* proc hosts; under
        ML4 a re-placed service simply escapes later occurrences (correct:
        the fault hits the old host, where the service no longer lives).
        """
        from repro.faults.schedule import RandomDisruptionGenerator

        p = self.params
        generator = RandomDisruptionGenerator(
            self.system.rngs.stream("disruption"),
            rate=p.disruption_rate,
            mean_duration=p.disruption_mean_duration,
            fault_mix={"crash": 0.35, "service": 0.3, "latency": 0.2,
                       "partition": 0.15},
        )
        service_targets = [
            (self.proc_host(site), self.proc_name(site))
            for site in range(p.n_sites)
            if self.proc_host(site) is not None
        ]
        link_targets = [
            (device, self.site_edge(site))
            for site in range(p.n_sites)
            for device in self.site_devices(site)
        ]
        generated = generator.generate(
            p.horizon,
            crash_targets=self.all_leaf_devices,
            service_targets=service_targets,
            link_targets=link_targets,
            partition_targets=["cloud"] + [self.site_edge(s)
                                           for s in range(p.n_sites)],
        )
        for entry in generated.entries:
            self.schedule.add(entry.time, entry.fault)

    # ------------------------------------------------------------------ #
    # Requirements and execution
    # ------------------------------------------------------------------ #
    def requirements(self) -> List:
        p = self.params
        n_leaves = p.n_sites * p.sensors_per_site
        return [
            AvailabilityRequirement(
                series_names=[f"service.healthy:{self.proc_name(s)}"
                              for s in range(p.n_sites)],
                target=0.99, name="service-availability",
            ),
            LatencyRequirement(
                series_name="reading.latency", deadline=p.latency_deadline,
                quantile=0.95, name="reading-latency",
            ),
            CoverageRequirement(
                series_name="ingest",
                target_rate=0.9 * n_leaves / p.sensor_period,
                name="sensing-coverage",
            ),
            FreshnessRequirement(
                series_name="data.freshness:dashboard",
                max_age=p.freshness_max_age, name="dashboard-freshness",
            ),
            PrivacyRequirement(name="privacy"),
            ControlAvailabilityRequirement(
                series_names=[f"controlled:{d}" for d in self.all_leaf_devices],
                target=0.95, name="control-availability",
            ),
        ]

    def run(self) -> ResilienceReport:
        p = self.params
        self.system.run(until=p.horizon)
        analyzer = ResilienceAnalyzer(self.requirements(), window=1.0)
        ctx = EvaluationContext(metrics=self.system.metrics, trace=self.system.trace)
        windows = self.schedule.disruption_windows(p.horizon) if p.disruption else []
        return analyzer.analyze(ctx, p.horizon, windows, label=f"ML{int(self.level)}")


def run_maturity_comparison(
    params: Optional[ScenarioParams] = None,
    levels: Optional[List[MaturityLevel]] = None,
) -> Dict[MaturityLevel, ResilienceReport]:
    """Run the common workload under each maturity level (Tables 1-2)."""
    levels = levels or list(MaturityLevel)
    out: Dict[MaturityLevel, ResilienceReport] = {}
    for level in levels:
        scenario = MaturityScenario(level, params)
        out[level] = scenario.run()
    return out
