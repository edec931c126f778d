"""The IoTSystem facade.

One object bundling the substrate every experiment needs: simulator,
seeded RNG registry, trace, metrics, topology, network, device fleet,
partition manager and fault injector.  Archetype builders, examples and
benchmarks all start from here instead of hand-wiring eight objects.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.devices.base import Device, DeviceClass
from repro.devices.fleet import DeviceFleet
from repro.faults.injector import FaultInjector
from repro.network.partition import PartitionManager
from repro.network.topology import Topology, build_edge_cloud_topology
from repro.network.transport import Network
from repro.observability.instrument import Instrument
from repro.observability.spans import SpanRecorder
from repro.simulation.kernel import Simulator
from repro.simulation.metrics import MetricsRecorder
from repro.simulation.rng import RngRegistry
from repro.simulation.trace import TraceLog


class IoTSystem:
    """A fully wired simulated IoT system.

    Create empty and add topology/devices, or use
    :meth:`with_edge_cloud_landscape` for the canonical Fig. 1 layout.
    """

    def __init__(self, seed: int = 0) -> None:
        self.sim = Simulator()
        # The subsystems registered under ``sim.context`` (traffic registry,
        # security plane, flight recorder): the same dict, which the system
        # keeps for its readers when close() empties the simulator's.
        self.context = self.sim.context
        self.rngs = RngRegistry(seed=seed)
        self.trace = TraceLog()
        self.metrics = MetricsRecorder()
        self.topology = Topology(rng=self.rngs.stream("network"))
        self.network = Network(self.sim, self.topology, trace=self.trace)
        self.fleet = DeviceFleet(self.sim, network=self.network,
                                 metrics=self.metrics, trace=self.trace)
        self.partitions = PartitionManager(self.sim, self.topology, trace=self.trace)
        self.injector = FaultInjector(
            self.sim, self.fleet, self.topology,
            partitions=self.partitions, trace=self.trace,
        )
        # edge node id -> device ids under it (set by landscape builders).
        self.sites: Dict[str, List[str]] = {}
        self.cloud_node: Optional[str] = None
        # Observability is opt-in (enable_observability); None when off so
        # instrumented hot paths cost a single attribute check.
        self.spans: Optional[SpanRecorder] = None
        # Telemetry self-metering (attach_meter) and the flight recorder
        # (enable_flight_recorder); None until enabled.
        self.meter = None
        self.flight = None

    # -- observability ----------------------------------------------------------#
    def enable_observability(self, instrument: bool = True,
                             sample_rate: Optional[float] = None,
                             meter: bool = False) -> SpanRecorder:
        """Attach causal-span recording (and optionally a kernel profiler).

        Spans propagate through the transport, the fault injector, the
        partition manager, and every protocol that reads
        ``network.spans`` (MAPE loops, gossip, raft, failure detectors).
        Safe to call after the system is fully wired; returns the recorder.

        ``sample_rate`` (0..1) enables head-based span sampling: the
        keep/drop decision is derived deterministically from the system
        seed and the root-span ordinal, so sampled runs journal and
        digest bit-identically to full runs.  Fault arcs are always kept.
        ``meter`` attaches an :class:`~repro.observability.overhead.OverheadMeter`
        that self-accounts the wall-clock cost of telemetry recording.
        """
        if self.spans is None:
            sampler = None
            if sample_rate is not None:
                from repro.observability.overhead import SpanSampler

                sampler = SpanSampler(sample_rate, seed=self.rngs.seed)
            self.spans = SpanRecorder(sampler=sampler)
        self.network.spans = self.spans
        self.injector.spans = self.spans
        self.partitions.spans = self.spans
        if instrument and self.sim.instrument is None:
            self.sim.instrument = Instrument()
        if meter and self.meter is None:
            from repro.observability.overhead import attach_meter

            self.meter = attach_meter(self)
        return self.spans

    def enable_flight_recorder(self, spec=None, loops=None, **kwargs):
        """Arm an incident flight recorder over this system; returns it.

        ``spec`` (a :class:`~repro.persistence.scenarios.ScenarioSpec`)
        makes captured bundles replayable; ``loops`` adds MAPE knowledge
        snapshots to the evidence.  The armed recorder is also published
        under ``sim.context["flight"]`` so faults and gates can trigger
        it without holding a reference.
        """
        from repro.observability.flight import FlightRecorder

        if self.flight is None:
            self.flight = FlightRecorder(self, spec=spec, loops=loops,
                                         **kwargs)
            self.flight.arm()
            self.sim.context["flight"] = self.flight
        return self.flight

    def profile_snapshot(self, meta=None):
        """Capture a profiling-plane snapshot of this system's telemetry.

        A :func:`~repro.observability.profile.capture_profile` dict over
        the kernel instrument and span recorder as they stand -- pure
        read, so calling it mid-run perturbs nothing the digest sees.
        Requires :meth:`enable_observability` (returns a near-empty
        profile otherwise).  ``route_cache`` (the topology's hit/miss/
        invalidation counts) rides along as the transport plane's
        one-line "why was it slow".
        """
        from repro.observability.profile import capture_profile

        merged = {"seed": self.rngs.seed}
        if meta:
            merged.update(meta)
        profile = capture_profile(
            instrument=self.sim.instrument, spans=self.spans,
            meta=merged, now=self.sim.now)
        profile["route_cache"] = self.topology.route_cache_stats()
        return profile

    # -- construction ----------------------------------------------------------#
    @classmethod
    def with_edge_cloud_landscape(
        cls,
        n_sites: int,
        devices_per_site: int,
        seed: int = 0,
        device_class: DeviceClass = DeviceClass.GATEWAY,
        mesh_sites: bool = True,
        domain_per_site: bool = False,
    ) -> "IoTSystem":
        """Build the Fig. 1 landscape: cloud, edge sites, local devices.

        ``device_class`` picks what the leaf devices are (gateways by
        default so they can host services; use SENSOR for pure sensing).
        With ``domain_per_site``, each site gets its own administrative
        domain ``dom{site}``; otherwise everything is in ``default``.
        """
        system = cls(seed=seed)
        topo, sites = build_edge_cloud_topology(
            n_sites, devices_per_site,
            rng=system.rngs.stream("network"),
            mesh_sites=mesh_sites,
        )
        # Adopt the built topology (the facade pre-made an empty one).
        system.topology = topo
        system.network = Network(system.sim, topo, trace=system.trace)
        system.fleet = DeviceFleet(system.sim, network=system.network,
                                   metrics=system.metrics, trace=system.trace)
        system.partitions = PartitionManager(system.sim, topo, trace=system.trace)
        system.injector = FaultInjector(
            system.sim, system.fleet, topo,
            partitions=system.partitions, trace=system.trace,
        )
        system.sites = sites
        system.cloud_node = "cloud"
        system.fleet.add(Device("cloud", DeviceClass.CLOUD, location="cloud"))
        for index, (edge, members) in enumerate(sorted(sites.items())):
            domain = f"dom{index}" if domain_per_site else "default"
            system.fleet.add(Device(edge, DeviceClass.EDGE,
                                    domain=domain, location=f"site{index}"))
            for member in members:
                system.fleet.add(Device(member, device_class,
                                        domain=domain, location=f"site{index}"))
        return system

    def kpi_report(self, horizon: Optional[float] = None):
        """Resilience KPIs derived from this system's recorded telemetry.

        See :mod:`repro.observability.kpis`; works with observability off
        (availability/violation KPIs only) or on (full arc/convergence
        breakdown).  ``horizon`` defaults to the current simulated time.
        """
        from repro.observability.kpis import kpi_report_for_system

        return kpi_report_for_system(self, horizon=horizon)

    # -- convenience ----------------------------------------------------------- #
    @property
    def edge_nodes(self) -> List[str]:
        return sorted(self.sites)

    def run(self, until: float) -> None:
        self.sim.run(until=until)

    def close(self) -> None:
        """End a finished system's life: reference counting frees it.

        Call it once every digest, gate and report has been read.  The
        queued events (and the closures they hold) and the trace's events
        and subscribers go, and every reference that points back into the
        system is cut: each registered subsystem's own ``close()``, the
        simulator's context, the transport's handlers and security hooks,
        the links' topology.  Metric series, counters, spans, the kernel
        ``Instrument``, ``network.stats``, :meth:`kpi_report` and every
        component's state stay readable.  The simulator refuses to run
        afterwards.
        """
        for subsystem in self.context.values():
            close = getattr(subsystem, "close", None)
            if close is not None:
                close()
        self.sim.close()
        self.network.close()
        self.topology.close()
        self.trace.clear()

    def device(self, device_id: str) -> Device:
        return self.fleet.get(device_id)
