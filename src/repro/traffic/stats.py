"""Traffic accounting: weighted counters, latency, and the registry.

:class:`TrafficStats` is the client-observed outcome ledger -- every
counter is weighted by the batched-arrival weight, so a cohort entry
standing for 50 users moves the numbers by 50.  :class:`TrafficRegistry`
is the per-system directory of servers, clients and generators; it lives
in ``sim.context["traffic"]`` so MAPE executors and KPI reporting reach
the traffic plane without import cycles, exactly like the fault
injector's context registration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.observability.histogram import StreamingHistogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.metrics import MetricsRecorder
    from repro.traffic.client import TrafficClient
    from repro.traffic.server import Server

#: Key under which the registry installs itself in ``sim.context``.
CONTEXT_KEY = "traffic"

#: The weighted outcome counters, in ``to_dict`` order.
COUNTERS = ("offered", "completed", "failed", "rejected", "timed_out",
             "short_circuited", "retries", "hedges", "late")


class TrafficStats:
    """Weighted outcome counters plus a latency histogram.

    ``offered`` counts submitted user-requests; every submission ends in
    exactly one of ``completed``, ``failed`` (attempts/deadline/budget
    exhausted) or ``short_circuited`` (breaker fast-fail).  The other
    counters are per-attempt observations (``rejected``/``timed_out``)
    or amplification measures (``retries``/``hedges``/``late``).
    """

    def __init__(self) -> None:
        self.offered = 0
        self.completed = 0
        self.failed = 0
        self.rejected = 0
        self.timed_out = 0
        self.short_circuited = 0
        self.retries = 0
        self.hedges = 0
        self.late = 0            # replies that arrived after the call ended
        self.latency = StreamingHistogram()

    # -- derived ----------------------------------------------------------- #
    def goodput(self, horizon: float) -> Optional[float]:
        """Completed user-requests per second over ``[0, horizon]``."""
        return self.completed / horizon if horizon > 0 else None

    @property
    def success_ratio(self) -> Optional[float]:
        return self.completed / self.offered if self.offered else None

    def merge(self, other: "TrafficStats") -> "TrafficStats":
        for name in COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.latency.merge(other.latency)
        return self

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {name: getattr(self, name) for name in COUNTERS}
        out["success_ratio"] = self.success_ratio
        out["latency"] = {
            "count": self.latency.count,
            "mean": self.latency.mean,
            "p50": self.latency.quantile(0.5),
            "p99": self.latency.quantile(0.99),
            "p999": self.latency.quantile(0.999),
            "max": self.latency.max,
        }
        return out


def windowed_rate(metrics: "MetricsRecorder", name: str,
                  start: float, end: float) -> float:
    """Sum of a sample series' values over ``[start, end]`` per second.

    Used for recovery measurement: completions are recorded as weighted
    samples on ``traffic.completions``, so goodput *within a window*
    (e.g. after a fault heals) is separable from whole-run goodput.
    """
    if end <= start:
        return 0.0
    if not metrics.has_series(name):
        return 0.0
    total = sum(v for _, v in metrics.series(name).window(start, end))
    return total / (end - start)


class TrafficRegistry:
    """Directory of the traffic plane, reachable via ``sim.context``.

    MAPE executors use :meth:`shed` and :meth:`reroute` to actuate
    overload countermeasures; :func:`~repro.observability.kpis.kpi_report_for_system`
    uses :meth:`kpis` to fold traffic outcomes into the KPI report.
    """

    def __init__(self, system: Any) -> None:
        self.system = system
        self.servers: Dict[str, "Server"] = {}
        self.clients: Dict[str, "TrafficClient"] = {}
        self.generators: List[Any] = []
        system.sim.context[CONTEXT_KEY] = self

    # -- membership --------------------------------------------------------- #
    def add_server(self, server: "Server") -> "Server":
        if server.node in self.servers:
            raise ValueError(f"server already registered on {server.node!r}")
        self.servers[server.node] = server
        return server

    def add_client(self, client: "TrafficClient") -> "TrafficClient":
        if client.name in self.clients:
            raise ValueError(f"client {client.name!r} already registered")
        self.clients[client.name] = client
        return client

    def add_generator(self, generator: Any) -> Any:
        self.generators.append(generator)
        return generator

    # -- actuation (MAPE executor hooks) ------------------------------------ #
    def shed(self, node: str, factor: float = 0.5) -> bool:
        """Tighten admission on ``node``'s server; False if none exists."""
        server = self.servers.get(node)
        if server is None:
            return False
        server.shed(factor)
        return True

    def reroute(self, node: str, destination: str) -> int:
        """Point clients targeting ``node`` at ``destination``; returns count."""
        moved = 0
        for name in sorted(self.clients):
            client = self.clients[name]
            if client.target == node:
                client.target = destination
                moved += 1
        return moved

    # -- reporting ----------------------------------------------------------- #
    def aggregate(self) -> TrafficStats:
        total = TrafficStats()
        for name in sorted(self.clients):
            total.merge(self.clients[name].stats)
        return total

    def kpis(self, horizon: float) -> Dict[str, Any]:
        out = self.aggregate().to_dict()
        out["goodput"] = (out["completed"] / horizon) if horizon > 0 else None
        out["offered_rate"] = (out["offered"] / horizon) if horizon > 0 else None
        out["servers"] = {
            node: self.servers[node].summary()
            for node in sorted(self.servers)
        }
        out["breakers"] = {
            name: {"state": client.breaker.state,
                   "trips": client.breaker.trips}
            for name, client in sorted(self.clients.items())
            if client.breaker is not None
        }
        return out
