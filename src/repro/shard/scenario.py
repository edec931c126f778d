"""The ``smart-city-federated`` landscape: K domains × N devices.

Paper §VI (Fig. 4): federated inter-IoT — many administrative domains,
each with its own security keys, SLOs and jurisdiction, exchanging
governed cross-domain flows.  This builder wires one *shard's worth* of
that landscape:

* With no ``shard``/``shards`` params it builds **all** domains into a
  single system — the plain, unsharded scenario (this is also exactly
  what a ``--shards 1`` federation runs, which is why the K=1 sharded
  digest is byte-identical to the unsharded one).
* With ``shard=i, shards=K`` it builds only the domains ``d`` with
  ``d % K == i`` — one partition of the federation — while still
  registering *every* domain in the :class:`DomainRegistry` and the
  gateway's latency matrix, so governance checks and envelope routing
  see the whole federation.

Each domain is an isolated edge/cloud subgraph (domains are
deliberately **not** linked in the topology: every inter-domain byte
goes through the federation gateway, sharded or not).  Per-domain state
draws from RNG streams keyed by the domain name, so a domain behaves
identically no matter which shard hosts it.

Inter-domain latency is constant per pair: ``base_latency +
latency_step * ring_distance`` on the domain ring.  The defaults are
binary-exact floats (0.25 + k·0.125), so lookahead windows, barrier
times and the exchange period (``0.75 = 2·W``) compose without
rounding drift — periodic exchanges land *exactly* on window barriers,
permanently exercising the lookahead boundary case.

Scale: the cohort load generators are O(aggregate-rate), not
O(devices), so ``devices_per_domain=125000`` × 8 domains models a
1M-device federation at a bounded event rate (the PR-4 cohort idiom).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from ..core.system import IoTSystem
from ..devices.base import Device, DeviceClass
from ..governance.domains import (
    CCPA,
    EEA,
    GDPR,
    AdministrativeDomain,
    DomainRegistry,
    TrustLevel,
)
from ..observability.slo import SloMonitor, SloSpec
from ..persistence.scenarios import PreparedRun, register_scenario
from ..schema import Field
from ..security.plane import SecurityPlane
from ..traffic.client import TrafficClient
from ..traffic.loadgen import ClientCohort
from ..traffic.server import Server, ServiceModel
from .gateway import FederationGateway

#: Canonical seed.
FEDERATED_SEED = 47

#: Jurisdictions cycled across domains; GDPR->CCPA personal export is
#: disallowed, so every 4th exchange demonstrates a residency drop.
_JURISDICTIONS = (GDPR, EEA, CCPA)

#: Ring offsets each domain exchanges telemetry with.
_EXCHANGE_OFFSETS = (1, 3)


def federation_latency(
    domains: List[str], base_latency: float, latency_step: float
) -> Dict[Tuple[str, str], float]:
    """Constant per-pair inter-domain latency from ring distance."""
    count = len(domains)
    latency: Dict[Tuple[str, str], float] = {}
    for i, a in enumerate(domains):
        for j, b in enumerate(domains):
            if i == j:
                continue
            ring = min(abs(i - j), count - abs(i - j))
            latency[(a, b)] = base_latency + latency_step * ring
    return latency


def _exchange(system: IoTSystem, index: int, dom: str, domains: int,
              period: float, horizon: float, _sim: Any) -> None:
    """One exchange round of domain ``dom``: telemetry to its peers and a
    control message to its own edge, then the next round while it falls
    within ``horizon``.

    Module-level and re-bound per round, not a closure that schedules
    itself: such a closure holds itself, and a round that stops
    rescheduling would leave the whole system in a reference cycle.
    """
    # Exact barrier alignment: the period is a multiple of the lookahead
    # window with binary-exact defaults, so these sends are timestamped
    # exactly at window edges.
    src = f"{dom}:cloud"
    k = int(round(system.sim.now / period))
    for offset in _EXCHANGE_OFFSETS:
        j = (index + offset) % domains
        if j == index:
            continue
        payload = {"k": k, "origin": dom}
        if k % 4 == 0:
            payload["_personal"] = True
        system.network.send(src, f"dom{j}:cloud", "fed.telemetry",
                            payload, size_bytes=512)
    system.network.send(src, f"{dom}:edge0", "fed.control", {"k": k})
    nxt = system.sim.now + period
    if nxt <= horizon:
        system.sim.schedule_at(
            nxt, partial(_exchange, system, index, dom, domains, period,
                         horizon),
            label="fed-exchange")


def prepare_smart_city_federated(
    seed: Optional[int] = None, params: Optional[Dict[str, Any]] = None
) -> PreparedRun:
    """Federated smart city: K administrative domains x N devices."""
    seed = FEDERATED_SEED if seed is None else seed
    params = dict(params or {})
    quick = params.pop("quick", False)
    domains = params.pop("domains", 8)
    devices_per_domain = params.pop(
        "devices_per_domain", 20_000 if quick else 125_000)
    sites_per_domain = params.pop("sites_per_domain", 2)
    gateways_per_site = params.pop("gateways_per_site", 2)
    horizon = params.pop("horizon", 9.0 if quick else 30.0)
    exchange_period = params.pop("exchange_period", 0.75)
    rate_per_user = params.pop("rate_per_user", 0.02)
    max_event_rate = params.pop("max_event_rate", 150.0 if quick else 2000.0)
    base_latency = params.pop("base_latency", 0.25)
    latency_step = params.pop("latency_step", 0.125)
    service_mean = params.pop("service_mean", 0.02)
    shard = params.pop("shard", None)
    shards = params.pop("shards", None)
    if params:
        raise ValueError(f"unknown smart-city-federated params: "
                         f"{sorted(params)}")
    if domains < 2:
        raise ValueError("smart-city-federated needs >= 2 domains")

    names = [f"dom{i}" for i in range(domains)]
    if shards is not None:
        shard = shard or 0
        local = [names[i] for i in range(domains) if i % shards == shard]
    else:
        local = list(names)

    system = IoTSystem(seed=seed)

    # Whole-federation governance metadata on every shard: trust and
    # residency checks at the gateway need remote domains too.
    registry = DomainRegistry()
    for i, dom in enumerate(names):
        registry.add(AdministrativeDomain(
            dom, _JURISDICTIONS[i % len(_JURISDICTIONS)],
            base_trust=TrustLevel.TRUSTED))
    # One deliberately distrusted direction: dom0 never accepts dom1's
    # flows, so the policy-drop path is exercised in every run.
    registry.set_trust(names[0], names[1], TrustLevel.UNTRUSTED)

    # Per-domain edge/cloud subgraphs, mutually disconnected.
    for dom in local:
        cloud = f"{dom}:cloud"
        system.topology.add_node(cloud)
        system.fleet.add(Device(cloud, DeviceClass.CLOUD, domain=dom,
                                location=dom))
        for s in range(sites_per_domain):
            edge = f"{dom}:edge{s}"
            system.topology.add_node(edge)
            system.topology.add_link(cloud, edge, profile="wan")
            system.fleet.add(Device(edge, DeviceClass.EDGE, domain=dom,
                                    location=f"{dom}/site{s}"))
            for g in range(gateways_per_site):
                node = f"{dom}:d{s}.{g}"
                system.topology.add_node(node)
                system.topology.add_link(edge, node, profile="lan")
                system.fleet.add(Device(node, DeviceClass.GATEWAY,
                                        domain=dom,
                                        location=f"{dom}/site{s}"))

    latency = federation_latency(names, base_latency, latency_step)
    gateway = FederationGateway(
        system, latency, registry, local, seed=seed,
        min_trust=int(TrustLevel.PARTNER))
    for dom in names:
        gateway.add_endpoint(f"{dom}:cloud", dom)

    # Per-domain security keys: every local federation node gets its own
    # key; only control-plane kinds are signed so cohort traffic stays on
    # the fast path.  (Cross-domain envelopes carry their own per-domain
    # federation tags — see the gateway.)
    security = SecurityPlane(system)
    protected = [f"{dom}:cloud" for dom in local] + [
        f"{dom}:edge{s}" for dom in local for s in range(sites_per_domain)]
    security.enable_auth(protected, protected_kinds=("fed.control",))

    # Per-domain serving plane: cloud service, edge-originated client,
    # and a device cohort modelling the domain's population.
    clients: Dict[str, TrafficClient] = {}
    cohorts: Dict[str, ClientCohort] = {}
    servers: Dict[str, Server] = {}
    slo_specs: List[SloSpec] = []
    for dom in local:
        servers[dom] = Server(
            system.sim, system.network, f"{dom}:cloud",
            rng=system.rngs.stream(f"fed:{dom}:server"),
            concurrency=32, queue_capacity=512,
            service=ServiceModel(mean=service_mean),
            metrics=system.metrics, trace=system.trace,
        )
        client = TrafficClient(
            system.sim, system.network, f"fed:{dom}",
            f"{dom}:edge0", f"{dom}:cloud",
            rng=system.rngs.stream(f"fed:{dom}:client"),
            timeout=0.25, metrics=system.metrics, trace=system.trace,
        )
        clients[dom] = client
        cohort = ClientCohort(
            system.sim, client, users=devices_per_domain,
            rate_per_user=rate_per_user,
            rng=system.rngs.stream(f"fed:{dom}:arrivals"),
            max_event_rate=max_event_rate, stop=horizon,
        )
        cohort.start()
        cohorts[dom] = cohort
        slo_specs.append(SloSpec(
            name=f"fed-latency:{dom}", kind="latency",
            series=f"traffic.latency:fed:{dom}",
            objective=0.2, window=5.0, percentile=95, subject=dom,
        ))

    # Cross-domain flows + receipt counters (digest-visible, per-domain
    # names so every shard layout produces the same counter keys).
    def _telemetry_rx(message):
        dom = message.dst.split(":", 1)[0]
        system.metrics.increment(f"fed.telemetry_rx:{dom}")

    def _control_rx(message):
        system.metrics.increment(f"fed.control_rx:{message.dst}")

    for dom in local:
        system.network.register(f"{dom}:cloud", "fed.telemetry",
                                _telemetry_rx)
        system.network.register(f"{dom}:edge0", "fed.control", _control_rx)

    for dom in local:
        system.sim.schedule_at(
            exchange_period,
            partial(_exchange, system, names.index(dom), dom, domains,
                    exchange_period, horizon),
            label="fed-exchange")

    monitor = SloMonitor(system.sim, system.metrics, slo_specs,
                         trace=system.trace, period=5.0)
    monitor.start()

    aux: Dict[str, Any] = {
        "federation": gateway,
        "registry": registry,
        "security": security,
        "monitor": monitor,
        "domains": names,
        "local_domains": local,
        "clients": clients,
        "cohorts": cohorts,
        "servers": servers,
        "devices_total": domains * devices_per_domain,
        "lookahead": gateway.lookahead,
        "horizon": horizon,
    }
    return PreparedRun(system=system, horizon=horizon, aux=aux)


_COUNT = Field("integer", required=False, low=1)
_POSITIVE = Field("number", required=False, above=0)

# Checked once by prepare(); the builder's pops resolve the defaults
# against ``quick`` and refuse unknown keys from direct callers.
register_scenario("smart-city-federated", prepare_smart_city_federated,
                  plane="shard", quick={"quick": True}, params={
                      "quick": Field("boolean", required=False),
                      "domains": Field("integer", required=False, low=2),
                      **{key: _COUNT for key in (
                          "devices_per_domain", "sites_per_domain",
                          "gateways_per_site", "shards")},
                      "shard": Field("integer", required=False, low=0),
                      **{key: _POSITIVE for key in (
                          "horizon", "exchange_period", "rate_per_user",
                          "max_event_rate", "service_mean")},
                      **{key: Field("number", required=False, low=0)
                         for key in ("base_latency", "latency_step")}})
