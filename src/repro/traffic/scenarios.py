"""Canonical traffic experiments: overload and retry-storm.

Both scenarios put numbers on the paper's availability/elasticity story
(§II-§IV): what users actually experience when demand exceeds an edge
site's capacity, and when a transient fault meets naive retries.

``overload``
    An open-loop cohort offers ~1.6x an edge server's capacity.  The
    *naive* variant queues blindly: waiting time at a full queue exceeds
    the client timeout, so almost every served reply arrives late and
    goodput collapses far below capacity.  The *admission* variant
    bounds the queue so admitted requests finish in time -- goodput sits
    at capacity and the rest is rejected cheaply.  The *adaptive*
    variant starts naive but runs a MAPE loop with a
    :class:`~repro.adaptation.analyzer.BackpressureAnalyzer`: sustained
    backpressure re-routes the cohort to the elastic cloud pool.

``retry-storm``
    Demand is comfortably below capacity (~0.7x), but the edge server
    crashes for a while.  The *naive* variant retries every timeout up
    to 4 attempts with no budget or breaker: after the server heals, the
    retry amplification keeps the queue saturated, waiting time stays
    above the timeout, and goodput never recovers -- a metastable
    failure sustained by its own mitigation.  The *resilient* variant
    adds a retry budget and circuit breaker: the breaker fast-fails
    during the outage (no backlog forms), probes the healed server, and
    closes -- goodput recovers to the offered rate within seconds.

Deterministic by construction: all randomness comes from named RNG
streams, so these runs checkpoint/resume bit-identically like every
other registered scenario.
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Optional, Tuple

from repro.adaptation import BackpressureAnalyzer, MapeLoop, mape_loop
from repro.core.system import IoTSystem
from repro.faults.models import CrashRecoveryFault
from repro.persistence.scenarios import (
    Gate,
    GateVerdict,
    PreparedRun,
    register_scenario,
)
from repro.schema import Field
from repro.traffic.admission import QueueLengthAdmission
from repro.traffic.client import COMPLETIONS_SERIES, TrafficClient
from repro.traffic.loadgen import ClientCohort
from repro.traffic.patterns import CircuitBreaker, RetryBudget, RetryPolicy
from repro.traffic.server import Server, ServiceModel
from repro.traffic.stats import TrafficRegistry, windowed_rate

OVERLOAD_HORIZON = 30.0
OVERLOAD_VARIANTS = ("naive", "admission", "adaptive")

RETRY_STORM_HORIZON = 45.0
RETRY_STORM_VARIANTS = ("naive", "resilient")
RETRY_STORM_OUTAGE = (10.0, 8.0)     # (start, duration) of the edge crash
#: Post-heal grace before recovered goodput is measured: breaker re-close
#: plus queue drain time.  The chaos campaign's recovery gate reads it too.
RECOVERY_GRACE = 3.0

#: Server pools by node, ``(concurrency, queue capacity)``: the edge site
#: under test serves 4 slots x 50 req/s = 200 req/s; the cloud is the
#: elastic escape hatch the backpressure loop offloads to.
POOLS = {"edge0": (4, 64), "cloud": (32, 512)}
SERVICE_MEAN = 0.02
CLIENT_TIMEOUT = 0.25
EDGE_CAPACITY = POOLS["edge0"][0] / SERVICE_MEAN

#: The aggressive client posture that turns a transient outage metastable
#: when no budget bounds the amplification.
STORM_RETRY = RetryPolicy(max_attempts=4, base_delay=0.05, multiplier=2.0,
                          max_delay=1.0, jitter=0.3)


class ServingStack(NamedTuple):
    """The edge serving plane: servers by node, one client, its cohort."""

    registry: TrafficRegistry
    servers: Dict[str, Server]
    client: TrafficClient
    cohort: ClientCohort

    @property
    def edge(self) -> Server:
        return self.servers["edge0"]


def serving_stack(system: IoTSystem, users: int, rate_per_user: float,
                  stop: float, pools: Tuple[str, ...] = ("edge0", "cloud"),
                  retry: Optional[RetryPolicy] = None,
                  budget: Optional[RetryBudget] = None,
                  breaker: Optional[CircuitBreaker] = None) -> ServingStack:
    """The servers in ``pools``, then a cohort of ``users`` on ``d0.0``
    calling ``edge0`` until ``stop``; not started."""
    registry = TrafficRegistry(system)
    servers = {}
    for node in pools:
        concurrency, queue = POOLS[node]
        servers[node] = registry.add_server(Server(
            system.sim, system.network, node,
            rng=system.rngs.stream(f"traffic:server:{node}"),
            concurrency=concurrency, queue_capacity=queue,
            service=ServiceModel(mean=SERVICE_MEAN),
            metrics=system.metrics, trace=system.trace,
        ))
    client = registry.add_client(TrafficClient(
        system.sim, system.network, "cohort", "d0.0", "edge0",
        rng=system.rngs.stream("traffic:client"),
        timeout=CLIENT_TIMEOUT, retry=retry, budget=budget, breaker=breaker,
        metrics=system.metrics, trace=system.trace,
    ))
    cohort = registry.add_generator(ClientCohort(
        system.sim, client, users=users, rate_per_user=rate_per_user,
        rng=system.rngs.stream("traffic:arrivals"),
        stop=stop,
    ))
    return ServingStack(registry, servers, client, cohort)


def bound_admission(server: Server) -> None:
    """Admission control: 8 queued entries / 200 req/s = 40ms worst-case
    wait against the 250ms client timeout."""
    server.admission = QueueLengthAdmission(8)


def retry_containment() -> Dict[str, Any]:
    """A retry budget and a circuit breaker, as client keyword arguments:
    the breaker fast-fails an outage, the budget caps amplification."""
    return {"budget": RetryBudget(ratio=0.1, cap=50.0, initial=10.0),
            "breaker": CircuitBreaker(failure_threshold=5, recovery_time=1.0,
                                      half_open_probes=1, success_threshold=3)}


def backpressure_offload(system: IoTSystem, edge: Server) -> MapeLoop:
    """A started 1 s loop on ``edge0`` that re-routes ``d0.0``'s cohort to
    the cloud pool when the edge signals sustained backpressure."""
    loop = mape_loop(system, "edge0", ["d0.0"], [BackpressureAnalyzer()])
    # The elasticity escape hatch the overload rule consults.
    loop.knowledge.facts["offload_target"] = "cloud"
    edge.attach_backpressure(loop.knowledge)
    loop.start()
    return loop


def prepare_overload(seed: int = 23, variant: str = "admission",
                     users: int = 8000, rate_per_user: float = 0.04,
                     horizon: float = OVERLOAD_HORIZON) -> PreparedRun:
    """Wire (but do not run) one overload variant.

    The cohort offers ``users * rate_per_user`` req/s (default 320/s)
    against a 200 req/s edge server; variants differ only in the
    overload countermeasure.
    """
    system = IoTSystem.with_edge_cloud_landscape(2, 2, seed=seed)
    stack = serving_stack(system, users, rate_per_user, horizon)
    if variant == "admission":
        bound_admission(stack.edge)
    aux: Dict[str, Any] = {"registry": stack.registry, "client": stack.client,
                           "cohort": stack.cohort, "edge": stack.edge,
                           "variant": variant, "horizon": horizon}
    if variant == "adaptive":
        aux["loop"] = backpressure_offload(system, stack.edge)
    stack.cohort.start()
    return PreparedRun(system=system, horizon=horizon, aux=aux)


def prepare_retry_storm(seed: int = 29, variant: str = "resilient",
                        users: int = 3500, rate_per_user: float = 0.04,
                        horizon: float = RETRY_STORM_HORIZON) -> PreparedRun:
    """Wire (but do not run) one retry-storm variant.

    Offered load (default 140/s) is well under the 200/s capacity; an
    8s crash of the edge server plus aggressive retries is what makes
    the naive variant metastable.
    """
    system = IoTSystem.with_edge_cloud_landscape(2, 2, seed=seed)
    stack = serving_stack(
        system, users, rate_per_user, horizon, retry=STORM_RETRY,
        **(retry_containment() if variant == "resilient" else {}))
    stack.cohort.start()
    outage_at, outage_for = RETRY_STORM_OUTAGE
    system.injector.inject_at(outage_at, CrashRecoveryFault(
        name="edge0-crash", device_id="edge0", duration=outage_for))
    aux = {"registry": stack.registry, "client": stack.client,
           "cohort": stack.cohort, "edge": stack.edge, "variant": variant,
           "horizon": horizon, "outage": RETRY_STORM_OUTAGE}
    return PreparedRun(system=system, horizon=horizon, aux=aux)


# --------------------------------------------------------------------------- #
# Result extraction
# --------------------------------------------------------------------------- #
def recovery_window(horizon: float) -> tuple:
    """The measurement window for post-heal goodput recovery.

    Starts a grace period after the fault heals (breaker re-close plus
    queue drain time), ends at the horizon.
    """
    heal = RETRY_STORM_OUTAGE[0] + RETRY_STORM_OUTAGE[1]
    return (heal + RECOVERY_GRACE, horizon)


def overload_result(prepared: PreparedRun) -> Dict[str, Any]:
    """KPIs of one finished overload run, plus the capacity yardsticks."""
    system = prepared.system
    aux = prepared.aux
    horizon = aux["horizon"]
    cohort = aux["cohort"]
    client = aux["client"]
    stats = client.stats
    goodput = stats.completed / horizon
    return {
        "variant": aux["variant"],
        "offered_rate": cohort.aggregate_rate,
        "capacity": EDGE_CAPACITY,
        "goodput": goodput,
        "goodput_vs_capacity": goodput / EDGE_CAPACITY,
        "success_ratio": stats.success_ratio,
        "p99_latency": stats.latency.quantile(0.99),
        "timed_out": stats.timed_out,
        "rejected": stats.rejected,
        "late": stats.late,
        "edge": aux["edge"].summary(),
        "events": system.sim.fired_count,
    }


def retry_storm_result(prepared: PreparedRun) -> Dict[str, Any]:
    """KPIs of one finished retry-storm run, centered on recovery."""
    system = prepared.system
    aux = prepared.aux
    horizon = aux["horizon"]
    cohort = aux["cohort"]
    client = aux["client"]
    start, end = recovery_window(horizon)
    recovered_goodput = windowed_rate(system.metrics, COMPLETIONS_SERIES,
                                      start, end)
    offered = cohort.aggregate_rate
    stats = client.stats
    out = {
        "variant": aux["variant"],
        "offered_rate": offered,
        "recovery_window": [start, end],
        "recovered_goodput": recovered_goodput,
        "recovery_ratio": recovered_goodput / offered,
        "goodput": stats.completed / horizon,
        "success_ratio": stats.success_ratio,
        "retries": stats.retries,
        "timed_out": stats.timed_out,
        "short_circuited": stats.short_circuited,
        "late": stats.late,
        "events": system.sim.fired_count,
    }
    breaker = client.breaker
    if breaker is not None:
        out["breaker"] = {"state": breaker.state, "trips": breaker.trips}
    return out


# --------------------------------------------------------------------------- #
# Gates and registration
# --------------------------------------------------------------------------- #
def _judge_overload(results: Dict[str, Dict[str, Any]]) -> GateVerdict:
    """Admission control must hold goodput at >=80% of capacity."""
    held = results["admission"]["goodput_vs_capacity"]
    if held < 0.8:
        summary = f"admission goodput at {held:.0%} of capacity"
        return GateVerdict(False, summary, failures=(summary,),
                           incident_params={"variant": "admission"},
                           detail={"goodput_vs_capacity": held})
    return GateVerdict(True, "admission control holds goodput at "
                             f"{held:.0%} of capacity")


def _judge_retry_storm(results: Dict[str, Dict[str, Any]]) -> GateVerdict:
    """Budget+breaker must recover >=90% of offered goodput after the heal."""
    recovery = results["resilient"]["recovery_ratio"]
    if recovery < 0.9:
        summary = (f"post-heal goodput recovered only {recovery:.0%} "
                   "of offered")
        return GateVerdict(False, summary, failures=(summary,),
                           incident_params={"variant": "resilient"},
                           detail={"recovery_ratio": recovery})
    return GateVerdict(True, f"budget+breaker recover {recovery:.0%} of "
                             "offered goodput")


OVERLOAD_GATE = Gate(
    variants=OVERLOAD_VARIANTS,
    title="traffic: overload at 1.6x capacity (horizon {horizon:g}s)",
    headers=("variant", "offered/s", "capacity/s", "goodput/s", "success",
             "p99 (s)", "rejected", "timed out"),
    result=overload_result,
    row=lambda r: [r["variant"], r["offered_rate"], r["capacity"],
                   r["goodput"], r["success_ratio"], r["p99_latency"],
                   r["rejected"], r["timed_out"]],
    judge=_judge_overload)

RETRY_STORM_GATE = Gate(
    variants=RETRY_STORM_VARIANTS,
    title="traffic: retry storm across an 8s edge crash "
          "(horizon {horizon:g}s)",
    headers=("variant", "offered/s", "recovered/s", "recovery", "retries",
             "short-circuited", "breaker trips"),
    result=retry_storm_result,
    row=lambda r: [r["variant"], r["offered_rate"], r["recovered_goodput"],
                   r["recovery_ratio"], r["retries"], r["short_circuited"],
                   r.get("breaker", {}).get("trips", "-")],
    judge=_judge_retry_storm)


#: Params both traffic builders take (the variant's are its gate's).
_PARAMS = {"users": Field("integer", required=False, low=1),
           "rate_per_user": Field("number", required=False, above=0),
           "horizon": Field("number", required=False, above=0)}


@register_scenario("traffic-overload", plane="traffic",
                   variants=OVERLOAD_VARIANTS, quick={"horizon": 15.0},
                   gate=OVERLOAD_GATE, params=_PARAMS)
def _traffic_overload(seed: Optional[int],
                      params: Dict[str, Any]) -> PreparedRun:
    """Edge server under 1.6x capacity (default: admission control)."""
    return prepare_overload(
        seed=seed or 23, variant=params.get("variant", "admission"),
        users=params.get("users", 8000),
        rate_per_user=params.get("rate_per_user", 0.04),
        horizon=params.get("horizon", OVERLOAD_HORIZON))


@register_scenario("traffic-retry-storm", plane="traffic",
                   variants=RETRY_STORM_VARIANTS, quick={"horizon": 35.0},
                   gate=RETRY_STORM_GATE, params=_PARAMS)
def _traffic_retry_storm(seed: Optional[int],
                         params: Dict[str, Any]) -> PreparedRun:
    """Retry amplification across an edge crash (default: resilient)."""
    return prepare_retry_storm(
        seed=seed or 29, variant=params.get("variant", "resilient"),
        users=params.get("users", 3500),
        rate_per_user=params.get("rate_per_user", 0.04),
        horizon=params.get("horizon", RETRY_STORM_HORIZON))
