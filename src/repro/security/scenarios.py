"""Canonical active-adversary experiments: the security plane under fire.

Three scenarios put numbers on the paper's trust/security story (§VI):
what coordination and serving actually deliver when a *member* of the
system -- not the environment -- turns hostile, and what the defended
stack (signed digests, trust scoring, MAPE intrusion response) buys back.

``byzantine-gossip``
    Five edge sites gossip a configuration key.  A compromised site
    equivocates: every peer is told a different value at an absurdly
    high version.  The *naive* mesh (no authentication) is permanently
    split-brained -- same version, same owner, different values, so no
    entry ever dominates.  The *defended* mesh signs digests: the
    tampered pushes fail verification at delivery, every drop charges
    the attacker ``digest-mismatch`` evidence, trust collapses, and the
    MAPE loop quarantines the attacker -- honest sites converge at
    clean-run speed.

``raft-equivocation``
    Five Raft nodes with two compromised voters that grant *every*
    candidate.  Naive: two honest candidates in the same term each
    count themselves plus the two liars -- quorum twice, two leaders,
    leader-safety violated.  Defended: the forged replies are rewritten
    below the signing layer, fail verification, and are dropped;
    elections need real honest votes, so at most one leader per term,
    and the liars' ``append_reply`` forgeries get them distrusted and
    quarantined.

``sybil-flood``
    An edge server serves a 140/s cohort at 200/s capacity.  A
    compromised peer site floods 600/s of validly-signed requests and
    showers SWIM with fabricated identities.  Naive: the queue fills
    with flood, goodput collapses, sybils pollute membership.
    Defended: bounded admission keeps latency sane, the flood sentry
    reads the transport's per-source counters and charges ``flood-rate``
    evidence, the membership update filter rejects unknown identities
    (charging ``sybil-join``), and the MAPE loop quarantines the
    flooder -- goodput holds at >=90% of the clean run.

Deterministic by construction: all randomness comes from named RNG
streams, attack schedules ride the fault injector, and every variant is
registered for checkpoint/resume/replay like any other scenario.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.adaptation import IntrusionAnalyzer, MapeLoop, mape_loop
from repro.coordination.gossip import GossipNode
from repro.coordination.membership import MembershipProtocol
from repro.coordination.raft import RaftNode
from repro.core.system import IoTSystem
from repro.faults.models import NodeCompromiseFault
from repro.persistence.scenarios import (
    Gate,
    GateVerdict,
    PreparedRun,
    register_scenario,
)
from repro.schema import Field
from repro.security.adversary import (
    FloodBehavior,
    GossipEquivocateBehavior,
    SybilJoinBehavior,
    VoteEquivocateBehavior,
)
from repro.security.plane import SecurityPlane
from repro.security.trust import FloodSentry
from repro.traffic.client import COMPLETIONS_SERIES
from repro.traffic.scenarios import bound_admission, serving_stack
from repro.traffic.stats import windowed_rate

BYZANTINE_GOSSIP_HORIZON = 24.0
BYZANTINE_GOSSIP_VARIANTS = ("clean", "naive", "defended")
#: The contested configuration key and when the attacker turns.
_GOSSIP_KEY = "cfg"
_GOSSIP_COMPROMISE_AT = 1.0

RAFT_EQUIVOCATION_HORIZON = 12.0
RAFT_EQUIVOCATION_VARIANTS = ("naive", "defended")
_RAFT_COMPROMISE_AT = 0.2

SYBIL_FLOOD_HORIZON = 20.0
SYBIL_FLOOD_VARIANTS = ("clean", "naive", "defended")
_FLOOD_COMPROMISE_AT = 5.0
#: Goodput measurement window: opens just after the compromise so the
#: clean/naive/defended comparison covers the attacked regime.
SYBIL_FLOOD_WINDOW = (6.0, 20.0)

#: Series the byzantine-gossip agreement probe records (1.0 = all honest
#: sites agree on the contested key).
AGREEMENT_SERIES = "security.gossip.agreement"

_AGREEMENT_PERIOD = 0.5


#: Per-source request rate (req/s) above which the flood sentry charges
#: ``flood-rate`` evidence.
FLOOD_RATE = 300.0


def intrusion_response(system: Any, plane: SecurityPlane, host: str,
                       scope: List[str], period: float = 1.0,
                       flood_rate: Optional[float] = None
                       ) -> Tuple[Optional[FloodSentry], MapeLoop]:
    """Trust facts in, quarantine out: a started intrusion loop on
    ``host``, after (with ``flood_rate``) a started flood sentry there
    reading the transport's per-source counters every ``period``."""
    sentry = None
    if flood_rate is not None:
        sentry = FloodSentry(system, plane.trust, observer=host,
                             period=period, rate_threshold=flood_rate,
                             exempt=[host])
        sentry.start()
    loop = mape_loop(system, host, scope, [IntrusionAnalyzer()],
                     period=period)
    plane.trust.attach(loop.knowledge)
    loop.start()
    return sentry, loop


def identity_gate(plane: SecurityPlane, observer: str) -> Dict[str, Any]:
    """``observer``'s SWIM defence, as protocol keyword arguments: only
    keyed (enrolled) nodes may join, and a peer relaying an unknown one
    or jumping incarnations is charged evidence."""

    def evidence(subject: str, kind: str) -> None:
        plane.trust.record(observer, subject, kind)

    def update_filter(src: Optional[str], node: str, state: str,
                      incarnation: int) -> bool:
        if plane.keychain.known(node):
            return True
        if src is not None:
            plane.trust.record(observer, src, "sybil-join", detail=node)
        return False

    return {"update_filter": update_filter, "evidence": evidence,
            "max_incarnation_jump": 8}


def swim_mesh(system: Any, plane: SecurityPlane, stream: str,
              gate: Optional[Callable[[SecurityPlane, str], Dict[str, Any]]]
              = None) -> Dict[str, MembershipProtocol]:
    """A started SWIM member on every edge site, attached to ``plane``,
    each drawing from ``<stream>:<edge>`` and, given ``gate``, defended
    by ``gate(plane, edge)`` (:func:`identity_gate`)."""
    edges = list(system.edge_nodes)
    members: Dict[str, MembershipProtocol] = {}
    for edge in edges:
        protocol = MembershipProtocol(
            system.sim, system.network, edge,
            [e for e in edges if e != edge],
            system.rngs.stream(f"{stream}:{edge}"), probe_period=1.0,
            **(gate(plane, edge) if gate is not None else {}))
        members[edge] = protocol
        plane.attach_membership(protocol)
    for edge in edges:
        members[edge].start()
    return members


# --------------------------------------------------------------------------- #
# byzantine-gossip
# --------------------------------------------------------------------------- #
def prepare_byzantine_gossip(seed: int = 37, variant: str = "defended",
                             horizon: float = BYZANTINE_GOSSIP_HORIZON,
                             authed: bool = False) -> PreparedRun:
    """Wire (but do not run) one byzantine-gossip variant.

    Five edge sites gossip ``cfg`` (written once by edge0); ``edge4``
    equivocates on it from t=1 in the naive and defended variants.
    ``authed=True`` adds just the signer/verifier pair to a non-defended
    variant: the bench's price of the interceptor+auth path alone,
    without trust hooks or the MAPE loop.
    """
    system = IoTSystem.with_edge_cloud_landscape(5, 1, seed=seed)
    plane = SecurityPlane(system)
    edges = list(system.edge_nodes)
    attacker = edges[-1]
    honest = [e for e in edges if e != attacker]
    defended = variant == "defended"
    if defended or authed:
        plane.enable_auth(edges, protected_kinds=("gossip.",))
    nodes: Dict[str, GossipNode] = {}
    for edge in edges:
        evidence = None
        if defended:
            def evidence(subject: str, kind: str, _obs=edge) -> None:
                plane.trust.record(_obs, subject, kind)
        node = GossipNode(
            system.sim, system.network, edge,
            [e for e in edges if e != edge],
            system.rngs.stream(f"security-gossip:{edge}"),
            period=0.5, evidence=evidence,
        )
        nodes[edge] = node
        plane.attach_gossip(node)
    nodes[edges[0]].set(_GOSSIP_KEY, "stable-config")
    for edge in edges:
        nodes[edge].start()

    loop = (intrusion_response(system, plane, edges[0], list(edges))[1]
            if defended else None)

    if variant != "clean":
        system.injector.inject_at(_GOSSIP_COMPROMISE_AT, NodeCompromiseFault(
            name=f"compromise:{attacker}", device_id=attacker,
            behaviors=[GossipEquivocateBehavior(key=_GOSSIP_KEY)]))

    def probe(sim: Any) -> None:
        values = {nodes[e].get(_GOSSIP_KEY) for e in honest}
        agreed = len(values) == 1 and None not in values
        system.metrics.record(AGREEMENT_SERIES, sim.now,
                              1.0 if agreed else 0.0)
        sim.schedule(_AGREEMENT_PERIOD, probe, label="security.probe")

    system.sim.schedule(_AGREEMENT_PERIOD, probe, label="security.probe")
    aux: Dict[str, Any] = {"plane": plane, "nodes": nodes, "edges": edges,
                           "attacker": attacker, "honest": honest,
                           "variant": variant, "horizon": horizon,
                           "loop": loop}
    return PreparedRun(system=system, horizon=horizon, aux=aux)


def _converged_at(metrics: Any, horizon: float) -> Optional[float]:
    """Earliest probe time after which agreement holds through the end."""
    samples = metrics.series(AGREEMENT_SERIES).window(0.0, horizon + 1.0)
    if not samples or samples[-1][1] < 1.0:
        return None
    converged = samples[-1][0]
    for time, value in reversed(samples):
        if value < 1.0:
            break
        converged = time
    return converged


def byzantine_gossip_result(prepared: PreparedRun) -> Dict[str, Any]:
    system = prepared.system
    aux = prepared.aux
    plane: SecurityPlane = aux["plane"]
    nodes: Dict[str, GossipNode] = aux["nodes"]
    converged = _converged_at(system.metrics, aux["horizon"])
    return {
        "variant": aux["variant"],
        "attacker": aux["attacker"],
        "converged_at": converged,
        "converged": converged is not None,
        "honest_values": sorted({str(nodes[e].get(_GOSSIP_KEY))
                                 for e in aux["honest"]}),
        "quarantined": sorted(plane.quarantined),
        "distrusted": plane.trust.flagged,
        "security": plane.kpis(aux["horizon"]),
        "events": system.sim.fired_count,
    }


# --------------------------------------------------------------------------- #
# raft-equivocation
# --------------------------------------------------------------------------- #
def prepare_raft_equivocation(seed: int = 41, variant: str = "defended",
                              horizon: float = RAFT_EQUIVOCATION_HORIZON
                              ) -> PreparedRun:
    """Wire (but do not run) one raft-equivocation variant.

    Five Raft nodes; the last two grant every vote and ack every append.
    Election timeouts are deliberately tight (0.8-1.1s against ~20ms
    vote RTTs) so same-term honest candidacies actually collide -- the
    collision is what the forged quorum turns into a double leader.
    """
    system = IoTSystem.with_edge_cloud_landscape(5, 1, seed=seed)
    plane = SecurityPlane(system)
    edges = list(system.edge_nodes)
    attackers = edges[-2:]
    defended = variant == "defended"
    if defended:
        plane.enable_auth(edges, protected_kinds=("raft.",))
    nodes: Dict[str, RaftNode] = {}
    for edge in edges:
        evidence = None
        if defended:
            def evidence(subject: str, kind: str, _obs=edge) -> None:
                plane.trust.record(_obs, subject, kind)
        nodes[edge] = RaftNode(
            system.sim, system.network, edge, list(edges),
            system.rngs.stream(f"security-raft:{edge}"),
            heartbeat_interval=0.3, election_timeout=(0.8, 1.1),
            evidence=evidence,
        )
    for edge in edges:
        nodes[edge].start()
    loop = (intrusion_response(system, plane, edges[0], list(edges))[1]
            if defended else None)
    for attacker in attackers:
        system.injector.inject_at(_RAFT_COMPROMISE_AT, NodeCompromiseFault(
            name=f"compromise:{attacker}", device_id=attacker,
            behaviors=[VoteEquivocateBehavior()]))
    aux: Dict[str, Any] = {"plane": plane, "nodes": nodes, "edges": edges,
                           "attackers": attackers, "variant": variant,
                           "horizon": horizon, "loop": loop}
    return PreparedRun(system=system, horizon=horizon, aux=aux)


def raft_equivocation_result(prepared: PreparedRun) -> Dict[str, Any]:
    system = prepared.system
    aux = prepared.aux
    plane: SecurityPlane = aux["plane"]
    nodes: Dict[str, RaftNode] = aux["nodes"]
    winners_by_term: Dict[int, List[str]] = {}
    for edge in aux["edges"]:
        for term in nodes[edge].won_terms:
            winners_by_term.setdefault(term, []).append(edge)
    double_wins = {term: sorted(winners) for term, winners
                   in sorted(winners_by_term.items()) if len(winners) > 1}
    leaders = sorted(e for e in aux["edges"]
                     if nodes[e].role.value == "leader")
    return {
        "variant": aux["variant"],
        "attackers": list(aux["attackers"]),
        "terms_won": {e: list(nodes[e].won_terms) for e in aux["edges"]},
        "double_wins": double_wins,
        "safety_violated": bool(double_wins),
        "elections_won": sum(nodes[e].elections_won for e in aux["edges"]),
        "leader_elected": bool(leaders),
        "final_leaders": leaders,
        "quarantined": sorted(plane.quarantined),
        "distrusted": plane.trust.flagged,
        "security": plane.kpis(aux["horizon"]),
        "events": system.sim.fired_count,
    }


# --------------------------------------------------------------------------- #
# sybil-flood
# --------------------------------------------------------------------------- #
def prepare_sybil_flood(seed: int = 43, variant: str = "defended",
                        horizon: float = SYBIL_FLOOD_HORIZON) -> PreparedRun:
    """Wire (but do not run) one sybil-flood variant.

    ``edge0`` serves a 140/s cohort at 200/s capacity; from t=5 a
    compromised ``edge1`` floods 600/s of signed requests and pushes
    fabricated SWIM identities at ``edge0``/``edge2``.
    """
    system = IoTSystem.with_edge_cloud_landscape(3, 2, seed=seed)
    plane = SecurityPlane(system)
    edges = list(system.edge_nodes)
    attacker = "edge1"
    defended = variant == "defended"
    if defended:
        plane.enable_auth(edges + ["d0.0"], protected_kinds=("swim.",))
    stack = serving_stack(system, 3500, 0.04, horizon, pools=("edge0",))
    if defended:
        bound_admission(stack.edge)
    stack.cohort.start()
    members = swim_mesh(system, plane, "security-swim",
                        identity_gate if defended else None)
    sentry, loop = intrusion_response(
        system, plane, "edge0", list(edges), period=0.5,
        flood_rate=FLOOD_RATE) if defended else (None, None)

    if variant != "clean":
        system.injector.inject_at(_FLOOD_COMPROMISE_AT, NodeCompromiseFault(
            name=f"compromise:{attacker}", device_id=attacker,
            behaviors=[
                FloodBehavior(target="edge0", rate=600.0),
                SybilJoinBehavior(targets=["edge0", "edge2"]),
            ]))

    aux: Dict[str, Any] = {"plane": plane, "registry": stack.registry,
                           "server": stack.edge, "client": stack.client,
                           "cohort": stack.cohort, "members": members,
                           "attacker": attacker, "variant": variant,
                           "horizon": horizon, "sentry": sentry,
                           "loop": loop}
    return PreparedRun(system=system, horizon=horizon, aux=aux)


def sybil_flood_result(prepared: PreparedRun) -> Dict[str, Any]:
    system = prepared.system
    aux = prepared.aux
    plane: SecurityPlane = aux["plane"]
    members: Dict[str, MembershipProtocol] = aux["members"]
    start, end = SYBIL_FLOOD_WINDOW
    goodput = windowed_rate(system.metrics, COMPLETIONS_SERIES, start, end)
    sybils = sorted({m for edge in ("edge0", "edge2")
                     for m in members[edge].members()
                     if m.startswith("sybil-")})
    stats = aux["client"].stats
    per_source = system.network.stats.per_source
    return {
        "variant": aux["variant"],
        "attacker": aux["attacker"],
        "offered_rate": aux["cohort"].aggregate_rate,
        "window": [start, end],
        "goodput": goodput,
        "success_ratio": stats.success_ratio,
        "timed_out": stats.timed_out,
        "rejected": stats.rejected,
        "sybil_members": sybils,
        "sybil_count": len(sybils),
        "attacker_messages": per_source.get(aux["attacker"], [0, 0])[0],
        "quarantined": sorted(plane.quarantined),
        "distrusted": plane.trust.flagged,
        "security": plane.kpis(aux["horizon"]),
        "events": system.sim.fired_count,
    }


# --------------------------------------------------------------------------- #
# Gates and registration: the naive variant must demonstrably fail AND the
# defended one must hold
# --------------------------------------------------------------------------- #
def _failed(failures: List[str]) -> GateVerdict:
    return GateVerdict(False, "; ".join(failures), tuple(failures),
                       incident_params={"variant": "defended"},
                       detail={"failures": failures})


def _names(values: Any) -> str:
    return ",".join(str(v) for v in values) or "-"


def _judge_byzantine_gossip(results: Dict[str, Dict[str, Any]]) -> GateVerdict:
    """Naive never converges; defended converges within 2x the clean run
    and quarantines the equivocator."""
    clean, naive, defended = (results[v] for v in BYZANTINE_GOSSIP_VARIANTS)
    failures = []
    if naive["converged"]:
        failures.append("naive mesh converged despite the equivocator")
    if not defended["converged"]:
        failures.append("defended mesh never converged")
    elif defended["converged_at"] > 2.0 * clean["converged_at"]:
        failures.append(
            f"defended convergence {defended['converged_at']:.1f}s "
            f"exceeds 2x clean ({clean['converged_at']:.1f}s)")
    if naive["attacker"] not in defended["quarantined"]:
        failures.append("defended run did not quarantine the attacker")
    if failures:
        return _failed(failures)
    return GateVerdict(True, (
        f"defended converges at {defended['converged_at']:.1f}s vs clean "
        f"{clean['converged_at']:.1f}s; naive never converges"))


def _judge_sybil_flood(results: Dict[str, Dict[str, Any]]) -> GateVerdict:
    """Naive collapses below 50% of clean goodput; defended holds >=90%
    with zero sybil members."""
    clean, naive, defended = (results[v] for v in SYBIL_FLOOD_VARIANTS)
    failures = []
    if naive["goodput"] >= 0.5 * clean["goodput"]:
        failures.append("naive run did not collapse under the flood")
    if defended["goodput"] < 0.9 * clean["goodput"]:
        failures.append(
            f"defended goodput {defended['goodput']:.1f}/s is below "
            f"90% of clean ({clean['goodput']:.1f}/s)")
    if defended["sybil_count"]:
        failures.append(
            f"defended membership admitted {defended['sybil_count']} "
            "sybil identities")
    if not naive["sybil_count"]:
        failures.append("naive membership rejected the sybils "
                        "(attack had no teeth)")
    if failures:
        return _failed(failures)
    return GateVerdict(True, (
        f"defended holds {defended['goodput'] / clean['goodput']:.0%} of "
        "clean goodput; naive collapses to "
        f"{naive['goodput'] / clean['goodput']:.0%}"))


def _judge_raft_equivocation(results: Dict[str, Dict[str, Any]]
                             ) -> GateVerdict:
    """Naive elects two leaders in one term; defended keeps exactly one
    safe leader."""
    naive, defended = (results[v] for v in RAFT_EQUIVOCATION_VARIANTS)
    failures = []
    if not naive["safety_violated"]:
        failures.append("naive run never double-elected "
                        "(attack had no teeth)")
    if defended["safety_violated"]:
        failures.append("defended run elected two leaders in one term")
    if not defended["leader_elected"]:
        failures.append("defended run never elected a leader")
    if failures:
        return _failed(failures)
    return GateVerdict(True, (
        f"naive double-elects in {len(naive['double_wins'])} term(s); "
        "defended keeps one safe leader and quarantines "
        f"{','.join(defended['quarantined'])}"))


BYZANTINE_GOSSIP_GATE = Gate(
    variants=BYZANTINE_GOSSIP_VARIANTS,
    title="security: byzantine gossip (horizon {horizon:g}s)",
    headers=("variant", "converged", "converged at (s)", "honest values",
             "quarantined", "auth drops"),
    result=byzantine_gossip_result,
    row=lambda r: [r["variant"], r["converged"], r["converged_at"],
                   len(r["honest_values"]), _names(r["quarantined"]),
                   r["security"]["dropped_auth"]],
    judge=_judge_byzantine_gossip)

SYBIL_FLOOD_GATE = Gate(
    variants=SYBIL_FLOOD_VARIANTS,
    title="security: sybil flood against an edge server",
    headers=("variant", "offered/s", "goodput/s", "success", "sybils",
             "attacker msgs", "quarantined"),
    result=sybil_flood_result,
    row=lambda r: [r["variant"], r["offered_rate"], r["goodput"],
                   r["success_ratio"], r["sybil_count"],
                   r["attacker_messages"], _names(r["quarantined"])],
    judge=_judge_sybil_flood)

RAFT_EQUIVOCATION_GATE = Gate(
    variants=RAFT_EQUIVOCATION_VARIANTS,
    title="security: raft equivocation with f=2 of n=5 compromised",
    headers=("variant", "elections won", "double-win terms", "safety",
             "final leaders", "quarantined"),
    result=raft_equivocation_result,
    row=lambda r: [r["variant"], r["elections_won"], _names(r["double_wins"]),
                   "VIOLATED" if r["safety_violated"] else "safe",
                   _names(r["final_leaders"]), _names(r["quarantined"])],
    judge=_judge_raft_equivocation)


#: Every security builder's one numeric param (the variant's is its gate's).
_PARAMS = {"horizon": Field("number", required=False, above=0)}


@register_scenario("security-byzantine-gossip", plane="security",
                   variants=BYZANTINE_GOSSIP_VARIANTS,
                   quick={"horizon": 12.0}, gate=BYZANTINE_GOSSIP_GATE,
                   params=_PARAMS)
def _security_byzantine(seed: Optional[int],
                        params: Dict[str, Any]) -> PreparedRun:
    """A gossiping site equivocates (default: defended mesh)."""
    return prepare_byzantine_gossip(
        seed=seed or 37,
        variant=params.get("variant", "defended"),
        horizon=params.get("horizon", BYZANTINE_GOSSIP_HORIZON))


@register_scenario("security-raft-equivocation", plane="security",
                   variants=RAFT_EQUIVOCATION_VARIANTS,
                   gate=RAFT_EQUIVOCATION_GATE, params=_PARAMS)
def _security_raft(seed: Optional[int], params: Dict[str, Any]) -> PreparedRun:
    """Two Raft voters grant every candidate (default: defended)."""
    return prepare_raft_equivocation(
        seed=seed or 41,
        variant=params.get("variant", "defended"),
        horizon=params.get("horizon", RAFT_EQUIVOCATION_HORIZON))


@register_scenario("security-sybil-flood", plane="security",
                   variants=SYBIL_FLOOD_VARIANTS, gate=SYBIL_FLOOD_GATE,
                   params=_PARAMS)
def _security_sybil(seed: Optional[int], params: Dict[str, Any]) -> PreparedRun:
    """A compromised peer floods and forges joins (default: defended)."""
    return prepare_sybil_flood(
        seed=seed or 43,
        variant=params.get("variant", "defended"),
        horizon=params.get("horizon", SYBIL_FLOOD_HORIZON))
