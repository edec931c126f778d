"""The paper's artifacts, one gated function each.

Tables 1-2, Figs. 1-5, the ablation, the disruption sweep and the
coordination substrate are each one function, named after its CLI command
and EXPERIMENTS.md entry.  It takes ``quick``, builds and runs its systems
once, and returns its tables (as ``--json`` prints them) and its claims,
``(statement, holds)`` pairs: the shape EXPERIMENTS.md records.  ``quick``
changes sizes, never claims.  :func:`judge` folds claims into the traffic
and security gates' :class:`GateVerdict`.  Only CLI handlers import this
module, so no scenario run and no benchmark set-up compiles it.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.coordination import (GossipNode, HeartbeatFailureDetector,
                                MemberState, MembershipProtocol,
                                PhiAccrualFailureDetector, RaftCluster)
from repro.core.assessment import comparison_table
from repro.core.maturity import (MaturityScenario, ScenarioParams,
                                 run_maturity_comparison)
from repro.core.system import IoTSystem
from repro.core.vectors import MaturityLevel, features_of
from repro.data import (DataItem, DataQualityMonitor, DataSensitivity, LWWMap,
                        PNCounter, QuorumClient, QuorumReplica, ReplicaStore,
                        SyncProtocol)
from repro.data.sync import converged
from repro.devices import Service, ServiceState
from repro.experiments import (FIG3_HORIZON, FIG3_OUTAGE, FIG5_FAULTS,
                               FIG5_OUTAGE, control_availability, make_loop,
                               mape_repair_delays, run_control_architecture,
                               run_mape_placement)
from repro.faults import PartitionFault, ServiceFailureFault
from repro.governance import (AdministrativeDomain, DomainRegistry,
                              PolicyEngine, PrivacyScope, TrustLevel)
from repro.governance.domains import CCPA, GDPR
from repro.modeling import Always, Eventually, LeadsTo, ModelChecker
from repro.modeling.dtmc import availability_dtmc
from repro.modeling.lts import build_device_lifecycle_lts, build_grid_lts
from repro.modeling.properties import prop
from repro.network import Network
from repro.network.topology import build_mesh_topology
from repro.persistence.scenarios import GateVerdict
from repro.simulation import RngRegistry, Simulator
from repro.streams import (Dataflow, SinkOperator, SourceOperator,
                           StreamTuple, WindowAggregateOperator)
from repro.sweep import run_sweep
from repro.workloads import SmartCityWorkload

Table = Dict[str, Any]
Claim = Tuple[str, bool]
Artifact = Tuple[List[Table], List[Claim]]

ML1, ML2, ML3, ML4 = LEVELS = list(MaturityLevel)


def _table(title: str, rows: Sequence[Sequence[Any]],
           headers: Sequence[str] = ("metric", "value")) -> Table:
    return {"title": title, "headers": list(headers),
            "rows": [list(row) for row in rows]}


def _every(system: IoTSystem, period: float, action: Callable[[float], Any],
           first: float = 1.0, last: float = math.inf) -> None:
    """Call ``action(now)`` at ``first``, then every ``period`` while the
    previous call was before ``last``."""
    def tick(s) -> None:
        action(s.now)
        if s.now < last:
            s.schedule(period, tick)

    system.sim.schedule(first, tick)


def judge(claims: Sequence[Claim]) -> GateVerdict:
    """Every claim must hold; the summary counts how many do."""
    failures = tuple(statement for statement, holds in claims if not holds)
    return GateVerdict(not failures,
                       f"{len(claims) - len(failures)}/{len(claims)} claims",
                       failures)


# -- T1/T2: Tables 1-2, the maturity levels --------------------------------- #
def maturity(quick: bool = False) -> Artifact:
    """ML1-ML4 on one smart-city workload and one disruption schedule."""
    reports = run_maturity_comparison(ScenarioParams(
        n_sites=2 if quick else 3, sensors_per_site=2 if quick else 4,
        horizon=60.0 if quick else 120.0, seed=42))
    scores = [reports[level].resilience_score for level in LEVELS]
    repair = {level: reports[level].assessment("service-availability")
              for level in LEVELS}

    def under(level: MaturityLevel, requirement: str) -> float:
        return reports[level].assessment(requirement).under_disruption or 0.0

    def recovery(level: MaturityLevel) -> float:
        """Mean recovery time; a window never recovered counts as never."""
        if repair[level].unrecovered:
            return math.inf
        return repair[level].mean_recovery_time or 0.0

    tables = [
        {"title": "Tables 1-2: satisfaction under disruption",
         "text": comparison_table(list(reports.values()))},
        _table("Tables 1-2: resilience and recovery by level",
               [[level.name, reports[level].resilience_score,
                 repair[level].mean_recovery_time or 0.0,
                 repair[level].unrecovered] for level in LEVELS],
               ["level", "resilience score", "mean recovery (s)",
                "unrecovered"]),
    ]
    claims = [
        ("every resilience score lies in [0, 1]",
         all(0.0 <= score <= 1.0 for score in scores)),
        ("resilience strictly improves ML1 -> ML4 ("
         + ", ".join(f"{score:.3f}" for score in scores) + ")",
         all(a < b for a, b in zip(scores, scores[1:]))),
        ("ML4 is near fully resilient (score > 0.9)", scores[-1] > 0.9),
        ("ungoverned ML2 leaks privacy where governed ML4 does not",
         under(ML2, "privacy") < under(ML4, "privacy")),
        ("ML1's isolated data flows give no dashboard (freshness < 0.1)",
         under(ML1, "dashboard-freshness") < 0.1),
        ("ML4's dashboard survives the cloud outage (freshness > 0.9)",
         under(ML4, "dashboard-freshness") > 0.9),
        ("ML4 recovers service availability no slower than ML1",
         recovery(ML4) <= recovery(ML1)),
    ]
    return tables, claims


# -- F1: Fig. 1, the IoT landscape ------------------------------------------ #
def landscape(quick: bool = False) -> Artifact:
    """A smart city through a 20 s cloud outage, plus windowed analytics."""
    districts, sensors = (2, 5) if quick else (5, 20)
    workload = SmartCityWorkload(n_districts=districts,
                                 sensors_per_district=sensors, seed=7)
    system = workload.system
    latency = []
    for district in range(districts):
        device = system.sites[f"edge{district}"][0]
        edge = system.topology.expected_latency(device, f"edge{district}")
        cloud = system.topology.expected_latency(device, "cloud")
        latency.append([device, edge * 1000, cloud * 1000, cloud / edge])
    system.injector.inject_at(20.0, PartitionFault(
        name="cloud-outage", duration=20.0, isolate_node="cloud"))
    workload.run(60.0)
    ingest = system.metrics.series("city.ingest")
    before, during, after = (len(ingest.window(t, t + 20.0)) / 20.0
                             for t in (0.0, 20.0, 40.0))
    emitted = districts * sensors * 60.0 / workload.sensor_period
    processed = workload.stats.readings_processed
    reading_p95 = system.metrics.series("city.latency").percentile(95)
    actuation = system.metrics.series("actuation.latency")
    actuation_p95 = actuation.percentile(95)
    raw, shipped, results = _edge_analytics()
    tables = [
        _table("Fig. 1: edge vs cloud one-way latency", latency,
               ["device", "edge (ms)", "cloud (ms)", "ratio"]),
        _table("Fig. 1: edge ingest through a cloud outage",
               [["before", before], ["during", during], ["after", after]],
               ["phase", "readings/s"]),
        _table("Fig. 1: sense->analyze->actuate loop (edge-local)",
                 [["commands applied", float(len(actuation))],
                  ["mean latency (ms)", (actuation.mean() or 0) * 1000],
                  ["p95 latency (ms)", (actuation_p95 or 0) * 1000]]),
        _table("Fig. 1: edge analytics volume reduction (10s windows)",
                 [["raw tuples at edge", raw],
                  ["aggregates shipped to cloud", shipped],
                  ["volume reduction", raw / max(1, shipped)],
                  ["results at cloud sink", results]]),
    ]
    claims = [
        (f"the landscape holds {len(system.fleet)} devices, at least its "
         f"{districts} x {sensors} sensors",
         len(system.fleet) >= districts * sensors),
        (f"the edge processes {processed} of {emitted:.0f} readings (> 2/3)",
         processed > emitted * 2 / 3),
        ("cloud paths are > 5x slower than edge paths in every district",
         all(ratio > 5 for *_, ratio in latency)),
        ("edge ingest during the cloud outage stays > 0.9x its rate before",
         during > 0.9 * before),
        ("p95 reading latency stays under 50 ms",
         reading_p95 is not None and reading_p95 < 0.05),
        ("a 10 s window over 4 devices cuts cloudward tuples > 32x",
         raw / max(1, shipped) > 0.8 * 10 * 4),
        ("at least 10 windowed results reach the cloud sink", results >= 10),
        ("the closed actuation loop applies commands", len(actuation) > 0),
        ("the edge-local actuation loop closes under 50 ms at p95",
         actuation_p95 is not None and actuation_p95 < 0.05),
    ]
    return tables, claims


def _edge_analytics() -> Tuple[int, int, int]:
    """Section V.B: a 10 s windowed mean over one site's 4 devices at the
    edge -> (raw tuples at the edge, aggregates shipped, results at sink)."""
    system = IoTSystem.with_edge_cloud_landscape(1, 4, seed=33)
    sink = SinkOperator("sink")
    flow = Dataflow("analytics", system.sim, system.network, system.fleet,
                    epoch_period=1.0, metrics=system.metrics)
    flow.add_operator(SourceOperator("src"), "edge0")
    flow.add_operator(WindowAggregateOperator.mean("agg", 10.0), "edge0",
                      upstream="src")
    flow.add_operator(sink, "cloud", upstream="agg")
    flow.start()
    rng = system.rngs.stream("feed")

    def feed(now: float) -> None:
        for _ in system.sites["edge0"]:
            flow.ingest("src", StreamTuple(rng.gauss(20, 2), now))

    _every(system, 1.0, feed, first=0.5, last=100.0)
    system.run(until=120.0)
    return (flow.operator("src").processed, flow.operator("agg").emitted,
            len(sink.results))


# -- F2: Fig. 2, verification ----------------------------------------------- #
def verify(quick: bool = False) -> Artifact:
    """Model checking, composition and quantitative (DTMC) verification."""
    checker = ModelChecker(build_device_lifecycle_lts())
    lifecycle, claims = [], []
    for label, formula, expected in (
            ("G !(up & down)", Always(~(prop("up") & prop("down"))), True),
            ("G (serving -> up)", Always(prop("serving") >> prop("up")), True),
            ("down ~> up", LeadsTo(prop("down"), prop("up")), True),
            ("G !down (false)", Always(~prop("down")), False)):
        result = checker.check(formula)
        trace = "->".join(map(str, result.counterexample or []))
        lifecycle.append([label, result.holds, trace or "-"])
        claims.append((f"{label} holds", result.holds) if expected else
                      (f"{label} is violated, with a counterexample",
                       not result.holds and bool(trace)))
    scaling, invariants = [], []
    for size in (10, 30) if quick else (10, 30, 60, 100):
        grid = ModelChecker(build_grid_lts(size, size))
        invariants.append(grid.check(Always(~prop("lava"))))
        result = grid.check(Eventually(prop("goal")))
        scaling.append([size * size, result.states_explored, result.holds])
    composed = build_device_lifecycle_lts("a").parallel(
        build_device_lifecycle_lts("b"), sync_actions=set())
    recovers = ModelChecker(composed).check(
        LeadsTo(prop("down"), prop("up"))).holds
    chain, analytic = availability_dtmc(0.05, 0.4)
    computed = chain.stationary_distribution()["up"]
    steps = chain.expected_steps({"down"})["up"]
    tables = [
        _table("Fig. 2: device lifecycle properties", lifecycle,
               ["property", "holds", "counterexample"]),
        _table("Fig. 2: checker scaling", scaling,
               ["states", "explored", "holds"]),
        _table("Fig. 2: quantitative verification",
                 [["analytic availability", analytic],
                  ["computed availability", computed]]),
        _table("Fig. 2: parallel composition of device models",
                 [["component states", 4],
                  ["composed states", composed.state_count],
                  ["composed transitions", composed.transition_count],
                  ["G(down ~> up) holds", recovers]]),
        _table("Fig. 2: expected steps to failure",
                 [["computed", steps], ["analytic (1/failure rate)", 20.0]]),
    ]
    claims += [
        ("G !lava holds on every grid",
         all(result.holds for result in invariants)),
        ("checking G !lava explores exactly the grid's states",
         all(result.states_explored == states
             for result, (states, *_) in zip(invariants, scaling))),
        ("the goal is reachable on every grid",
         all(holds for *_, holds in scaling)),
        ("two 4-state device models compose to 16 states",
         composed.state_count == 16),
        ("the composed system still satisfies G(down ~> up)", recovers),
        ("DTMC availability matches the closed form to 1e-9",
         abs(computed - analytic) < 1e-9),
        ("expected steps to failure match 1/failure rate to 1e-6",
         abs(steps - 20.0) < 1e-6),
    ]
    return tables, claims


# -- F3: Fig. 3, edge control agents ---------------------------------------- #
def control(quick: bool = False) -> Artifact:
    """Cloud vs per-edge control, and an edge Raft group, through an outage."""
    start, end = FIG3_OUTAGE
    rows, warm = [], []      # rows: [architecture, before, during, after]
    for architecture in ("centralized", "decentralized"):
        system, _ = run_control_architecture(architecture)
        warm.append(control_availability(system, 0.0, start))
        rows.append([architecture] + [
            control_availability(system, a, b) for a, b in
            ((5.0, start), (start + 2, end), (end + 5, FIG3_HORIZON))])
    central, edge = rows
    committed, applied, consistent = _edge_consensus()
    tables = [
        _table("Fig. 3: control availability around a cloud outage", rows,
               ["architecture", "before", "during", "after"]),
        _table("Fig. 3: edge Raft group through the cloud outage",
                 [["proposals during outage", committed],
                  ["total applied", applied],
                  ["state machines consistent", consistent]]),
    ]
    claims = [
        ("both architectures control > 0.9 of the fleet before the outage",
         min(warm) > 0.9),
        ("centralized control collapses during the outage (< 0.1)",
         central[2] < 0.1),
        ("edge control agents ride through the outage (> 0.9)",
         edge[2] > 0.9),
        ("centralized control recovers after the heal (> 0.9)",
         central[3] > 0.9),
        ("the edge Raft group commits > 20 proposals during the outage",
         committed > 20),
        ("the Raft state machines stay consistent", consistent),
    ]
    return tables, claims


def _edge_consensus() -> Tuple[int, int, bool]:
    """A Raft group on the three edges proposing once a second through the
    Fig. 3 outage: (committed during the outage, applied, consistent)."""
    system = IoTSystem.with_edge_cloud_landscape(3, 4, seed=11)
    cluster = RaftCluster(system.sim, system.network, system.edge_nodes,
                          system.rngs.stream("raft"))
    cluster.start()
    start, end = FIG3_OUTAGE
    committed = [0]

    def propose(now: float) -> None:
        if cluster.propose({"t": now}) and start <= now < end:
            committed[0] += 1

    _every(system, 1.0, propose, first=10.0)
    system.injector.inject_at(start, PartitionFault(
        name="cloud-outage", duration=end - start, isolate_node="cloud"))
    system.run(until=FIG3_HORIZON)
    return (committed[0], max(map(len, cluster.applied.values())),
            cluster.state_machine_consistent())


# -- F4: Fig. 4, inter-IoT data flows --------------------------------------- #
def dataflows(quick: bool = False) -> Artifact:
    """Privacy, freshness and availability of replicated data."""
    quorum, cut = _majority_cut()
    enforced, ungoverned = _privacy(guarded=True), _privacy(guarded=False)
    mesh = _freshness(lambda node, edges: [e for e in edges if e != node])
    relay = _freshness(lambda node, edges: list(edges) if node == "cloud"
                       else ["cloud"])
    spread = _writes_through_partition()
    tables = [
        _table("Fig. 4: CP (quorum) vs AP (CRDT) under a 20s majority cut",
                 [["quorum write availability", quorum.write_availability],
                  ["CRDT write availability",
                   cut["accepted"] / max(1, cut["attempted"])],
                  ["CRDT converged after heal", cut["converged"]]]),
        _table("Fig. 4: writes through the 20s majority cut",
                 [["quorum writes attempted",
                   quorum.succeeded_writes + quorum.failed_writes],
                  ["quorum failed writes", quorum.failed_writes],
                  ["CRDT writes attempted during the cut", cut["attempted"]],
                  ["CRDT writes accepted during the cut", cut["accepted"]]]),
        _table("Fig. 4: privacy -- sensitive replica leakage across scopes",
               [["enforced", enforced["leaked"], enforced["denials"],
                 str(enforced["rules"])],
                ["ungoverned (audit)", ungoverned["leaked"],
                 ungoverned["denials"], "-"]],
               ["governance", "leaked to site2", "sync denials",
                "deny rules"]),
        _table("Fig. 4: replication freshness at a remote site",
               [["edge peer-to-peer", mesh], ["cloud relay", relay]],
               ["topology", "mean freshness (s)"]),
        _table("Fig. 4: write availability under partition (CRDT "
                 "replication)",
                 [["writes attempted", spread["attempted"]],
                  ["writes accepted", spread["accepted"]],
                  ["write availability",
                   spread["accepted"] / spread["attempted"]],
                  ["converged after heal", spread["converged"]],
                  ["final converged value", spread["final"]]]),
    ]
    claims = [
        ("the quorum store refuses writes while its quorum is cut off",
         quorum.failed_writes > 0 and quorum.write_availability < 1.0),
        ("every local CRDT write during the cut is accepted",
         0 < cut["accepted"] == cut["attempted"]),
        ("the CRDT replicas converge after the heal", cut["converged"]),
        ("the cut-off replica counts every CRDT write after the heal",
         cut["edge1"] == cut["written"]),
        ("enforced governance keeps the sensitive replica in its scope "
         "by denying syncs", not enforced["leaked"] and enforced["denials"]),
        ("without enforcement the sensitive replica leaks to site 2",
         ungoverned["leaked"]),
        ("non-sensitive aggregates still replicate under enforcement",
         enforced["aggregates"]),
        ("edge peer-to-peer sync is fresher than relaying through the cloud",
         mesh < relay),
        ("every CRDT write through a partition is accepted",
         spread["accepted"] == spread["attempted"]),
        ("the partitioned replicas converge to the exact global count",
         spread["converged"] and spread["final"] == spread["attempted"]),
    ]
    return tables, claims


def _replicate(system: IoTSystem, nodes: Sequence[str],
               crdts: Dict[str, Callable[[str], Any]],
               peers: Optional[Callable[[str, List[str]], List[str]]] = None,
               **options: Any
               ) -> Tuple[Dict[str, ReplicaStore], List[SyncProtocol]]:
    """A replica store per node holding ``crdts`` (name -> factory), synced
    every 0.5 s with ``peers(node, edges)``, by default every other node."""
    stores, syncs = {}, []
    for node in nodes:
        stores[node] = ReplicaStore(node)
        for name, make in crdts.items():
            stores[node].register(name, make(node))
        syncs.append(SyncProtocol(
            system.sim, system.network, stores[node],
            peers(node, system.edge_nodes) if peers else
            [n for n in nodes if n != node],
            system.rngs.stream(f"sync:{node}"), period=0.5, **options))
        syncs[-1].start()
    return stores, syncs


def _counted_write(counter: PNCounter) -> bool:
    """One local increment; True when the replica took it."""
    before = counter.value
    counter.increment(1)
    return counter.value == before + 1


def _majority_cut() -> Tuple[QuorumClient, Dict[str, Any]]:
    """An R=W=2 quorum store and a CRDT counter on the same three edges,
    both written from site 0 while it is cut off from the other two."""
    system = IoTSystem.with_edge_cloud_landscape(3, 1, seed=29)
    edges = system.edge_nodes
    for edge in edges:
        QuorumReplica(system.sim, system.network, edge)
    client = QuorumClient(system.sim, system.network, "d0.0", edges,
                          write_quorum=2, read_quorum=2, timeout=1.0)
    stores, _ = _replicate(system, edges, {"events": PNCounter})
    cut = {"written": 0, "attempted": 0, "accepted": 0}

    def write(now: float) -> None:
        client.write("k", now)
        accepted = _counted_write(stores["edge0"].get("events"))
        cut["written"] += 1
        if 20.0 <= now < 40.0:
            cut["attempted"] += 1
            cut["accepted"] += accepted

    _every(system, 1.0, write, last=50.0)
    system.partitions.schedule_outage(20.0, 20.0, "edge1")
    system.partitions.schedule_outage(20.0, 20.0, "edge2")
    system.run(until=60.0)
    cut["converged"] = converged(list(stores.values()), "events")
    cut["edge1"] = stores["edge1"].get("events").value
    return client, cut


def _privacy(guarded: bool) -> Dict[str, Any]:
    """Three sites replicate a public and a sensitive LWW map; site 0's data
    is PERSONAL and scoped to site 0, a scope the flow guard may enforce."""
    system = IoTSystem.with_edge_cloud_landscape(3, 1, seed=17,
                                                 domain_per_site=True)
    registry = DomainRegistry()
    for index, law in enumerate((GDPR, GDPR, CCPA)):
        registry.add(AdministrativeDomain(f"dom{index}", law, TrustLevel.PARTNER))
    engine = PolicyEngine(registry, min_trust=TrustLevel.PARTNER,
                          device_domain=lambda d: system.fleet.get(d).domain)
    engine.add_scope(PrivacyScope("site0-scope", members={"edge0", "d0.0"}))
    probe = DataItem("vitals", 0, "edge0", "dom0", 0.0,
                     DataSensitivity.PERSONAL, subject="s")

    def guard(src, dst, crdt_name):
        if crdt_name != "sensitive":
            return True, "public data"
        decision = engine.evaluate(probe, src, dst, now=system.sim.now)
        return decision.allowed, decision.reason

    stores, syncs = _replicate(
        system, system.edge_nodes, {"aggregates": LWWMap, "sensitive": LWWMap},
        flow_guard=guard if guarded else None, trace=system.trace)

    def write(now: float) -> None:
        stores["edge0"].get("sensitive").set("hr", {"v": now}, now)
        stores["edge0"].get("aggregates").set("count", {"v": now}, now)

    _every(system, 1.0, write)
    system.run(until=60.0)
    site2 = stores["edge2"]
    return {"leaked": site2.get("sensitive").get("hr") is not None,
            "denials": sum(sync.syncs_denied for sync in syncs),
            "rules": engine.denials_by_rule(),
            "aggregates": site2.get("aggregates").get("count") is not None}


def _freshness(peers: Callable[[str, List[str]], List[str]]) -> float:
    """Mean freshness at site 2 of a key written at site 0 every second and
    replicated along ``peers(node, edges)``."""
    system = IoTSystem.with_edge_cloud_landscape(3, 1, seed=17)
    quality = DataQualityMonitor(system.metrics)
    stores, _ = _replicate(system, system.edge_nodes + ["cloud"],
                           {"data": LWWMap}, peers)

    def sample(now: float) -> None:
        entry = stores["edge2"].get("data").get("k")
        if entry is not None:
            quality.record_update("k", entry, now)
            quality.sample_freshness("k", now)

    _every(system, 1.0, lambda now: stores["edge0"].get("data").set(
        "k", now, now))
    _every(system, 0.5, sample, first=2.0)
    system.run(until=60.0)
    return quality.mean_freshness("k")


def _writes_through_partition() -> Dict[str, Any]:
    """Every edge increments a shared counter each second while edge1 is cut
    off for 20 s; writes stop 10 s before the horizon so anti-entropy ends."""
    system = IoTSystem.with_edge_cloud_landscape(3, 1, seed=17)
    edges = system.edge_nodes
    stores, _ = _replicate(system, edges, {"events": PNCounter})
    writes = {"attempted": 0, "accepted": 0}

    def write(now: float) -> None:
        for edge in edges:
            writes["attempted"] += 1
            writes["accepted"] += _counted_write(stores[edge].get("events"))

    _every(system, 1.0, write, last=50.0)
    system.partitions.schedule_outage(15.0, 20.0, "edge1")
    system.run(until=60.0)
    writes["converged"] = converged(list(stores.values()), "events")
    writes["final"] = stores["edge0"].get("events").value
    return writes


# -- F5: Fig. 5, the MAPE loop ---------------------------------------------- #
def mape(quick: bool = False) -> Artifact:
    """Cloud vs edge MAPE loops repairing faults, one mid-outage; fleet scale."""
    rows, slowest, missed, repaired, running = [], {}, {}, set(), []
    for placement in ("cloud", "edge"):
        system, loops = run_mape_placement(placement)
        delays = mape_repair_delays(system, loops)
        slowest[placement] = delays[-1] if delays else math.inf
        missed[placement] = sum(loop.missed_observations for loop in loops)
        repaired.add(len(delays))
        running += [system.fleet.get(device).stack.service(f"svc-{device}")
                    .state == ServiceState.RUNNING for _, device in FIG5_FAULTS]
        rows.append([placement, delays[0] if delays else "-",
                     delays[-1] if delays else "-", missed[placement]])
    injected, fleet = _mape_at_fleet_scale()
    remaining = FIG5_OUTAGE[1] - FIG5_FAULTS[-1][0]
    tables = [
        _table("Fig. 5: MAPE placement vs time-to-repair", rows,
               ["placement", "fastest (s)", "slowest (s)", "missed obs"]),
        _table("Fig. 5: edge MAPE at fleet scale",
                 [["faults injected", injected],
                  ["faults repaired", len(fleet)],
                  ["max repair delay (s)", max(fleet) if fleet else "-"]]),
    ]
    claims = [
        ("both placements leave every faulted service running",
         all(running)),
        ("both placements repair every injected fault",
         repaired == {len(FIG5_FAULTS)}),
        ("edge loops repair every fault within 3 s", slowest["edge"] < 3.0),
        (f"the cloud loop's mid-outage repair waits for the heal "
         f"(> {remaining:g} s of outage left - 3 s)",
         slowest["cloud"] > remaining - 3.0),
        ("the cloud loop misses observations during the outage",
         missed["cloud"] > 0),
        ("edge loops miss no observation", missed["edge"] == 0),
        (f"edge loops repair all {injected} faults at fleet scale",
         len(fleet) == injected),
        ("edge loops repair each fleet-scale fault within 3 s",
         max(fleet, default=math.inf) < 3.0),
    ]
    return tables, claims


def _mape_at_fleet_scale() -> Tuple[int, List[float]]:
    """One service failure per device, staggered over 3 sites x 5 devices,
    under per-edge loops: (faults injected, repair delays)."""
    system = IoTSystem.with_edge_cloud_landscape(3, 5, seed=23)
    sites = sorted(system.sites.items())
    loops = []
    for edge, devices in sites:
        for device_id in devices:
            system.fleet.get(device_id).host(Service(f"svc-{device_id}"))
        loops.append(make_loop(system, edge, list(devices)))
    for loop in loops:
        loop.start()
    for index, (_, devices) in enumerate(sites):
        for j, device_id in enumerate(devices):
            system.injector.inject_at(5.0 + index * 3 + j, ServiceFailureFault(
                name=f"f:{device_id}", device_id=device_id,
                service_name=f"svc-{device_id}"))
    system.run(until=60.0)
    return (sum(len(devices) for _, devices in sites),
            mape_repair_delays(system, loops))


# -- ABL: one ML4 mechanism removed at a time ------------------------------- #
#: Configuration -> the ML4 feature overrides that remove one mechanism.
ABLATIONS: Dict[str, Dict[str, Any]] = {
    "full ML4": {},
    "no self-healing": {"self_healing": "none"},
    "no replication": {"data_replication": False,
                       "data_flows": "bidirectional"},
    "no failover": {"failover_replacement": False,
                    "service_placement": "edge"},
}


def ablations(quick: bool = False) -> Artifact:
    """The T1/T2 ML4 run with self-healing, replication or failover off."""
    params = ScenarioParams(n_sites=3, sensors_per_site=4, horizon=120.0,
                            seed=42)
    reports = {label: MaturityScenario(
        ML4, params, features=replace(features_of(ML4), **overrides)).run()
        for label, overrides in ABLATIONS.items()}
    score = {label: report.resilience_score
             for label, report in reports.items()}
    full = score["full ML4"]

    def under(label: str, requirement: str) -> float:
        return reports[label].assessment(requirement).under_disruption or 0.0

    tables = [_table("Ablations: removing one ML4 mechanism at a time",
                     [[label, value, value - full]
                      for label, value in score.items()],
                     ["configuration", "resilience score", "delta vs full"])]
    claims = [
        ("every resilience score lies in [0, 1]",
         all(0.0 <= value <= 1.0 for value in score.values())),
        ("self-healing contributes (the score drops without it)",
         score["no self-healing"] < full),
        ("replication contributes (the score drops without it)",
         score["no replication"] < full),
        ("no ablation beats the full ML4",
         all(value <= full + 1e-9 for value in score.values())),
        ("without self-healing, service availability under disruption drops",
         under("no self-healing", "service-availability")
         < under("full ML4", "service-availability")),
        ("without replication, the dashboard dies during the cloud outage",
         under("no replication", "dashboard-freshness")
         < under("full ML4", "dashboard-freshness")),
    ]
    return tables, claims


# -- SWEEP: satisfaction vs disruption intensity ---------------------------- #
SWEEP_RATES = (0.02, 0.08, 0.16)     # expected faults per second
SWEEP_SEEDS = (11, 23)


def sweep(quick: bool = False) -> Artifact:
    """ML1-ML4 under seeded stochastic disruption of growing intensity.

    The y-axis is ``overall_score``: the conditioned resilience score is
    not comparable across disruption amounts (more faults, wider windows).
    """
    def run(level: MaturityLevel) -> Callable[..., float]:
        return lambda rate, seed: MaturityScenario(level, ScenarioParams(
            n_sites=2, sensors_per_site=3, horizon=90.0, seed=seed,
            disruption_rate=rate)).run().overall_score

    results = {level: run_sweep(run=run(level), grid={"rate": SWEEP_RATES},
                                seeds=SWEEP_SEEDS) for level in LEVELS}
    mean = {level: [results[level].cell(rate=rate).mean
                    for rate in SWEEP_RATES] for level in LEVELS}
    drop = {level: mean[level][0] - mean[level][-1] for level in LEVELS}
    tables = [
        _table(f"Overall satisfaction vs disruption intensity (mean over "
               f"{len(SWEEP_SEEDS)} seeds)",
               [[rate] + [mean[level][i] for level in LEVELS]
                for i, rate in enumerate(SWEEP_RATES)],
               ["faults/s"] + [level.name for level in LEVELS]),
        _table("Degradation from mildest to harshest intensity",
               [[level.name, drop[level]] for level in LEVELS],
               ["level", "score drop"]),
    ]
    claims = [
        ("every level has one cell per intensity",
         all(len(result.cells) == len(SWEEP_RATES)
             for result in results.values())),
        ("ML4 leads ML3 (within 0.02) at every intensity",
         all(b >= w - 0.02 for b, w in zip(mean[ML4], mean[ML3]))),
        ("ML3 beats ML1 at every intensity",
         all(b > w for b, w in zip(mean[ML3], mean[ML1]))),
        ("ML4 beats ML2 at every intensity",
         all(b > w for b, w in zip(mean[ML4], mean[ML2]))),
        ("ML4 degrades no more than ML1 from mildest to harshest",
         drop[ML4] <= drop[ML1]),
    ]
    return tables, claims


# -- MECH: the coordination substrate, measured ----------------------------- #
def mechanisms(quick: bool = False) -> Artifact:
    """Failure detection, SWIM, gossip and Raft timings on a LAN mesh."""
    detection = [
        _detect_crash("heartbeat", HeartbeatFailureDetector, timeout=2.0),
        _detect_crash("phi", PhiAccrualFailureDetector, threshold=8.0)]
    swim = [[n, _swim_dissemination(n)] for n in (4, 8, 16)]
    gossip = [[fanout, _gossip_spread(fanout)] for fanout in (1, 2, 3)]
    raft = [[n, _raft_election(n)] for n in (3, 5, 9)]
    tables = [
        _table("Failure detection after a crash at t=20s", detection,
               ["detector", "detection delay (s)", "false suspicions"]),
        _table("SWIM: a crash known DEAD by every member", swim,
               ["members", "time after the crash (s)"]),
        _table("Gossip convergence time on 16 nodes (1s rounds)", gossip,
               ["fanout", "time to full spread (s)"]),
        _table("Raft: cold start to a leader", raft,
               ["nodes", "time to leader (s)"]),
    ]
    claims = [
        ("both detectors suspect the crashed node within 10 s",
         all(delay < 10.0 for _, delay, _ in detection)),
        ("neither detector suspects a live node",
         all(false == 0 for *_, false in detection)),
        ("SWIM declares a crash DEAD cluster-wide within 60 s at 4, 8 and "
         "16 members", all(t < 60.0 for _, t in swim)),
        ("gossip reaches all 16 nodes within 30 s at every fanout",
         all(t < 30.0 for _, t in gossip)),
        ("fanout 3 spreads no slower than fanout 1",
         gossip[-1][1] <= gossip[0][1]),
        ("Raft elects a leader within 15 s at 3, 5 and 9 nodes",
         all(t < 15.0 for _, t in raft)),
    ]
    return tables, claims


def _mesh(n: int) -> Tuple[Simulator, RngRegistry, List[str], Network]:
    sim, rngs = Simulator(), RngRegistry(seed=5)
    nodes = [f"n{i:02d}" for i in range(n)]
    network = Network(sim, build_mesh_topology(nodes, rng=rngs.stream("net")))
    return sim, rngs, nodes, network


def _time_until(sim: Simulator, done: Callable[[], bool], step: float,
                limit: float) -> float:
    """Simulated seconds until ``done()``, checked every ``step``;
    infinity when ``limit`` passes first."""
    start = sim.now
    while sim.now < start + limit:
        sim.run(until=sim.now + step)
        if done():
            return sim.now - start
    return math.inf


def _detect_crash(kind: str, detector: type, **option: float) -> List[Any]:
    """n04 crashes at t=20 s in a 5-node mesh watched by n00's detector:
    [kind, detection delay, suspicions of live nodes]."""
    sim, _, nodes, network = _mesh(5)
    detected: Dict[str, float] = {}
    for node in nodes:     # every peer heartbeats so n00 builds a history
        watch = (lambda peer: detected.setdefault(peer, sim.now)) \
            if node == "n00" else None
        detector(sim, network, node, nodes, period=0.5, on_suspect=watch,
                 **option).start()
    sim.schedule_at(20.0, lambda _s: network.set_node_up("n04", False))
    sim.run(until=60.0)
    return [kind, detected.get("n04", math.inf) - 20.0,
            sum(1 for peer in detected if peer != "n04")]


def _swim_dissemination(n: int) -> float:
    """Time for the last member's crash to be known DEAD by all others."""
    sim, rngs, nodes, network = _mesh(n)
    members = [MembershipProtocol(sim, network, node, nodes,
                                  rngs.stream(f"swim:{node}"))
               for node in nodes]
    for protocol in members:
        protocol.start()
    sim.run(until=10.0)
    network.set_node_up(nodes[-1], False)
    return _time_until(sim, lambda: all(
        protocol.state_of(nodes[-1]) == MemberState.DEAD
        for protocol in members[:-1]), 1.0, 120.0)


def _gossip_spread(fanout: int) -> float:
    """Time for one update to reach every node of a 16-node cluster."""
    sim, rngs, nodes, network = _mesh(16)
    cluster = [GossipNode(sim, network, node, nodes, rngs.stream(f"g:{node}"),
                          period=1.0, fanout=fanout) for node in nodes]
    for gossip in cluster:
        gossip.start()
    cluster[0].set("k", "v")
    return _time_until(sim, lambda: all(g.get("k") == "v" for g in cluster),
                       0.5, 100.0)


def _raft_election(n: int) -> float:
    """Time from a cold start to a leader."""
    sim, rngs, nodes, network = _mesh(n)
    cluster = RaftCluster(sim, network, nodes, rngs.stream("raft"))
    cluster.start()
    return _time_until(sim, lambda: cluster.leader() is not None, 0.25, 60.0)
