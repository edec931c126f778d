"""Golden runs of the ``TrafficClient`` branches no registered scenario reaches.

``tests/golden_runs.json`` pins every registered scenario, but none of
them builds a :class:`~repro.traffic.patterns.HedgePolicy` or passes a
call ``deadline=``, so a rewrite of the client's per-call bookkeeping
could change what a hedge, a deadline-clipped timeout, a budget-refused
retry or a breaker probe does and still leave that table green.  Each
case below wires one small system that drives those branches hard (a
slow or crashed server, a tight queue, open- and closed-loop load) and
compares, at two seeds, the client's :class:`TrafficStats`, every metric
counter, the kernel's fired/sequence counts, the servers' summaries and
the ``system_digest`` with ``traffic_client_golden.json``.  The
``spans`` case runs with every span kept and pins the request spans'
segment breakdown too.

A change that *means* to alter these runs regenerates the table::

    PYTHONPATH=src python tests/test_traffic_client_golden.py --regen
"""

import hashlib
import json
import os
import sys

import pytest

from repro.core.system import IoTSystem
from repro.persistence.snapshot import system_digest
from repro.traffic import (
    CircuitBreaker,
    HedgePolicy,
    OpenLoopGenerator,
    QueueLengthAdmission,
    RetryBudget,
    RetryPolicy,
    Server,
    ServiceModel,
    TrafficClient,
    TrafficRegistry,
)

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "traffic_client_golden.json")
SEEDS = (0, 3)
HORIZON = 24.0


class ClosedLoopGenerator:
    """The ``breaker`` case's load: a fixed worker pool that submits,
    thinks an exponential time after each completion, submits again."""

    def __init__(self, sim, client, workers, think_time, rng, stop):
        self.sim, self.client, self.rng = sim, client, rng
        self.workers, self.think_time, self.stop_at = workers, think_time, stop
        self._worker_of_call = {}      # req_id -> worker index
        self._submitting = None        # worker inside submit()
        self._label = f"traffic.think:{client.name}"
        client.on_complete = self._completed

    def start(self):
        for worker in range(self.workers):
            self._think(worker, self.rng.expovariate(1.0 / self.think_time))

    def _think(self, worker, at):
        if at > self.stop_at:
            return
        self.sim.schedule_at(
            at, lambda _s, w=worker: self._submit(w), label=self._label)

    def _submit(self, worker):
        # A breaker fast-fail completes synchronously inside submit();
        # _submitting lets _completed attribute it to this worker.
        self._submitting = worker
        req_id = self.client.submit(weight=1)
        if self._submitting is None:
            return
        self._submitting = None
        self._worker_of_call[req_id] = worker

    def _completed(self, req_id, ok):
        worker = self._worker_of_call.pop(req_id, None)
        if worker is None:
            worker, self._submitting = self._submitting, None
        if worker is not None:
            self._think(worker, self.sim.now + self.rng.expovariate(
                1.0 / self.think_time))


def _server(system, registry, node, **kwargs):
    return registry.add_server(Server(
        system.sim, system.network, node,
        rng=system.rngs.stream(f"traffic:server:{node}"),
        metrics=system.metrics, trace=system.trace, **kwargs))


def _client(system, registry, name, **kwargs):
    return registry.add_client(TrafficClient(
        system.sim, system.network, name, "d0.0", "edge0",
        rng=system.rngs.stream(f"traffic:client:{name}"),
        metrics=system.metrics, trace=system.trace, **kwargs))


def _open_loop(system, registry, client, rate, **kwargs):
    generator = registry.add_generator(OpenLoopGenerator(
        system.sim, client, rate=rate,
        rng=system.rngs.stream(f"traffic:load:{client.name}"),
        stop=HORIZON - 2.0, **kwargs))
    generator.start()


def _outage(system, node, start, end):
    """``node`` drops every message addressed to it over ``[start, end)``."""
    network = system.network
    system.sim.schedule_at(start, lambda _s: network.set_node_up(node, False))
    system.sim.schedule_at(end, lambda _s: network.set_node_up(node, True))


def _hedge(system, registry):
    """Hedges to a second server after a tail delay; the loser is late."""
    _server(system, registry, "edge0", concurrency=1, queue_capacity=32,
            service=ServiceModel(mean=0.05, kind="lognormal", sigma=0.9))
    _server(system, registry, "cloud", concurrency=2, queue_capacity=32,
            service=ServiceModel(mean=0.03))
    client = _client(system, registry, "hedged", timeout=1.0,
                     hedge=HedgePolicy(delay=0.06, target="cloud"))
    _open_loop(system, registry, client, rate=12.0)
    # A hedge to the normal destination, too.
    same = _client(system, registry, "hedged-same", timeout=0.8,
                   hedge=HedgePolicy(delay=0.1))
    _open_loop(system, registry, same, rate=4.0)


def _deadline(system, registry):
    """Attempt timeouts clipped by a call deadline that also stops retries."""
    _server(system, registry, "edge0", concurrency=1, queue_capacity=4,
            service=ServiceModel(mean=0.08))
    client = _client(system, registry, "bounded", timeout=0.1, deadline=0.25,
                     retry=RetryPolicy(max_attempts=4, base_delay=0.02))
    _open_loop(system, registry, client, rate=15.0)
    _outage(system, "edge0", 9.0, 11.5)


def _retry_budget(system, registry):
    """Retries on rejections and timeouts until the budget runs dry."""
    _server(system, registry, "edge0", concurrency=1, queue_capacity=3,
            service=ServiceModel(mean=0.05))
    client = _client(system, registry, "budgeted", timeout=0.3,
                     retry=RetryPolicy(max_attempts=3, base_delay=0.05),
                     budget=RetryBudget(ratio=0.2, cap=5.0, initial=2.0))
    _open_loop(system, registry, client, rate=12.0, weight=2, priority=1)
    _outage(system, "edge0", 5.0, 8.0)


def _breaker(system, registry):
    """A closed-loop pool trips the breaker; probes re-close it."""
    _server(system, registry, "edge0", concurrency=2, queue_capacity=8,
            service=ServiceModel(mean=0.04, kind="deterministic"))
    client = _client(system, registry, "guarded", timeout=0.2,
                     retry=RetryPolicy(max_attempts=2, base_delay=0.03),
                     breaker=CircuitBreaker(failure_threshold=3,
                                            recovery_time=0.5,
                                            success_threshold=2))
    pool = registry.add_generator(ClosedLoopGenerator(
        system.sim, client, workers=4, think_time=0.1,
        rng=system.rngs.stream("traffic:load:guarded"), stop=HORIZON - 2.0))
    pool.start()
    _outage(system, "edge0", 4.0, 9.0)


def _spans(system, registry):
    """Every pattern at once, with every span kept."""
    system.enable_observability(instrument=False)
    _server(system, registry, "edge0", concurrency=1, queue_capacity=6,
            service=ServiceModel(mean=0.06),
            admission=QueueLengthAdmission(4))
    _server(system, registry, "cloud", concurrency=2, queue_capacity=16,
            service=ServiceModel(mean=0.03))
    client = _client(system, registry, "all", timeout=0.15, deadline=0.6,
                     retry=RetryPolicy(max_attempts=3, base_delay=0.04),
                     budget=RetryBudget(ratio=0.3, cap=4.0, initial=1.0),
                     breaker=CircuitBreaker(failure_threshold=4,
                                            recovery_time=0.4),
                     hedge=HedgePolicy(delay=0.05, target="cloud"))
    _open_loop(system, registry, client, rate=14.0)
    _outage(system, "edge0", 6.0, 9.0)


CASES = {
    "hedge": _hedge,
    "deadline": _deadline,
    "retry_budget": _retry_budget,
    "breaker": _breaker,
    "spans": _spans,
}


def _measure(case, seed):
    system = IoTSystem.with_edge_cloud_landscape(2, 2, seed=seed)
    registry = TrafficRegistry(system)
    CASES[case](system, registry)
    system.run(until=HORIZON)
    row = {
        "clients": {name: client.stats.to_dict()
                    for name, client in sorted(registry.clients.items())},
        "servers": {node: server.summary()
                    for node, server in sorted(registry.servers.items())},
        "counters": dict(sorted(system.metrics._counters.items())),
        "fired": system.sim.fired_count,
        "next_seq": system.sim._next_seq,
        "digest": system_digest(system),
    }
    if system.spans is not None:
        encoded = json.dumps([span.to_dict() for span in system.spans],
                             sort_keys=True, default=repr)
        row["spans"] = len(system.spans)
        row["spans_sha256"] = hashlib.sha256(encoded.encode()).hexdigest()
    # Through JSON, so a float compares as the table stores it.
    return json.loads(json.dumps(row))


def _load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


ROWS = [(case, seed) for case in CASES for seed in SEEDS]


def test_golden_table_covers_every_case():
    assert sorted(_load_golden()) == sorted(f"{case}@{seed}"
                                            for case, seed in ROWS)


@pytest.mark.parametrize("case,seed", ROWS,
                         ids=[f"{case}@{seed}" for case, seed in ROWS])
def test_client_run_matches_golden(case, seed):
    assert _measure(case, seed) == _load_golden()[f"{case}@{seed}"]


def test_cases_reach_the_branches_they_pin():
    """Guard against a case going quiet: each branch fires at both seeds."""
    golden = _load_golden()
    for seed in SEEDS:
        hedged = golden[f"hedge@{seed}"]["clients"]
        assert hedged["hedged"]["hedges"] > 0 and hedged["hedged"]["late"] > 0
        assert hedged["hedged-same"]["hedges"] > 0
        bounded = golden[f"deadline@{seed}"]["clients"]["bounded"]
        assert bounded["timed_out"] > 0 and bounded["failed"] > 0
        budgeted = golden[f"retry_budget@{seed}"]["clients"]["budgeted"]
        assert budgeted["retries"] > 0 and budgeted["rejected"] > 0
        guarded = golden[f"breaker@{seed}"]["clients"]["guarded"]
        assert guarded["short_circuited"] > 0 and guarded["completed"] > 0
        everything = golden[f"spans@{seed}"]
        assert everything["spans"] > 0
        assert all(everything["clients"]["all"][key] > 0 for key in (
            "hedges", "retries", "timed_out", "rejected", "short_circuited"))


def _regen():
    table = {}
    for case, seed in ROWS:
        row_id = f"{case}@{seed}"
        table[row_id] = _measure(case, seed)
        print(f"{row_id}: {table[row_id]['digest'][:12]} "
              f"{table[row_id]['fired']} events")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table)} rows to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: python {sys.argv[0]} --regen")
    _regen()
