"""Tests for the traffic subsystem: load generation, serving, resilience.

Covers the acceptance criteria of the serving story:

* retry backoff is deterministic per seed and bounded by the policy;
* the circuit breaker walks its three-state transition table exactly;
* cohort batching keeps kernel events O(aggregate rate), not O(users);
* servers queue, reject and shed as configured;
* the overload and retry-storm scenarios separate naive from resilient
  configurations by a wide, asserted margin.
"""

import random

import pytest

from repro.adaptation import (
    BackpressureAnalyzer,
    Executor,
    Issue,
    KnowledgeBase,
    RerouteTrafficAction,
    RuleBasedPlanner,
    ShedLoadAction,
)
from repro.core.system import IoTSystem
from repro.simulation.kernel import Simulator
from repro.traffic import (
    CircuitBreaker,
    ClientCohort,
    ClosedLoopGenerator,
    HedgePolicy,
    OpenLoopGenerator,
    QueueLengthAdmission,
    RetryBudget,
    RetryPolicy,
    Server,
    ServiceModel,
    TrafficClient,
    TrafficRegistry,
    cohort_batching,
)
from repro.traffic.patterns import CLOSED, HALF_OPEN, OPEN
from repro.traffic.scenarios import (
    prepare_overload,
    prepare_retry_storm,
    recovery_window,
    retry_storm_result,
    run_overload,
)


def _small_system(seed=5):
    system = IoTSystem.with_edge_cloud_landscape(2, 2, seed=seed)
    registry = TrafficRegistry(system)
    return system, registry


def _wire(system, registry, *, concurrency=2, queue_capacity=8,
          service_mean=0.02, service_kind="exponential", timeout=0.25,
          retry=None, budget=None, breaker=None, hedge=None, admission=None):
    server = registry.add_server(Server(
        system.sim, system.network, "edge0",
        rng=system.rngs.stream("traffic:server:edge0"),
        concurrency=concurrency, queue_capacity=queue_capacity,
        service=ServiceModel(mean=service_mean, kind=service_kind),
        admission=admission, metrics=system.metrics, trace=system.trace))
    client = registry.add_client(TrafficClient(
        system.sim, system.network, "c", "d0.0", "edge0",
        rng=system.rngs.stream("traffic:client"),
        timeout=timeout, retry=retry, budget=budget, breaker=breaker,
        hedge=hedge, metrics=system.metrics, trace=system.trace))
    return server, client


# --------------------------------------------------------------------------- #
# Retry policy: deterministic, bounded backoff
# --------------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_backoff_deterministic_per_seed(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.05, multiplier=2.0,
                             max_delay=10.0, jitter=0.5)
        a = [policy.backoff(n, random.Random(42)) for n in range(1, 5)]
        b = [policy.backoff(n, random.Random(42)) for n in range(1, 5)]
        c = [policy.backoff(n, random.Random(43)) for n in range(1, 5)]
        assert a == b
        assert a != c

    def test_backoff_grows_exponentially_within_jitter(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=100.0,
                             jitter=0.5)
        rng = random.Random(1)
        for attempt in range(1, 6):
            nominal = 0.1 * 2.0 ** (attempt - 1)
            delay = policy.backoff(attempt, rng)
            assert nominal * 0.5 <= delay <= nominal

    def test_backoff_caps_at_max_delay(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=10.0, max_delay=2.0,
                             jitter=0.0)
        assert policy.backoff(5, random.Random(0)) == pytest.approx(2.0)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestRetryBudget:
    def test_withdraw_spends_deposits(self):
        budget = RetryBudget(ratio=0.25, cap=100.0, initial=0.0)
        for _ in range(100):
            budget.deposit(1)
        assert budget.tokens == pytest.approx(25.0)
        assert budget.withdraw(25)
        assert not budget.withdraw(1)
        assert budget.refused == 1

    def test_cap_limits_accumulation(self):
        budget = RetryBudget(ratio=1.0, cap=5.0, initial=0.0)
        budget.deposit(50)
        assert budget.tokens == pytest.approx(5.0)


# --------------------------------------------------------------------------- #
# Circuit breaker: the three-state transition table
# --------------------------------------------------------------------------- #
class TestCircuitBreaker:
    def _tripped(self, threshold=3):
        breaker = CircuitBreaker(failure_threshold=threshold,
                                 recovery_time=1.0, success_threshold=2)
        for _ in range(threshold):
            breaker.record_failure(now=0.0)
        return breaker

    def test_closed_until_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, recovery_time=1.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.1)
        breaker.record_success(0.2)     # success resets the streak
        breaker.record_failure(0.3)
        breaker.record_failure(0.4)
        assert breaker.state == CLOSED
        breaker.record_failure(0.5)
        assert breaker.state == OPEN
        assert breaker.trips == 1

    def test_open_rejects_until_recovery_time(self):
        breaker = self._tripped()
        assert not breaker.allow(0.5)
        assert breaker.state == OPEN

    def test_half_open_probe_then_close(self):
        breaker = self._tripped()
        assert breaker.allow(1.5)               # probe admitted
        assert breaker.state == HALF_OPEN
        assert not breaker.allow(1.6)           # only one probe slot
        breaker.record_success(1.7)
        assert breaker.state == HALF_OPEN       # success_threshold=2
        assert breaker.allow(1.8)
        breaker.record_success(1.9)
        assert breaker.state == CLOSED

    def test_half_open_failure_retrips(self):
        breaker = self._tripped()
        assert breaker.allow(1.5)
        breaker.record_failure(1.6)
        assert breaker.state == OPEN
        assert breaker.trips == 2
        assert not breaker.allow(2.0)           # recovery clock restarted
        assert breaker.allow(2.7)

    def test_transition_log_records_every_change(self):
        breaker = self._tripped()
        breaker.allow(1.5)
        breaker.record_success(1.6)
        breaker.allow(1.7)
        breaker.record_success(1.8)
        assert [s for _, s in breaker.transitions] == [OPEN, HALF_OPEN, CLOSED]


# --------------------------------------------------------------------------- #
# Load generation: cohort batching keeps events O(rate), not O(users)
# --------------------------------------------------------------------------- #
class TestLoadGeneration:
    def test_cohort_batching_math(self):
        plan = cohort_batching(100_000, 0.01, max_event_rate=500.0)
        assert plan["aggregate"] == pytest.approx(1000.0)
        assert plan["weight"] == 2
        assert plan["event_rate"] == pytest.approx(500.0)
        small = cohort_batching(100, 0.01, max_event_rate=500.0)
        assert small["weight"] == 1

    def _cohort_run(self, users, rate_per_user, seed=5, horizon=5.0,
                    max_event_rate=500.0):
        system, registry = _small_system(seed)
        _, client = _wire(system, registry, concurrency=64,
                          queue_capacity=4096, service_mean=0.001)
        cohort = registry.add_generator(ClientCohort(
            system.sim, client, users=users, rate_per_user=rate_per_user,
            rng=system.rngs.stream("traffic:arrivals"),
            max_event_rate=max_event_rate, stop=horizon))
        cohort.start()
        system.run(until=horizon)
        return system, client, cohort

    def test_100k_users_same_event_magnitude_as_1k(self):
        # Same aggregate rate (400/s) from 1k and 100k users: the kernel
        # event count must stay in the same order of magnitude because
        # arrivals are weighted batches, not per-user events.
        sys_small, client_small, _ = self._cohort_run(1_000, 0.4)
        sys_large, client_large, _ = self._cohort_run(100_000, 0.004)
        assert client_small.stats.offered > 0
        assert client_large.stats.offered > 0
        ratio = sys_large.sim.fired_count / sys_small.sim.fired_count
        assert 0.5 <= ratio <= 2.0

    def test_weighted_arrivals_carry_full_demand(self):
        _, client, cohort = self._cohort_run(100_000, 0.004, horizon=5.0,
                                             max_event_rate=100.0)
        # ~400 req/s of demand over 5s as weight-4 batched arrivals.
        assert cohort.weight == 4
        assert client.stats.offered == pytest.approx(2000, rel=0.2)

    def test_open_loop_deterministic_per_seed(self):
        def offered(seed):
            system, registry = _small_system(seed)
            _, client = _wire(system, registry)
            gen = registry.add_generator(OpenLoopGenerator(
                system.sim, client, rate=50.0,
                rng=system.rngs.stream("traffic:arrivals"), stop=5.0))
            gen.start()
            system.run(until=5.0)
            return client.stats.offered, system.sim.fired_count

        assert offered(5) == offered(5)
        assert offered(5) != offered(6)

    def test_deterministic_process_spaces_arrivals_evenly(self):
        system, registry = _small_system()
        _, client = _wire(system, registry)
        gen = registry.add_generator(OpenLoopGenerator(
            system.sim, client, rate=10.0,
            rng=system.rngs.stream("traffic:arrivals"),
            process="deterministic", stop=2.05))
        gen.start()
        system.run(until=2.5)
        assert gen.arrivals == 20

    def test_closed_loop_workers_cycle(self):
        system, registry = _small_system()
        _, client = _wire(system, registry, concurrency=4)
        gen = registry.add_generator(ClosedLoopGenerator(
            system.sim, client, workers=4, think_time=0.1,
            rng=system.rngs.stream("traffic:think"), stop=10.0))
        gen.start()
        system.run(until=10.0)
        assert gen.cycles > 100
        # Closed loop: in-flight never exceeds the worker count.
        assert client.stats.offered <= gen.cycles + 4


# --------------------------------------------------------------------------- #
# Serving: queueing, rejection, admission, shedding
# --------------------------------------------------------------------------- #
class TestServer:
    def test_completions_flow_back(self):
        system, registry = _small_system()
        server, client = _wire(system, registry)
        gen = registry.add_generator(OpenLoopGenerator(
            system.sim, client, rate=30.0,
            rng=system.rngs.stream("traffic:arrivals"), stop=5.0))
        gen.start()
        system.run(until=6.0)
        assert client.stats.completed > 0
        assert server.served > 0
        assert client.stats.latency.count == client.stats.completed

    def test_queue_full_rejects(self):
        system, registry = _small_system()
        server, client = _wire(system, registry, concurrency=1,
                               queue_capacity=2, service_mean=1.0,
                               service_kind="deterministic", timeout=10.0)
        for _ in range(8):
            client.submit()
        system.run(until=0.5)
        # 1 in service + 2 queued; every other delivered request bounces
        # (the network may lose a couple in transit, so compare against
        # what actually reached the server).
        assert server.accepted == 3
        assert server.rejected >= 4
        assert client.stats.rejected == server.rejected

    def test_admission_preempts_queueing(self):
        system, registry = _small_system()
        server, client = _wire(system, registry, concurrency=1,
                               queue_capacity=100, service_mean=1.0,
                               service_kind="deterministic", timeout=10.0,
                               admission=QueueLengthAdmission(1))
        for _ in range(6):
            client.submit()
        system.run(until=0.5)
        assert server.queue_depth == 1
        assert server.accepted == 2          # 1 in service + 1 admitted
        assert server.rejected >= 3

    def test_shed_tightens_admission(self):
        system, registry = _small_system()
        server, _ = _wire(system, registry, queue_capacity=64)
        assert registry.shed("edge0", factor=0.25)
        assert isinstance(server.admission, QueueLengthAdmission)
        assert server.admission.limit == 16
        assert not registry.shed("nowhere")

    def test_priority_queue_serves_low_priority_value_first(self):
        system, registry = _small_system()
        server, client = _wire(system, registry, concurrency=1,
                               queue_capacity=10, service_mean=1.0,
                               service_kind="deterministic", timeout=10.0)
        order = []
        client.on_complete = lambda req_id, ok: order.append(req_id)
        # Occupy the single slot first so the next two must queue; their
        # service order is then decided by priority, not arrival.
        dummy = client.submit(priority=5)
        system.run(until=0.5)
        low = client.submit(priority=9)
        high = client.submit(priority=0)
        system.run(until=5.0)
        assert order == [dummy, high, low]


# --------------------------------------------------------------------------- #
# Client resilience: timeout, retry, hedge, breaker in the loop
# --------------------------------------------------------------------------- #
class TestClientResilience:
    def test_timeouts_trigger_retries_that_succeed(self):
        system, registry = _small_system()
        server, client = _wire(system, registry, concurrency=1,
                               queue_capacity=64, service_mean=0.3,
                               timeout=0.4,
                               retry=RetryPolicy(max_attempts=3,
                                                 base_delay=0.05,
                                                 jitter=0.0))
        gen = registry.add_generator(OpenLoopGenerator(
            system.sim, client, rate=4.0,
            rng=system.rngs.stream("traffic:arrivals"), stop=8.0))
        gen.start()
        system.run(until=10.0)
        assert client.stats.timed_out > 0
        assert client.stats.retries > 0
        assert client.stats.completed > 0

    def test_exhausted_attempts_fail(self):
        system, registry = _small_system()
        _, client = _wire(system, registry, concurrency=1, queue_capacity=1,
                          service_mean=50.0, timeout=0.1,
                          retry=RetryPolicy(max_attempts=2, base_delay=0.01,
                                            jitter=0.0))
        client.submit()
        client.submit()
        client.submit()
        system.run(until=5.0)
        assert client.stats.failed == 3
        assert client.stats.completed == 0

    def test_budget_refuses_unfunded_retries(self):
        system, registry = _small_system()
        _, client = _wire(system, registry, concurrency=1, queue_capacity=1,
                          service_mean=50.0, timeout=0.1,
                          retry=RetryPolicy(max_attempts=5, base_delay=0.01,
                                            jitter=0.0),
                          budget=RetryBudget(ratio=0.0, cap=1.0, initial=1.0))
        for _ in range(3):
            client.submit()
        system.run(until=5.0)
        # 1 initial token funds exactly one retry across all requests.
        assert client.stats.retries == 1
        assert client.budget.refused > 0

    def test_breaker_short_circuits_while_open(self):
        system, registry = _small_system()
        _, client = _wire(system, registry, concurrency=1, queue_capacity=1,
                          service_mean=50.0, timeout=0.1,
                          breaker=CircuitBreaker(failure_threshold=2,
                                                 recovery_time=10.0))
        for _ in range(3):
            client.submit()
        system.run(until=1.0)
        assert client.breaker.state == OPEN
        before = client.stats.short_circuited
        client.submit()
        assert client.stats.short_circuited == before + 1

    def test_hedge_fires_second_attempt(self):
        system, registry = _small_system()
        server, client = _wire(system, registry, concurrency=1,
                               queue_capacity=64, service_mean=0.4,
                               timeout=2.0,
                               hedge=HedgePolicy(delay=0.1))
        client.submit()
        system.run(until=3.0)
        assert client.stats.hedges == 1
        assert server.accepted == 2          # original + hedge
        assert client.stats.completed == 1   # first reply wins


# --------------------------------------------------------------------------- #
# Scenario-level assertions: the headline comparisons
# --------------------------------------------------------------------------- #
class TestOverloadScenario:
    def test_naive_collapses_admission_holds(self):
        naive = run_overload("naive", horizon=12.0)
        held = run_overload("admission", horizon=12.0)
        assert naive["goodput_vs_capacity"] < 0.2
        assert held["goodput_vs_capacity"] > 0.8
        assert held["p99_latency"] < 0.25

    def test_adaptive_reroutes_to_cloud(self):
        prepared = prepare_overload(variant="adaptive", horizon=15.0)
        prepared.system.run(until=prepared.horizon)
        client = prepared.aux["client"]
        assert client.target == "cloud"
        cloud = prepared.aux["registry"].servers["cloud"]
        assert cloud.served > 0
        # Goodput beats the single-server ceiling once the cloud absorbs it.
        assert client.stats.completed / 15.0 > 200.0

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            prepare_overload(variant="nope")


class TestRetryStormScenario:
    def test_naive_stays_collapsed_resilient_recovers(self):
        naive = prepare_retry_storm(variant="naive")
        naive.system.run(until=naive.horizon)
        resilient = prepare_retry_storm(variant="resilient")
        resilient.system.run(until=resilient.horizon)

        naive_kpis = retry_storm_result(naive)
        res_kpis = retry_storm_result(resilient)
        # The acceptance gate: collapse without the patterns, >=90%
        # post-heal recovery with budget + breaker.
        assert naive_kpis["recovery_ratio"] < 0.5
        assert res_kpis["recovery_ratio"] >= 0.9
        assert res_kpis["breaker"]["trips"] >= 1
        assert res_kpis["breaker"]["state"] == CLOSED
        assert res_kpis["retries"] < naive_kpis["retries"] / 10

    def test_recovery_window_after_heal(self):
        start, end = recovery_window(45.0)
        assert start == pytest.approx(21.0)
        assert end == pytest.approx(45.0)


# --------------------------------------------------------------------------- #
# MAPE integration: backpressure -> overload issue -> shed / reroute
# --------------------------------------------------------------------------- #
class TestMapeIntegration:
    def test_backpressure_analyzer_opens_overload_issue(self):
        knowledge = KnowledgeBase(["edge0"])
        knowledge.facts["backpressure"] = [
            {"node": "edge0", "depth": 60, "capacity": 64, "since": 3.0}]
        opened = BackpressureAnalyzer().analyze(knowledge, now=4.0)
        assert [i.kind for i in opened] == ["overload"]
        assert opened[0].subject == "edge0"
        assert "backpressure" not in knowledge.facts   # drained
        # Same signal again: issue already open, nothing new.
        knowledge.facts["backpressure"] = [
            {"node": "edge0", "depth": 61, "capacity": 64, "since": 3.0}]
        assert BackpressureAnalyzer().analyze(knowledge, now=5.0) == []

    def test_planner_prefers_reroute_over_shed(self):
        planner = RuleBasedPlanner()
        knowledge = KnowledgeBase(["edge0"])
        issue = Issue(kind="overload", subject="edge0", detected_at=1.0,
                      severity=3)
        shed_plan = planner.plan([issue], knowledge, now=1.0)
        assert [type(a) for a in shed_plan.actions] == [ShedLoadAction]
        knowledge.facts["offload_target"] = "cloud"
        route_plan = planner.plan([issue], knowledge, now=2.0)
        assert [type(a) for a in route_plan.actions] == [RerouteTrafficAction]
        assert route_plan.actions[0].destination == "cloud"

    def test_executor_sheds_and_reroutes_via_registry(self):
        system, registry = _small_system()
        server, client = _wire(system, registry, queue_capacity=64)
        executor = Executor(system.sim, system.network, system.fleet,
                            "edge0", system.rngs.stream("exec:edge0"))
        shed, reroute = executor.execute([
            ShedLoadAction(target="edge0", factor=0.5),
            RerouteTrafficAction(target="edge0", destination="cloud"),
        ])
        assert shed.success
        assert server.admission.limit == 32
        assert reroute.success
        assert client.target == "cloud"

    def test_executor_reroute_fails_without_registry(self):
        system = IoTSystem.with_edge_cloud_landscape(1, 1, seed=3)
        executor = Executor(system.sim, system.network, system.fleet,
                            "edge0", system.rngs.stream("exec:edge0"))
        result = executor.execute(
            [RerouteTrafficAction(target="edge0", destination="cloud")])[0]
        assert not result.success
        assert "registry" in result.detail

    def test_backpressure_signal_emitted_under_saturation(self):
        system, registry = _small_system()
        server, client = _wire(system, registry, concurrency=1,
                               queue_capacity=10, service_mean=5.0,
                               service_kind="deterministic", timeout=60.0)
        knowledge = KnowledgeBase(["edge0"])
        server.attach_backpressure(knowledge)
        for _ in range(12):
            client.submit()
        system.run(until=4.0)
        assert server.backpressure_signals >= 1
        assert knowledge.facts["backpressure"][0]["node"] == "edge0"


# --------------------------------------------------------------------------- #
# KPI plumbing
# --------------------------------------------------------------------------- #
class TestKpiIntegration:
    def test_kpi_report_carries_traffic_section(self):
        prepared = prepare_overload(variant="admission", horizon=5.0)
        prepared.system.run(until=prepared.horizon)
        report = prepared.system.kpi_report()
        assert report.traffic is not None
        assert report.traffic["offered"] > 0
        assert "edge0" in report.traffic["servers"]
        assert report.to_dict()["traffic"] == report.traffic

    def test_kpi_report_without_traffic_is_none(self):
        system = IoTSystem.with_edge_cloud_landscape(1, 1, seed=3)
        system.run(until=1.0)
        assert system.kpi_report().traffic is None
