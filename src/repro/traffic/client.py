"""The client side of the request lifecycle.

A :class:`TrafficClient` owns *calls*: a call is submitted once, may
fan out into several attempts (retries, hedges), and ends in exactly one
of completed / failed / short-circuited.  All the resilience patterns
compose here, in the order real clients apply them:

1. circuit breaker gate (fast-fail without touching the network),
2. attempt timeout bounded by the overall call deadline,
3. retry with jittered exponential backoff, spending the retry budget,
4. speculative hedging after a tail-latency delay.

Counters go through both the local :class:`~repro.traffic.stats.TrafficStats`
(weighted, KPI-facing) and ``metrics.increment`` (digest-visible, so any
divergence in traffic outcomes fails the persistence digest check).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional

from repro.network.transport import Network
from repro.simulation.kernel import Event, Simulator
from repro.simulation.metrics import MetricsRecorder
from repro.simulation.trace import TraceLog
from repro.traffic.patterns import (
    CircuitBreaker,
    HedgePolicy,
    RetryBudget,
    RetryPolicy,
)
from repro.traffic.request import REQUEST_KIND, reply_kind
from repro.traffic.stats import COUNTERS, TrafficStats

#: Sample series carrying weighted completions, for windowed goodput.
COMPLETIONS_SERIES = "traffic.completions"

OnComplete = Callable[[int, bool], None]


class _Call:
    """One open call's state, from :meth:`TrafficClient.submit` to ``_close``."""

    __slots__ = ("req_id", "weight", "priority", "created", "deadline_at",
                 "attempt", "hedges_sent", "timeout_event", "hedge_event",
                 "retry_event", "span", "attempt_started")

    def __init__(self, req_id: int, weight: int, priority: int,
                 created: float, deadline_at: Optional[float]) -> None:
        self.req_id = req_id
        self.weight = weight
        self.priority = priority
        self.created = created
        self.deadline_at = deadline_at
        self.attempt = 1
        self.hedges_sent = 0
        self.timeout_event: Optional[Event] = None
        self.hedge_event: Optional[Event] = None
        self.retry_event: Optional[Event] = None
        # Telemetry only (digest-neutral): the request span carries the
        # critical-path segment breakdown read by repro.observability.profile,
        # and attempt_started anchors the current attempt for that
        # decomposition.
        self.span = None
        self.attempt_started = created


class TrafficClient:
    """Issues requests from ``origin`` to ``target`` with resilience patterns."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        origin: str,
        target: str,
        rng: random.Random,
        timeout: float = 0.25,
        deadline: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        budget: Optional[RetryBudget] = None,
        breaker: Optional[CircuitBreaker] = None,
        hedge: Optional[HedgePolicy] = None,
        metrics: Optional[MetricsRecorder] = None,
        trace: Optional[TraceLog] = None,
        on_complete: Optional[OnComplete] = None,
    ) -> None:
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        if deadline is not None and deadline < timeout:
            raise ValueError("deadline must be >= the attempt timeout")
        self.sim = sim
        self.network = network
        self.name = name
        self.origin = origin
        self.target = target   # mutable: MAPE re-route actions repoint it
        self.rng = rng
        self.timeout = timeout
        self.deadline = deadline
        self.retry = retry
        self.budget = budget
        self.breaker = breaker
        self.hedge = hedge
        self.metrics = metrics
        self.trace = trace
        self.on_complete = on_complete
        self.stats = TrafficStats()
        self._next_id = 0
        self._open: Dict[int, _Call] = {}
        # The name never changes, so its counter keys, event labels and
        # series names are formatted here once, not per send or count.
        self._keys = {outcome: f"traffic.{outcome}:{name}"
                      for outcome in COUNTERS}
        self._timeout_label = f"traffic.timeout:{name}"
        self._hedge_label = f"traffic.hedge:{name}"
        self._retry_label = f"traffic.retry:{name}"
        self._latency_series = f"traffic.latency:{name}"
        self._request_span = f"request:{name}"
        network.register(origin, reply_kind(name), self._on_reply)

    # -- submission --------------------------------------------------------- #
    def submit(self, weight: int = 1, priority: int = 0) -> int:
        """Start one call of ``weight`` user-requests; returns its id."""
        now = self.sim.now
        req_id = self._next_id
        self._next_id += 1
        self.stats.offered += weight
        self._count(self._keys["offered"], weight)
        if self.breaker is not None and not self.breaker.allow(now):
            # Fast-fail: no network traffic, no open call, no events.
            self.stats.short_circuited += weight
            self._count(self._keys["short_circuited"], weight)
            self._completed(req_id, False)
            return req_id
        if self.budget is not None:
            self.budget.deposit(weight)
        call = _Call(req_id, weight, priority, now,
                     None if self.deadline is None else now + self.deadline)
        spans = self.network.spans
        if spans is not None:
            # Decide, then build: a sampled-out call keeps ``span`` None and
            # _on_reply/_fail skip its segment arithmetic.
            context = spans.admit("request")
            if context is not None:
                call.span = spans.begin(
                    context, self._request_span, "request", now,
                    req_id=req_id, weight=weight, target=self.target)
        self._open[req_id] = call
        self._send_attempt(call)
        return req_id

    def _send_attempt(self, call: _Call, destination: Optional[str] = None,
                      hedged: bool = False) -> None:
        now = self.sim.now
        if not hedged:
            call.attempt_started = now
        req_id, attempt = call.req_id, call.attempt
        payload = {
            "req_id": req_id,
            "client": self.name,
            "origin": self.origin,
            "created_at": call.created,
            "weight": call.weight,
            "priority": call.priority,
            "attempt": attempt,
            "hedged": hedged,
        }
        self.network.send(self.origin, destination or self.target,
                          REQUEST_KIND, payload)
        if hedged:
            return  # the primary attempt's timeout still governs the call
        timeout_at = now + self.timeout
        if call.deadline_at is not None:
            timeout_at = min(timeout_at, call.deadline_at)
        call.timeout_event = self.sim.schedule(
            max(0.0, timeout_at - now),
            lambda _s, r=req_id, a=attempt: self._on_timeout(r, a),
            label=self._timeout_label,
        )
        hedge = self.hedge
        if (hedge is not None and attempt == 1
                and call.hedges_sent < hedge.max_hedges
                and hedge.delay < timeout_at - now):
            call.hedge_event = self.sim.schedule(
                hedge.delay,
                lambda _s, r=req_id: self._on_hedge(r),
                label=self._hedge_label,
            )

    # -- outcomes ----------------------------------------------------------- #
    def _on_reply(self, message) -> None:
        payload = message.payload
        call = self._open.get(payload["req_id"])
        weight = int(payload["weight"])
        if call is None or call.retry_event is not None:
            # The call already ended (or gave up on this attempt and is
            # waiting out a backoff): a reply now is wasted server work.
            self.stats.late += weight
            self._count(self._keys["late"], weight)
            return
        now = self.sim.now
        if payload["status"] == "ok":
            latency = now - call.created
            self.stats.completed += weight
            self.stats.latency.observe(latency, weight)
            self._count(self._keys["completed"], weight)
            if self.metrics is not None:
                self.metrics.record(COMPLETIONS_SERIES, now, float(weight))
                self.metrics.record(self._latency_series, now, latency)
            if self.breaker is not None:
                self.breaker.record_success(now)
            span = call.span
            if span is not None:
                # Segment decomposition: retry covers everything before the
                # answering attempt started (backoffs + failed attempts),
                # queue/service come from the server's reply, and network is
                # the residual -- so the four segments sum to the measured
                # end-to-end latency by construction.
                queue_s = float(payload.get("queued_for", 0.0))
                service_s = float(payload.get("service_time", 0.0))
                retry_s = call.attempt_started - call.created
                network_s = max(0.0, latency - retry_s - queue_s - service_s)
                self.network.spans.finish(
                    span, now, status="ok",
                    queue_s=queue_s, service_s=service_s,
                    network_s=network_s, retry_s=retry_s,
                    attempts=call.attempt + call.hedges_sent)
            self._close(call)
            self._completed(call.req_id, True)
        else:  # rejected at the server door
            self.stats.rejected += weight
            self._count(self._keys["rejected"], weight)
            if self.breaker is not None:
                self.breaker.record_failure(now)
            self._attempt_failed(call)

    def _on_timeout(self, req_id: int, attempt: int) -> None:
        call = self._open.get(req_id)
        if call is None or call.attempt != attempt:
            return  # stale timer of a superseded attempt
        call.timeout_event = None
        weight = call.weight
        self.stats.timed_out += weight
        self._count(self._keys["timed_out"], weight)
        if self.breaker is not None:
            self.breaker.record_failure(self.sim.now)
        self._attempt_failed(call)

    def _on_hedge(self, req_id: int) -> None:
        call = self._open.get(req_id)
        if call is None:
            return
        call.hedge_event = None
        call.hedges_sent += 1
        self.stats.hedges += call.weight
        self._count(self._keys["hedges"], call.weight)
        self._send_attempt(call, destination=self.hedge.target, hedged=True)

    def _attempt_failed(self, call: _Call) -> None:
        sim = self.sim
        if call.timeout_event is not None:
            sim.cancel(call.timeout_event)
            call.timeout_event = None
        if call.hedge_event is not None:
            sim.cancel(call.hedge_event)
            call.hedge_event = None
        retry = self.retry
        if retry is not None and call.attempt < retry.max_attempts:
            delay = retry.backoff(call.attempt, self.rng)
            within_deadline = (call.deadline_at is None
                               or sim.now + delay < call.deadline_at)
            funded = self.budget is None or self.budget.withdraw(call.weight)
            if within_deadline and funded:
                weight = call.weight
                self.stats.retries += weight
                self._count(self._keys["retries"], weight)
                call.attempt += 1
                call.retry_event = sim.schedule(
                    delay,
                    lambda _s, r=call.req_id: self._retry_fire(r),
                    label=self._retry_label,
                )
                return
        self._fail(call)

    def _retry_fire(self, req_id: int) -> None:
        call = self._open.get(req_id)
        if call is None:
            return
        call.retry_event = None
        self._send_attempt(call)

    def _fail(self, call: _Call) -> None:
        weight = call.weight
        self.stats.failed += weight
        self._count(self._keys["failed"], weight)
        span = call.span
        if span is not None:
            # No reply to read queue/service from: time in the last attempt
            # counts as network (sent, never usefully answered), everything
            # before it as retry -- still summing to end-to-end elapsed.
            now = self.sim.now
            retry_s = call.attempt_started - call.created
            self.network.spans.finish(
                span, now, status="failed",
                queue_s=0.0, service_s=0.0,
                network_s=max(0.0, now - call.attempt_started),
                retry_s=retry_s,
                attempts=call.attempt + call.hedges_sent)
        self._close(call)
        self._completed(call.req_id, False)

    def _close(self, call: _Call) -> None:
        sim = self.sim
        if call.timeout_event is not None:
            sim.cancel(call.timeout_event)
        if call.hedge_event is not None:
            sim.cancel(call.hedge_event)
        if call.retry_event is not None:
            sim.cancel(call.retry_event)
        del self._open[call.req_id]

    def _completed(self, req_id: int, ok: bool) -> None:
        if self.on_complete is not None:
            self.on_complete(req_id, ok)

    def _count(self, key: str, weight: int) -> None:
        if self.metrics is not None:
            self.metrics.increment(key, weight)
