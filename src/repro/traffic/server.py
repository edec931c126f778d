"""The serving model: bounded queues, concurrency, service times.

A :class:`Server` attaches to one node (device, cloudlet or cloud) and
serves ``traffic.request`` messages through a bounded queue feeding
``concurrency`` service slots.  Service times come from a configurable
distribution sampled off a seeded stream and scale with request weight,
so one weighted cohort arrival occupies a slot for exactly the aggregate
work its users represent -- capacity math is invariant under batching.

Overload behaviour is explicit: a full queue (or a refusing admission
policy) rejects at the door with a cheap reply, and sustained high
occupancy raises backpressure facts on attached MAPE knowledge bases --
the signal the planner's overload rule (shed / re-route) consumes.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Any, Dict, List, Optional

from repro.network.transport import Network
from repro.simulation.kernel import Simulator
from repro.simulation.metrics import MetricsRecorder
from repro.simulation.trace import TraceLog
from repro.traffic.admission import AdmissionPolicy, QueueLengthAdmission
from repro.traffic.request import REQUEST_KIND, reply_kind


class ServiceModel:
    """A service-time distribution with unit mean work per user-request."""

    KINDS = ("exponential", "deterministic", "lognormal")

    def __init__(self, mean: float = 0.02, kind: str = "exponential",
                 sigma: float = 0.5) -> None:
        if mean <= 0:
            raise ValueError("mean must be positive")
        if kind not in self.KINDS:
            raise ValueError(f"unknown service-time kind {kind!r}")
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.mean = mean
        self.kind = kind
        self.sigma = sigma

    def sample(self, rng: random.Random, weight: int = 1) -> float:
        """Service duration for one (possibly batched) request.

        One draw scaled by ``weight``: a weight-50 arrival holds its slot
        for 50 users' worth of work, so batching preserves utilization
        without 50 RNG draws per arrival.
        """
        if self.kind == "deterministic":
            unit = self.mean
        elif self.kind == "lognormal":
            mu = math.log(self.mean) - self.sigma ** 2 / 2.0
            unit = rng.lognormvariate(mu, self.sigma)
        else:
            unit = rng.expovariate(1.0 / self.mean)
        return unit * max(1, weight)


class Server:
    """A bounded-queue request server on one node."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node: str,
        rng: random.Random,
        concurrency: int = 1,
        queue_capacity: int = 64,
        service: Optional[ServiceModel] = None,
        admission: Optional[AdmissionPolicy] = None,
        metrics: Optional[MetricsRecorder] = None,
        trace: Optional[TraceLog] = None,
        backpressure_watermark: float = 0.8,
        backpressure_sustain: float = 1.0,
        backpressure_cooldown: float = 5.0,
        backpressure_period: float = 0.5,
    ) -> None:
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        self.sim = sim
        self.network = network
        self.node = node
        self.rng = rng
        self.concurrency = concurrency
        self.queue_capacity = queue_capacity
        self.service = service or ServiceModel()
        self.admission = admission
        self.metrics = metrics
        self.trace = trace
        # (priority, seq, payload) heap: FIFO within a priority class.
        self._queue: List[Any] = []
        self._queue_seq = 0
        self._in_service: Dict[int, Dict[str, Any]] = {}
        self._serving_seq = 0
        # Weighted server-side counters (client-independent view).
        self.accepted = 0
        self.served = 0
        self.rejected = 0
        # Backpressure config/state: sustained occupancy above the
        # watermark raises facts on attached knowledge bases.
        self.backpressure_watermark = backpressure_watermark
        self.backpressure_sustain = backpressure_sustain
        self.backpressure_cooldown = backpressure_cooldown
        self.backpressure_period = backpressure_period
        self.backpressure_signals = 0
        self._sinks: List[Any] = []
        self._above_since: Optional[float] = None
        self._last_signal: Optional[float] = None
        self._bp_event = None
        # This node's counter keys, event labels and series names, formatted
        # once instead of per request; reply kinds are cached per client.
        self._rejected_key = f"traffic.server.rejected:{node}"
        self._served_key = f"traffic.server.served:{node}"
        self._serve_label = f"traffic.serve:{node}"
        self._serve_span = f"serve:{node}"
        self._qdepth_series = f"traffic.qdepth:{node}"
        self._bp_label = f"traffic.backpressure:{node}"
        self._reply_kinds: Dict[str, str] = {}
        network.register(node, REQUEST_KIND, self._on_request)

    # -- queue state ------------------------------------------------------- #
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def busy(self) -> int:
        return len(self._in_service)

    # -- arrival ----------------------------------------------------------- #
    def _on_request(self, message) -> None:
        payload = message.payload
        weight = int(payload.get("weight", 1))
        if self.admission is not None and not self.admission.admit(self, payload):
            self._reject(payload, weight, "admission")
            return
        if len(self._queue) >= self.queue_capacity:
            self._reject(payload, weight, "queue_full")
            return
        self.accepted += weight
        heapq.heappush(self._queue, (int(payload.get("priority", 0)),
                                     self._queue_seq, self.sim.now, payload))
        self._queue_seq += 1
        self._record_depth()
        self._maybe_start()

    def _reject(self, payload: Dict[str, Any], weight: int, reason: str) -> None:
        self.rejected += weight
        if self.metrics is not None:
            self.metrics.increment(self._rejected_key, weight)
        if self.trace is not None:
            self.trace.emit(self.sim.now, "traffic", "reject",
                            subject=self.node, reason=reason,
                            client=payload.get("client"),
                            req_id=payload.get("req_id"))
        self._reply(payload, "rejected", reason=reason)

    # -- service ----------------------------------------------------------- #
    def _maybe_start(self) -> None:
        while self._queue and len(self._in_service) < self.concurrency:
            _, _, enqueued_at, payload = heapq.heappop(self._queue)
            self._start_service(payload, enqueued_at)
        self._record_depth()

    def _start_service(self, payload: Dict[str, Any], enqueued_at: float) -> None:
        weight = int(payload.get("weight", 1))
        duration = self.service.sample(self.rng, weight)
        token = self._serving_seq
        self._serving_seq += 1
        self.sim.schedule(
            duration, lambda _s, t=token: self._complete(t),
            label=self._serve_label,
        )
        self._in_service[token] = {
            "payload": payload,
            "enqueued_at": enqueued_at,
            "started": self.sim.now,
        }

    def _complete(self, token: int) -> None:
        entry = self._in_service.pop(token)
        payload = entry["payload"]
        weight = int(payload.get("weight", 1))
        self.served += weight
        if self.metrics is not None:
            self.metrics.increment(self._served_key, weight)
        now = self.sim.now
        queued_for = entry["started"] - entry["enqueued_at"]
        service_time = now - entry["started"]
        spans = self.network.spans
        if spans is not None:
            context = spans.admit("traffic")
            if context is not None:
                spans.finish(spans.begin(
                    context, self._serve_span, "traffic", now,
                    client=payload.get("client"),
                    req_id=payload.get("req_id"), queued_for=queued_for,
                    service_time=service_time, weight=weight), now)
        self._reply(payload, "ok", queued_for=queued_for,
                    service_time=service_time)
        self._maybe_start()

    def _reply(self, payload: Dict[str, Any], status: str, **extra: Any) -> None:
        body = {
            "req_id": payload["req_id"],
            "client": payload["client"],
            "weight": int(payload.get("weight", 1)),
            "attempt": int(payload.get("attempt", 1)),
            "status": status,
            "server": self.node,
        }
        body.update(extra)
        client = payload["client"]
        try:
            kind = self._reply_kinds[client]
        except KeyError:
            kind = self._reply_kinds[client] = reply_kind(client)
        self.network.send(self.node, payload["origin"], kind, body, 128)

    def _record_depth(self) -> None:
        if self.metrics is not None:
            self.metrics.set_level(self._qdepth_series, self.sim.now,
                                   float(len(self._queue)))

    # -- load shedding / backpressure -------------------------------------- #
    def shed(self, factor: float = 0.5) -> None:
        """Tighten admission (installing queue-length admission if absent)."""
        if self.admission is None:
            self.admission = QueueLengthAdmission(
                max(1, int(self.queue_capacity * factor)))
        else:
            self.admission.tighten(factor)
        if self.trace is not None:
            self.trace.emit(self.sim.now, "traffic", "shed",
                            subject=self.node, factor=factor)

    def attach_backpressure(self, knowledge: Any) -> None:
        """Raise ``facts["backpressure"]`` on ``knowledge`` under sustained load."""
        self._sinks.append(knowledge)
        if self._bp_event is None:
            self._bp_event = self.sim.schedule(
                self.backpressure_period, self._bp_tick,
                label=self._bp_label)

    def _bp_tick(self, sim: Simulator) -> None:
        depth = len(self._queue)
        threshold = self.backpressure_watermark * self.queue_capacity
        if depth >= threshold:
            if self._above_since is None:
                self._above_since = sim.now
            sustained = sim.now - self._above_since >= self.backpressure_sustain
            cooled = (self._last_signal is None or
                      sim.now - self._last_signal >= self.backpressure_cooldown)
            if sustained and cooled:
                self._last_signal = sim.now
                self.backpressure_signals += 1
                signal = {"node": self.node, "depth": depth,
                          "capacity": self.queue_capacity,
                          "since": self._above_since}
                for sink in self._sinks:
                    sink.facts.setdefault("backpressure", []).append(dict(signal))
                if self.trace is not None:
                    self.trace.emit(sim.now, "traffic", "backpressure",
                                    subject=self.node, depth=depth,
                                    capacity=self.queue_capacity)
        else:
            self._above_since = None
        self._bp_event = sim.schedule(
            self.backpressure_period, self._bp_tick,
            label=self._bp_label)

    # -- reporting ---------------------------------------------------------- #
    def summary(self) -> Dict[str, Any]:
        return {
            "accepted": self.accepted,
            "served": self.served,
            "rejected": self.rejected,
            "queue_depth": self.queue_depth,
            "busy": self.busy,
            "backpressure_signals": self.backpressure_signals,
        }
