"""Load generation: open-loop, closed-loop, and cohorts at scale.

Open-loop generators model an outside population that does not slow
down when the system does -- the demand regime where overload and
metastable failures live.  Closed-loop generators model a fixed worker
pool with think time (demand self-limits, classic benchmark shape).

:class:`ClientCohort` is the scale mechanism: a population of ``users``
each issuing ``rate_per_user`` req/s is represented as batched arrivals
of ``weight`` user-requests, with the *event* rate capped at
``max_event_rate``.  Kernel cost is therefore O(aggregate rate x
duration) regardless of population -- a 100k-user cohort costs the same
events as a 1k-user cohort at equal aggregate rate, which is what lets
"millions of users" (ROADMAP north star) fit in a unit test.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Optional

from repro.simulation.kernel import Simulator
from repro.traffic.client import TrafficClient


def cohort_batching(users: int, rate_per_user: float,
                    max_event_rate: float = 2000.0) -> Dict[str, float]:
    """Weight/event-rate split for a user population.

    Returns ``{"aggregate", "weight", "event_rate"}`` such that
    ``weight * event_rate == aggregate`` and ``event_rate <= max_event_rate``.
    """
    if users < 1:
        raise ValueError("users must be >= 1")
    if rate_per_user <= 0 or max_event_rate <= 0:
        raise ValueError("rates must be positive")
    aggregate = users * rate_per_user
    weight = max(1, math.ceil(aggregate / max_event_rate))
    return {"aggregate": aggregate, "weight": float(weight),
            "event_rate": aggregate / weight}


class OpenLoopGenerator:
    """Arrivals at a fixed rate, independent of system state.

    ``process`` is ``"poisson"`` (exponential gaps) or
    ``"deterministic"`` (fixed gaps).  Arrivals start at ``start`` plus
    one gap and stop after ``stop`` (None = run forever).
    """

    def __init__(
        self,
        sim: Simulator,
        client: TrafficClient,
        rate: float,
        rng: random.Random,
        process: str = "poisson",
        start: float = 0.0,
        stop: Optional[float] = None,
        weight: int = 1,
        priority: int = 0,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if process not in ("poisson", "deterministic"):
            raise ValueError(f"unknown arrival process {process!r}")
        if weight < 1:
            raise ValueError("weight must be >= 1")
        self.sim = sim
        self.client = client
        self.rate = rate
        self.rng = rng
        self.process = process
        self.start_at = start
        self.stop_at = stop
        self.weight = weight
        self.priority = priority
        self.arrivals = 0          # arrival events fired
        self._event = None
        self._label = f"traffic.arrival:{client.name}"

    def _gap(self) -> float:
        if self.process == "deterministic":
            return 1.0 / self.rate
        return self.rng.expovariate(self.rate)

    def start(self) -> None:
        if self._event is not None:
            return
        self._schedule_next(self.start_at + self._gap())

    def _schedule_next(self, at: float) -> None:
        if self.stop_at is not None and at > self.stop_at:
            self._event = None
            return
        self._event = self.sim.schedule_at(
            at, self._fire, label=self._label)

    def _fire(self, sim: Simulator) -> None:
        self.arrivals += 1
        self.client.submit(weight=self.weight, priority=self.priority)
        self._schedule_next(sim.now + self._gap())


class ClientCohort(OpenLoopGenerator):
    """An open-loop population batched to a bounded event rate."""

    def __init__(
        self,
        sim: Simulator,
        client: TrafficClient,
        users: int,
        rate_per_user: float,
        rng: random.Random,
        max_event_rate: float = 2000.0,
        process: str = "poisson",
        start: float = 0.0,
        stop: Optional[float] = None,
        priority: int = 0,
    ) -> None:
        batching = cohort_batching(users, rate_per_user, max_event_rate)
        super().__init__(
            sim, client, rate=batching["event_rate"], rng=rng,
            process=process, start=start, stop=stop,
            weight=int(batching["weight"]), priority=priority,
        )
        self.users = users
        self.rate_per_user = rate_per_user
        self.aggregate_rate = batching["aggregate"]


class ClosedLoopGenerator:
    """A fixed worker pool: each worker submits, thinks, submits again.

    Workers take over the client's ``on_complete`` hook; a completed (or
    failed) call schedules the next submission after an exponential
    think time.  Demand self-limits: a slow system slows its own load.
    """

    def __init__(
        self,
        sim: Simulator,
        client: TrafficClient,
        workers: int,
        think_time: float,
        rng: random.Random,
        start: float = 0.0,
        stop: Optional[float] = None,
        weight: int = 1,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if think_time <= 0:
            raise ValueError("think_time must be positive")
        self.sim = sim
        self.client = client
        self.workers = workers
        self.think_time = think_time
        self.rng = rng
        self.start_at = start
        self.stop_at = stop
        self.weight = weight
        self.cycles = 0            # completed submit->response cycles
        self._worker_of_call: Dict[int, int] = {} # req_id -> worker index
        self._submitting: Optional[int] = None    # worker inside submit()
        self._label = f"traffic.think:{client.name}"
        client.on_complete = self._completed

    def start(self) -> None:
        for worker in range(self.workers):
            self._think(worker, self.start_at + self.rng.expovariate(
                1.0 / self.think_time))

    def _think(self, worker: int, at: float) -> None:
        if self.stop_at is not None and at > self.stop_at:
            return
        self.sim.schedule_at(
            at, lambda _s, w=worker: self._submit(w),
            label=self._label)

    def _submit(self, worker: int) -> None:
        # A breaker fast-fail completes synchronously inside submit();
        # the handshake via _submitting lets _completed attribute that
        # completion to this worker without a recorded call mapping.
        self._submitting = worker
        req_id = self.client.submit(weight=self.weight)
        if self._submitting is None:
            return  # completed synchronously; worker already rescheduled
        self._submitting = None
        self._worker_of_call[req_id] = worker

    def _completed(self, req_id: int, ok: bool) -> None:
        worker = self._worker_of_call.pop(req_id, None)
        if worker is None:
            worker = self._submitting
            self._submitting = None
        if worker is None:
            return  # not a call this generator issued
        self.cycles += 1
        self._think(worker, self.sim.now + self.rng.expovariate(
            1.0 / self.think_time))
