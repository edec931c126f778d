"""The discrete-event simulation kernel.

The kernel is a deterministic event loop over a priority queue keyed by
``(time, priority, sequence)``.  Two events scheduled for the same instant
are executed in a stable, reproducible order: first by explicit priority,
then by insertion sequence.  This determinism is what makes every
experiment in EXPERIMENTS.md reproducible bit-for-bit from its seed.

Design notes
------------
* Time is a ``float`` of simulated seconds starting at ``0.0``.  Nothing in
  the kernel reads the wall clock.
* Callbacks receive the :class:`Simulator` so they can schedule follow-up
  work.
* Cancellation is lazy: cancelled events stay in the heap but are skipped
  when popped, which keeps :meth:`Simulator.cancel` O(1).
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.observability.instrument import Instrument


class SimulationError(RuntimeError):
    """Raised for misuse of the kernel (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Instances are returned from :meth:`Simulator.schedule` and can be used
    as handles for cancellation.  An event is *pending* until it either
    fires or is cancelled.
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled", "fired",
                 "label", "created")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[["Simulator"], None],
        label: str = "",
        created: float = 0.0,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.fired = False
        self.label = label
        # Simulated time the event was scheduled; time - created is its
        # queue lag.  Telemetry-only: not serialized in pending_events(),
        # so checkpoints and digests are unaffected.
        self.created = created

    @property
    def pending(self) -> bool:
        """True while the event has neither fired nor been cancelled."""
        return not (self.cancelled or self.fired)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"Event(t={self.time:.6f}, prio={self.priority}, {state}, {self.label!r})"


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the simulated clock.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, lambda s: fired.append(s.now))
    >>> sim.run()
    >>> fired
    [5.0]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._next_seq = 0
        self._running = False
        self._stopped = False
        self._pending = 0
        self._fired = 0
        # Optional kernel profiler (repro.observability.Instrument).  The
        # hot path pays one attribute check per event when detached.
        self.instrument: Optional["Instrument"] = None
        # Optional post-fire observer (repro.persistence.RunRecorder): called
        # with each Event after its callback returns, so journals see the
        # post-event state.  One attribute check per event when detached.
        self.on_event: Optional[Callable[[Event], None]] = None
        # Arbitrary shared context: subsystems register themselves here so
        # that loosely coupled components (e.g. fault injector and device
        # fleet) can find each other without import cycles.
        self.context: Dict[str, Any] = {}
        # Driver-level barrier actions keyed by fired-event count (see
        # at_fired()).  Deliberately not part of snapshot_state(): hooks
        # belong to the driver, not to the simulated system.
        self._fired_hooks: Dict[int, List[Callable[["Simulator"], None]]] = {}

    # ------------------------------------------------------------------ #
    # Clock and scheduling
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(
        self,
        delay: float,
        callback: Callable[["Simulator"], None],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative.  Lower ``priority`` values run
        first among events scheduled for the same instant.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, priority=priority, label=label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[["Simulator"], None],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        event = Event(time, priority, self._next_seq, callback, label=label,
                      created=self._now)
        self._next_seq += 1
        heappush(self._heap, (time, priority, event.seq, event))
        self._pending += 1
        return event

    def cancel(self, event: Event) -> bool:
        """Cancel a pending event.  Returns True if it was still pending."""
        if event.pending:
            event.cancelled = True
            self._pending -= 1
            return True
        return False

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def step(self) -> bool:
        """Execute the next pending event.  Returns False if none remain."""
        heap = self._heap
        while heap:
            event = heappop(heap)[3]
            if not event.cancelled:
                self._fire(event)
                return True
        return False

    def _fire(self, event: Event) -> None:
        """Execute one popped, live event: the only copy of the fire sequence.

        ``instrument``, ``on_event`` and ``_fired_hooks`` are read here, per
        event, and not once when :meth:`run` starts: observability, the
        flight recorder and barrier hooks all attach from callbacks mid-run.
        """
        self._now = event.time
        event.fired = True
        self._pending -= 1
        self._fired += 1
        instrument = self.instrument
        if instrument is not None and instrument.enabled:
            started = perf_counter()
            event.callback(self)
            instrument.record(event.label, perf_counter() - started,
                              self._pending, self._now,
                              self._now - event.created)
        else:
            event.callback(self)
        observer = self.on_event
        if observer is not None:
            observer(event)
        if self._fired_hooks:
            hooks = self._fired_hooks.pop(self._fired, None)
            if hooks is not None:
                for hook in hooks:
                    hook(self)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the event queue drains or ``until`` is reached.

        If ``until`` is given, the clock is advanced to exactly ``until``
        even when the queue drains earlier, so that metric windows closed
        at the end of a run cover the whole horizon.

        The loop peeks and pops the heap itself, so an event costs one
        :meth:`_fire` call; it fires exactly what a ``next_event_time()`` +
        :meth:`step` loop would, in the same order.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        heap = self._heap
        fire = self._fire
        try:
            while heap and not self._stopped:
                head = heap[0]
                event = head[3]
                if event.cancelled:
                    heappop(heap)
                    continue
                if until is not None and head[0] > until:
                    break
                heappop(heap)
                fire(event)
            if until is not None and self._now < until and not self._stopped:
                self._now = until
        finally:
            self._running = False

    def stop(self) -> None:
        """Stop the current :meth:`run` after the executing event returns."""
        self._stopped = True

    def next_event_time(self) -> Optional[float]:
        """Absolute time of the next pending event, or None when drained.

        Public peek for drivers that own their loop (the live real-time
        executor paces the kernel against the wall clock by looking at
        the next event's timestamp before stepping).
        """
        return self._peek_time()

    def at_fired(self, index: int,
                 callback: Callable[["Simulator"], None]) -> None:
        """Run ``callback`` at the fired-count barrier ``index``.

        The callback fires at a deterministic point in the event
        sequence: after event ``index``'s own callback and the
        ``on_event`` observer, before event ``index + 1`` pops.  If the
        barrier is the current fired count, the callback runs
        immediately (the driver is already between events).

        This is how live hot-loads stay replayable: the running service
        applies a reconfiguration between events at fired count N, and a
        rebuilt run (resume or replay) registers the same payload at the
        same barrier, so every kernel sequence number assigned by the
        load matches the original run's.  Hooks are driver state --
        never checkpointed, never digested.
        """
        index = int(index)
        if index < self._fired:
            raise SimulationError(
                f"barrier {index} is in the past (fired={self._fired})")
        if index == self._fired:
            callback(self)
            return
        self._fired_hooks.setdefault(index, []).append(callback)

    def _peek_time(self) -> Optional[float]:
        while self._heap:
            time, _, _, event = self._heap[0]
            if event.cancelled:
                heappop(self._heap)
                continue
            return time
        return None

    @property
    def pending_count(self) -> int:
        """Number of not-yet-cancelled events in the queue.

        O(1): a live counter maintained on schedule/cancel/fire rather
        than a heap scan (cancellation is lazy, so the heap may hold
        already-cancelled entries).
        """
        return self._pending

    # ------------------------------------------------------------------ #
    # Persistence (repro.persistence)
    # ------------------------------------------------------------------ #
    @property
    def fired_count(self) -> int:
        """Total events executed since construction."""
        return self._fired

    def advance_to(self, time: float) -> None:
        """Move the clock forward without firing events.

        Used when restoring a checkpoint taken between events: the
        checkpoint's clock may sit past the last fired event but before
        the next pending one.  Rejects travel into the past or past the
        next pending event (which would reorder history).
        """
        if time < self._now:
            raise SimulationError(
                f"cannot advance backwards to t={time} from t={self._now}"
            )
        next_time = self._peek_time()
        if next_time is not None and time > next_time:
            raise SimulationError(
                f"cannot advance to t={time} past pending event at t={next_time}"
            )
        self._now = float(time)

    def pending_events(self) -> List[Dict[str, Any]]:
        """Metadata of pending events, in firing order.

        Lazily-cancelled events are excluded: they will never fire.
        Callbacks are deliberately not captured (closures do not
        serialize); this is an observation seam for the message-path
        oracles, nothing restores from it.
        """
        out = []
        for time, priority, seq, event in sorted(self._heap, key=lambda e: e[:3]):
            if not event.cancelled:
                out.append({"t": time, "priority": priority, "seq": seq,
                            "label": event.label})
        return out
