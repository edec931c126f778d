"""Structured event traces.

A :class:`TraceLog` records what *happened* during a run as a sequence of
typed events.  Runtime monitors (:mod:`repro.modeling.runtime_monitor`)
evaluate temporal properties over these traces, and the resilience
assessment extracts disruption/recovery intervals from them -- the trace is
the "model kept alive at runtime" of the paper's Section VII, in its
simplest faithful form.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import (Any, Callable, Deque, Dict, Iterator, List, NamedTuple,
                    Optional)


class _TraceEventFields(NamedTuple):
    time: float
    category: str
    name: str
    subject: str
    attrs: Dict[str, Any]


class TraceEvent(_TraceEventFields):
    """One structured occurrence.

    Attributes
    ----------
    time:
        Simulated time of the occurrence.
    category:
        Coarse class, e.g. ``"fault"``, ``"recovery"``, ``"message"``,
        ``"adaptation"``, ``"violation"``.
    name:
        Specific event name, e.g. ``"crash"``, ``"partition-heal"``.
    subject:
        The entity the event concerns (device id, link id, ...).
    attrs:
        Free-form details.

    Immutable and tuple-backed: every emit builds one, and a tuple is
    built in a single call where a frozen dataclass sets each field
    through ``object.__setattr__``.  Construction keeps the frozen
    dataclass's signature, and an omitted ``attrs`` is a fresh dict.
    """

    __slots__ = ()

    def __new__(cls, time: float, category: str, name: str,
                subject: str = "",
                attrs: Optional[Dict[str, Any]] = None) -> "TraceEvent":
        return tuple.__new__(cls, (time, category, name, subject,
                                   {} if attrs is None else attrs))

    def matches(
        self,
        category: Optional[str] = None,
        name: Optional[str] = None,
        subject: Optional[str] = None,
    ) -> bool:
        if category is not None and self.category != category:
            return False
        if name is not None and self.name != name:
            return False
        if subject is not None and self.subject != subject:
            return False
        return True


class TraceLog:
    """Append-only event log with query helpers and live subscribers.

    With ``maxlen`` set the log becomes a ring buffer: the newest
    ``maxlen`` events are kept and older ones are dropped, so
    million-event runs hold bounded memory.  :attr:`dropped` counts the
    evicted events (and is surfaced as a counter by the observability
    exporters), so consumers can tell a truncated history from a short one.
    """

    def __init__(self, maxlen: Optional[int] = None) -> None:
        if maxlen is not None and maxlen <= 0:
            raise ValueError(f"maxlen must be positive, got {maxlen}")
        self.maxlen = maxlen
        self._events: Deque[TraceEvent] = deque(maxlen=maxlen)
        self._subscribers: List[Callable[[TraceEvent], None]] = []
        self.dropped = 0
        self.subscriber_errors = 0
        # Optional OverheadMeter (repro.observability.overhead): accounts
        # emit cost when attached; one ``is None`` check otherwise.
        self.meter: Optional[Any] = None

    def emit(
        self,
        time: float,
        category: str,
        name: str,
        subject: str = "",
        **attrs: Any,
    ) -> TraceEvent:
        """Record an event and notify live subscribers.

        Subscriber dispatch is hardened: a raising subscriber cannot
        corrupt the log (the event is already appended) nor hide the event
        from later subscribers -- every subscriber is invoked, errors are
        counted in :attr:`subscriber_errors`, and the first exception is
        re-raised after dispatch completes.
        """
        meter = self.meter
        started = perf_counter() if meter is not None else 0.0
        if self._events and time < self._events[-1].time:
            raise ValueError(
                f"trace time went backwards: {time} < {self._events[-1].time}"
            )
        event = TraceEvent(time, category, name, subject, attrs)
        if self.maxlen is not None and len(self._events) == self.maxlen:
            self.dropped += 1
        self._events.append(event)
        first_error: Optional[BaseException] = None
        for subscriber in list(self._subscribers):
            try:
                subscriber(event)
            except Exception as exc:  # noqa: BLE001 - counted and re-raised
                self.subscriber_errors += 1
                if first_error is None:
                    first_error = exc
        if meter is not None:
            meter.trace_count += 1
            meter.trace_wall_s += perf_counter() - started
        if first_error is not None:
            raise first_error
        return event

    def subscribe(self, callback: Callable[[TraceEvent], None]) -> Callable[[], None]:
        """Register a live subscriber; returns an unsubscribe function."""
        self._subscribers.append(callback)

        def unsubscribe() -> None:
            if callback in self._subscribers:
                self._subscribers.remove(callback)

        return unsubscribe

    # -- queries ---------------------------------------------------------- #
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def select(
        self,
        category: Optional[str] = None,
        name: Optional[str] = None,
        subject: Optional[str] = None,
        start: float = float("-inf"),
        end: float = float("inf"),
    ) -> List[TraceEvent]:
        """Events matching the given filters within ``start <= t < end``."""
        return [
            e
            for e in self._events
            if start <= e.time < end and e.matches(category, name, subject)
        ]

    def count(self, category: Optional[str] = None, name: Optional[str] = None) -> int:
        return len(self.select(category=category, name=name))

    def first(
        self, category: Optional[str] = None, name: Optional[str] = None
    ) -> Optional[TraceEvent]:
        for event in self._events:
            if event.matches(category, name):
                return event
        return None

    def last(
        self, category: Optional[str] = None, name: Optional[str] = None
    ) -> Optional[TraceEvent]:
        for event in reversed(self._events):
            if event.matches(category, name):
                return event
        return None

    def intervals(
        self,
        open_name: str,
        close_name: str,
        category: Optional[str] = None,
        subject: Optional[str] = None,
        horizon: Optional[float] = None,
    ) -> List[tuple]:
        """Pair open/close events into ``(start, end)`` intervals.

        Used e.g. to turn ``partition-start`` / ``partition-heal`` events
        into disruption windows.  An unclosed interval extends to
        ``horizon`` (or the last event time if horizon is None).
        """
        end_default = horizon if horizon is not None else (
            self._events[-1].time if self._events else 0.0
        )
        out = []
        open_time: Optional[float] = None
        for event in self._events:
            if not event.matches(category=category, subject=subject):
                continue
            if event.name == open_name and open_time is None:
                open_time = event.time
            elif event.name == close_name and open_time is not None:
                out.append((open_time, event.time))
                open_time = None
        if open_time is not None:
            out.append((open_time, end_default))
        return out
