"""Stream operators.

Operators are small, single-responsibility processing stages.  Each
receives :class:`StreamTuple` values and emits zero or more downstream.
Stateful operators (windows) keep their state locally; on migration the
dataflow moves the operator object, so in-flight window contents survive
host changes (state handoff -- the interesting part of operator
mobility).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional


@dataclass(frozen=True)
class StreamTuple:
    """One datum in flight: value plus event-time and origin metadata."""

    value: Any
    event_time: float
    key: str = ""
    origin: str = ""


class Operator:
    """Base operator: ``process`` returns the tuples to emit downstream.

    ``on_epoch(now)`` is called periodically by the dataflow runtime and
    may also emit (used by time-based windows to close on silence).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.processed = 0
        self.emitted = 0

    def process(self, item: StreamTuple, now: float) -> List[StreamTuple]:
        raise NotImplementedError

    def on_epoch(self, now: float) -> List[StreamTuple]:
        return []


class SourceOperator(Operator):
    """Entry point: external feeders call :meth:`ingest`; the dataflow
    wires the returned tuples downstream."""

    def process(self, item: StreamTuple, now: float) -> List[StreamTuple]:
        self.processed += 1
        self.emitted += 1
        return [item]


class WindowAggregateOperator(Operator):
    """Tumbling event-time window with a fold-style aggregate.

    Parameters
    ----------
    window:
        Window length in seconds of event time.
    init / fold / finish:
        ``state = fold(state, value)`` per tuple starting from ``init()``;
        ``finish(state, count)`` produces the emitted aggregate when the
        window closes (on the first tuple belonging to a later window, or
        on an epoch tick past the window end).
    """

    def __init__(
        self,
        name: str,
        window: float,
        init: Callable[[], Any],
        fold: Callable[[Any, Any], Any],
        finish: Callable[[Any, int], Any],
        key_by: bool = False,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        super().__init__(name)
        self.window = window
        self.init = init
        self.fold = fold
        self.finish = finish
        self.key_by = key_by
        # key -> (window_start, state, count); un-keyed streams use "".
        self._open: Dict[str, tuple] = {}

    def _window_start(self, event_time: float) -> float:
        return (event_time // self.window) * self.window

    def process(self, item: StreamTuple, now: float) -> List[StreamTuple]:
        self.processed += 1
        key = item.key if self.key_by else ""
        start = self._window_start(item.event_time)
        out: List[StreamTuple] = []
        current = self._open.get(key)
        if current is not None and current[0] < start:
            out.append(self._close(key))
        if key not in self._open:
            self._open[key] = (start, self.init(), 0)
        window_start, state, count = self._open[key]
        self._open[key] = (window_start, self.fold(state, item.value), count + 1)
        return out

    def on_epoch(self, now: float) -> List[StreamTuple]:
        out = []
        for key, (start, _state, _count) in list(self._open.items()):
            if now >= start + self.window:
                out.append(self._close(key))
        return out

    def _close(self, key: str) -> StreamTuple:
        start, state, count = self._open.pop(key)
        self.emitted += 1
        return StreamTuple(self.finish(state, count), start + self.window,
                           key=key, origin=self.name)

    @classmethod
    def mean(cls, name: str, window: float, key_by: bool = False) -> "WindowAggregateOperator":
        """Convenience: windowed arithmetic mean."""
        return cls(
            name, window,
            init=lambda: 0.0,
            fold=lambda total, value: total + value,
            finish=lambda total, count: total / count if count else 0.0,
            key_by=key_by,
        )

    @classmethod
    def count(cls, name: str, window: float, key_by: bool = False) -> "WindowAggregateOperator":
        return cls(
            name, window,
            init=lambda: 0,
            fold=lambda total, _value: total,
            finish=lambda _total, count: count,
            key_by=key_by,
        )


class SinkOperator(Operator):
    """Terminal stage: collects results (and optionally forwards to a
    user callback)."""

    def __init__(self, name: str,
                 on_result: Optional[Callable[[StreamTuple], None]] = None) -> None:
        super().__init__(name)
        self.on_result = on_result
        self.results: List[StreamTuple] = []

    def process(self, item: StreamTuple, now: float) -> List[StreamTuple]:
        self.processed += 1
        self.results.append(item)
        if self.on_result is not None:
            self.on_result(item)
        return []
