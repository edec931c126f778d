"""Time-series metric recording.

The resilience assessment (:mod:`repro.core.resilience`) is computed from
metric traces: per-requirement satisfaction signals, latency samples,
availability indicators.  This module provides the shared recorder.

Two series shapes are supported:

* *sample series* -- discrete observations ``(t, value)``; summarized with
  count/mean/percentiles.
* *level series* -- a piecewise-constant signal (e.g. "device up" 0/1);
  summarized with time-weighted means over arbitrary windows, which is
  exactly what availability computations need.
"""

from __future__ import annotations

import bisect
import math
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class TimeSeries:
    """An append-only series of ``(time, value)`` observations.

    Appends must be in non-decreasing time order (the simulator clock only
    moves forward); this is enforced because out-of-order data would
    silently corrupt the window statistics.
    """

    def __init__(self, name: str, kind: str = "sample") -> None:
        if kind not in ("sample", "level"):
            raise ValueError(f"unknown series kind {kind!r}")
        self.name = name
        self.kind = kind
        self.times: List[float] = []
        self.values: List[float] = []

    def append(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"series {self.name!r}: time {time} precedes last {self.times[-1]}"
            )
        self.times.append(float(time))
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterable[Tuple[float, float]]:
        return iter(zip(self.times, self.values))

    # -- sample statistics ---------------------------------------------- #
    def window(self, start: float, end: float) -> List[Tuple[float, float]]:
        """Observations with ``start <= t < end``."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        return list(zip(self.times[lo:hi], self.values[lo:hi]))

    def mean(self, start: float = -math.inf, end: float = math.inf) -> Optional[float]:
        samples = [v for _, v in self.window(start, end)]
        if not samples:
            return None
        return sum(samples) / len(samples)

    def percentile(
        self, q: float, start: float = -math.inf, end: float = math.inf
    ) -> Optional[float]:
        """Nearest-rank percentile ``q`` in [0, 100] over a window."""
        samples = sorted(v for _, v in self.window(start, end))
        if not samples:
            return None
        if not 0 <= q <= 100:
            raise ValueError(f"percentile q={q} out of [0, 100]")
        rank = max(0, min(len(samples) - 1, math.ceil(q / 100.0 * len(samples)) - 1))
        return samples[rank]

    def maximum(self, start: float = -math.inf, end: float = math.inf) -> Optional[float]:
        samples = [v for _, v in self.window(start, end)]
        return max(samples) if samples else None

    def minimum(self, start: float = -math.inf, end: float = math.inf) -> Optional[float]:
        samples = [v for _, v in self.window(start, end)]
        return min(samples) if samples else None

    # -- level statistics ------------------------------------------------ #
    def value_at(self, time: float) -> Optional[float]:
        """For level series: the value holding at ``time`` (last append <= t)."""
        idx = bisect.bisect_right(self.times, time) - 1
        if idx < 0:
            return None
        return self.values[idx]

    def time_weighted_mean(self, start: float, end: float) -> Optional[float]:
        """Time-weighted mean of a level series over ``[start, end)``.

        Returns None if the signal has no defined value anywhere in the
        window (i.e. the first observation is after ``end``).
        """
        if self.kind != "level":
            raise ValueError(f"series {self.name!r} is not a level series")
        if end <= start:
            return None
        if not self.times or self.times[0] >= end:
            return None
        effective_start = max(start, self.times[0])
        total = 0.0
        t = effective_start
        value = self.value_at(effective_start)
        idx = bisect.bisect_right(self.times, effective_start)
        while idx < len(self.times) and self.times[idx] < end:
            total += (self.times[idx] - t) * float(value)
            t = self.times[idx]
            value = self.values[idx]
            idx += 1
        total += (end - t) * float(value)
        return total / (end - effective_start)


class MetricsRecorder:
    """A namespace of :class:`TimeSeries`, keyed by metric name.

    The recorder does not depend on the simulator; callers pass the current
    time explicitly so the module stays trivially testable.
    """

    def __init__(self) -> None:
        self._series: Dict[str, TimeSeries] = {}
        self._counters: Dict[str, float] = {}
        # Optional OverheadMeter (repro.observability.overhead): when
        # attached, record/set_level account their own wall-clock cost.
        # One ``is None`` check per call when detached.
        self.meter: Optional[Any] = None

    # -- series --------------------------------------------------------- #
    def series(self, name: str, kind: Optional[str] = None) -> TimeSeries:
        """Get or create the series ``name``.

        ``kind`` is only consulted when creating (defaulting to "sample")
        or when explicitly passed on reuse, in which case it must match.
        """
        existing = self._series.get(name)
        if existing is not None:
            if kind is not None and existing.kind != kind:
                raise ValueError(
                    f"series {name!r} exists with kind {existing.kind!r}, requested {kind!r}"
                )
            return existing
        created = TimeSeries(name, kind=kind or "sample")
        self._series[name] = created
        return created

    def record(self, name: str, time: float, value: float) -> None:
        """Append a sample observation."""
        meter = self.meter
        if meter is None:
            self.series(name, kind="sample").append(time, value)
            return
        started = perf_counter()
        self.series(name, kind="sample").append(time, value)
        meter.metrics_count += 1
        meter.metrics_wall_s += perf_counter() - started

    def set_level(self, name: str, time: float, value: float) -> None:
        """Append a level change (piecewise-constant signal)."""
        meter = self.meter
        if meter is None:
            self.series(name, kind="level").append(time, value)
            return
        started = perf_counter()
        self.series(name, kind="level").append(time, value)
        meter.metrics_count += 1
        meter.metrics_wall_s += perf_counter() - started

    def has_series(self, name: str) -> bool:
        return name in self._series

    @property
    def series_names(self) -> List[str]:
        return sorted(self._series)

    # -- counters --------------------------------------------------------#
    def increment(self, name: str, amount: float = 1.0) -> None:
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def counter_adder(self, name: str) -> Callable[[float], None]:
        """A bound fast-path incrementer for hot loops.

        The returned callable closes over the counter dict and key, so a
        per-event increment skips the attribute lookup and method call of
        :meth:`increment`.  Semantically identical to it (same counter,
        digest-visible the same way): the counter comes into being on the
        first add, so an adder that is never called leaves no key behind.
        """
        counters = self._counters

        def add(amount: float = 1.0) -> None:
            counters[name] = counters.get(name, 0.0) + amount

        return add

    def total_points(self) -> int:
        """Observations retained across every series (telemetry budget)."""
        return sum(len(series) for series in self._series.values())

    @property
    def counter_names(self) -> List[str]:
        return sorted(self._counters)

    # -- bulk helpers ------------------------------------------------------ #
    def summary(
        self,
        names: Optional[Sequence[str]] = None,
        include_counters: bool = True,
    ) -> Dict[str, Dict[str, float]]:
        """Per-metric summary for reporting.

        Series entries carry ``{count, mean, min, p50, p95, p99, max}`` so
        KPI and bench reports never recompute percentiles by hand;
        counters (which historically were silently dropped) appear as
        ``{"counter": value}`` entries.  Pass ``include_counters=False``
        for the series-only view.  ``names``, when given, filters both
        series and counters.
        """
        out: Dict[str, Dict[str, float]] = {}
        for name in names if names is not None else self.series_names:
            series = self._series.get(name)
            if series is None or len(series) == 0:
                continue
            entry: Dict[str, float] = {"count": float(len(series))}
            for key, value in (
                ("mean", series.mean()),
                ("min", series.minimum()),
                ("p50", series.percentile(50)),
                ("p95", series.percentile(95)),
                ("p99", series.percentile(99)),
                ("max", series.maximum()),
            ):
                if value is not None:
                    entry[key] = value
            out[name] = entry
        if include_counters:
            for name in names if names is not None else self.counter_names:
                if name in self._counters and name not in out:
                    out[name] = {"counter": self._counters[name]}
        return out

    def snapshot(self, names: Optional[Sequence[str]] = None) -> Dict[str, Dict]:
        """Series summaries and counters in one exportable dict."""
        return {
            "series": self.summary(names, include_counters=False),
            "counters": {
                name: self._counters[name]
                for name in (names if names is not None else self.counter_names)
                if name in self._counters
            },
        }
