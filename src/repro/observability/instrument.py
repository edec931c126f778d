"""Kernel instrumentation: a profiler for the DES hot path.

An :class:`Instrument` attached to a :class:`~repro.simulation.kernel.Simulator`
records, per fired event, the *wall-clock* time its callback took, keyed by
the event's label.  Aggregation happens inline (a dict update per event),
so million-event runs profile in O(labels) memory; the kernel pays a single
``is None`` check per event when no instrument is attached.

Labels group naturally by subsystem because the codebase already labels
its events (``mape:edge0``, ``gossip:n3``, ``deliver:raft.append_entries``);
:meth:`Instrument.report` additionally rolls labels up by their prefix
before ``:`` so a profile reads as a per-subsystem cost table, and
:mod:`repro.observability.profile` classifies the same labels into
architectural planes (transport, coordination, mape, traffic, ...).

Distribution tracking is deliberately coarse: each label keeps a
32-bucket power-of-two histogram of event cost in microseconds, so the
hot path pays one ``bit_length`` and one list increment per event and
p50/p99 still land within a factor of ~1.4 of the truth -- plenty to
tell a 3us timer tick from a 300us MAPE iteration.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Optional

#: Power-of-two microsecond buckets: bucket ``i`` holds events costing
#: [2^(i-1), 2^i) us; bucket 0 holds sub-microsecond events.  31 buckets
#: reach ~18 minutes per event -- beyond anything a callback should do.
_N_BUCKETS = 32


class LabelStats:
    """Aggregate wall-clock cost of events sharing one label."""

    __slots__ = ("count", "total_s", "max_s", "queue_s", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0
        # Simulated seconds events of this label waited in the kernel
        # queue between scheduling and firing (scheduling latency).
        self.queue_s = 0.0
        self.buckets: List[int] = [0] * _N_BUCKETS

    @property
    def mean_us(self) -> float:
        return (self.total_s / self.count) * 1e6 if self.count else 0.0

    def quantile_us(self, q: float) -> float:
        """Approximate q-quantile of per-event cost in microseconds.

        Resolved to the geometric midpoint of the power-of-two bucket the
        rank falls in, so the estimate is within sqrt(2) of the true
        value -- the resolution a subsystem cost ranking needs, at O(1)
        record cost.
        """
        if not self.count:
            return 0.0
        rank = max(1, int(q * self.count + 0.999999))
        seen = 0
        for index, bucket in enumerate(self.buckets):
            seen += bucket
            if seen >= rank:
                if index == 0:
                    return 0.5
                return 2.0 ** (index - 0.5)
        return self.max_s * 1e6  # pragma: no cover - rank <= count

    @property
    def p50_us(self) -> float:
        return self.quantile_us(0.50)

    @property
    def p99_us(self) -> float:
        return self.quantile_us(0.99)

    def merge(self, other: "LabelStats") -> None:
        """Fold ``other`` into this aggregate (subsystem rollups)."""
        self.count += other.count
        self.total_s += other.total_s
        self.queue_s += other.queue_s
        if other.max_s > self.max_s:
            self.max_s = other.max_s
        for index, bucket in enumerate(other.buckets):
            if bucket:
                self.buckets[index] += bucket

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total_ms": self.total_s * 1e3,
            "mean_us": self.mean_us,
            "p50_us": self.p50_us,
            "p99_us": self.p99_us,
            "max_us": self.max_s * 1e6,
            "queue_s": self.queue_s,
        }


class Instrument:
    """Per-event kernel profile: execution time, counts, queue depth.

    ``enabled`` can be flipped at runtime to bracket a region of interest;
    a disabled instrument costs the kernel one extra attribute check per
    event.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.events = 0
        self.total_busy_s = 0.0
        self.max_queue_depth = 0
        self._labels: Dict[str, LabelStats] = {}
        self._queue_depth_sum = 0
        self.first_event_time: Optional[float] = None
        self.last_event_time: Optional[float] = None
        # Optional OverheadMeter (repro.observability.overhead): accounts
        # the profiler's own cost when attached.
        self.meter: Optional[Any] = None

    # -- hot-path hook (called by Simulator.step) -------------------------- #
    def record(self, label: str, wall_seconds: float, queue_depth: int,
               sim_time: float, queue_lag_s: float = 0.0) -> None:
        meter = self.meter
        started = perf_counter() if meter is not None else 0.0
        self.events += 1
        self.total_busy_s += wall_seconds
        self._queue_depth_sum += queue_depth
        if queue_depth > self.max_queue_depth:
            self.max_queue_depth = queue_depth
        stats = self._labels.get(label)
        if stats is None:
            stats = self._labels[label] = LabelStats()
        # The label's aggregate, updated here rather than by a LabelStats
        # method: this runs once per fired event.
        stats.count += 1
        stats.total_s += wall_seconds
        stats.queue_s += queue_lag_s
        if wall_seconds > stats.max_s:
            stats.max_s = wall_seconds
        index = int(wall_seconds * 1e6).bit_length()
        stats.buckets[index if index < _N_BUCKETS else _N_BUCKETS - 1] += 1
        if self.first_event_time is None:
            self.first_event_time = sim_time
        self.last_event_time = sim_time
        if meter is not None:
            meter.instrument_count += 1
            meter.instrument_wall_s += perf_counter() - started

    # -- reporting --------------------------------------------------------- #
    @property
    def mean_queue_depth(self) -> float:
        return self._queue_depth_sum / self.events if self.events else 0.0

    @property
    def labels(self) -> Dict[str, LabelStats]:
        return dict(self._labels)

    def by_subsystem(self) -> Dict[str, LabelStats]:
        """Roll label stats up by their ``prefix:`` subsystem key."""
        rolled: Dict[str, LabelStats] = {}
        for label, stats in self._labels.items():
            key = label.split(":", 1)[0] if label else "(unlabeled)"
            agg = rolled.get(key)
            if agg is None:
                agg = rolled[key] = LabelStats()
            agg.merge(stats)
        return rolled

    def report(self, top: int = 20) -> Dict[str, Any]:
        """A JSON-ready profile: totals, queue stats, hottest subsystems."""
        subsystems = sorted(
            self.by_subsystem().items(),
            key=lambda item: item[1].total_s,
            reverse=True,
        )
        hottest_labels = sorted(
            self._labels.items(), key=lambda item: item[1].total_s, reverse=True
        )[:top]
        return {
            "events": self.events,
            "busy_ms": self.total_busy_s * 1e3,
            "mean_event_us": (self.total_busy_s / self.events) * 1e6 if self.events else 0.0,
            "mean_queue_depth": self.mean_queue_depth,
            "max_queue_depth": self.max_queue_depth,
            "sim_time_span": (
                (self.last_event_time - self.first_event_time)
                if self.first_event_time is not None and self.last_event_time is not None
                else 0.0
            ),
            "subsystems": {name: stats.to_dict() for name, stats in subsystems},
            "hottest_labels": {label: stats.to_dict() for label, stats in hottest_labels},
        }
