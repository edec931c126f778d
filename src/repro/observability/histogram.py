"""Memory-bounded streaming histograms.

Latency distributions over million-event runs cannot keep every sample;
a :class:`StreamingHistogram` keeps a *fixed* set of bucket counters
instead, so memory is O(buckets) regardless of how many observations are
folded in.  Histograms with identical bounds merge by counter addition,
which makes them safe to aggregate across shards/sites/runs -- the same
property Prometheus histograms rely on, and the exporters here emit them
in exactly that cumulative-``le`` form.

Quantiles are estimated by linear interpolation inside the bucket that
contains the target rank; exact ``min``/``max``/``sum`` are tracked on
the side so headline numbers stay sample-accurate even though the
distribution body is bucketed.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional, Sequence


def log_bounds(
    low: float = 1e-4, high: float = 1e3, per_decade: int = 4
) -> List[float]:
    """Log-spaced bucket upper bounds covering ``[low, high]``.

    The defaults span 100 microseconds to ~17 minutes of simulated time
    with four buckets per decade -- wide enough for message latencies and
    repair times alike at ~28 counters.
    """
    if low <= 0 or high <= low:
        raise ValueError(f"need 0 < low < high, got low={low} high={high}")
    if per_decade < 1:
        raise ValueError("per_decade must be >= 1")
    n = int(math.ceil(math.log10(high / low) * per_decade))
    return [low * 10 ** (i / per_decade) for i in range(n + 1)]


class StreamingHistogram:
    """Fixed-bucket histogram: O(log buckets) observe, O(buckets) memory.

    ``bounds`` are the inclusive upper edges of the finite buckets, in
    strictly increasing order; values above the last bound land in an
    implicit overflow bucket (counted, and bounded above by ``max``).
    """

    __slots__ = ("bounds", "counts", "overflow", "count", "total", "_min", "_max")

    def __init__(self, bounds: Optional[Sequence[float]] = None) -> None:
        edges = list(bounds) if bounds is not None else log_bounds()
        if not edges:
            raise ValueError("histogram needs at least one bucket bound")
        if any(nxt <= prev for prev, nxt in zip(edges, edges[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds: List[float] = edges
        self.counts: List[int] = [0] * len(edges)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- accumulation ---------------------------------------------------- #
    def observe(self, value: float, weight: int = 1) -> None:
        """Fold one observation (``weight`` identical observations) in."""
        if weight <= 0:
            raise ValueError("weight must be positive")
        value = float(value)
        idx = bisect.bisect_left(self.bounds, value)
        if idx < len(self.bounds):
            self.counts[idx] += weight
        else:
            self.overflow += weight
        self.count += weight
        self.total += value * weight
        # min()/max() written out: the same winner (a NaN never replaces
        # a bound, ties keep the incumbent) without two builtin calls.
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def merge(self, other: "StreamingHistogram") -> "StreamingHistogram":
        """Fold ``other`` into self (bounds must match); returns self."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.overflow += other.overflow
        self.count += other.count
        self.total += other.total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        return self

    # -- statistics ------------------------------------------------------ #
    @property
    def min(self) -> Optional[float]:
        return self._min if self.count else None

    @property
    def max(self) -> Optional[float]:
        return self._max if self.count else None

    @property
    def mean(self) -> Optional[float]:
        return (self.total / self.count) if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Estimated quantile ``q`` in [0, 1]; None when empty.

        Interpolates linearly within the containing bucket, clamped to
        the exact observed min/max so estimates never exceed the data.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile q={q} out of [0, 1]")
        if self.count == 0:
            return None
        target = q * self.count
        cumulative = 0.0
        for i, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            cumulative += bucket_count
            if cumulative >= target:
                upper = self.bounds[i]
                lower = self.bounds[i - 1] if i > 0 else min(self._min, upper)
                lower = max(lower, min(self._min, upper))
                # Position of the target rank inside this bucket.
                frac = 1.0 - (cumulative - target) / bucket_count
                estimate = lower + (upper - lower) * frac
                return max(self._min, min(self._max, estimate))
        return self._max  # target rank sits in the overflow bucket

    # -- export ----------------------------------------------------------- #
    def cumulative_counts(self) -> List[int]:
        """Prometheus-style cumulative counts per ``le`` bound (no +Inf)."""
        out, running = [], 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def to_dict(self) -> Dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "overflow": self.overflow,
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "StreamingHistogram":
        hist = cls(bounds=data["bounds"])  # type: ignore[arg-type]
        counts = list(data["counts"])  # type: ignore[arg-type]
        if len(counts) != len(hist.counts):
            raise ValueError("counts length does not match bounds")
        hist.counts = [int(c) for c in counts]
        hist.overflow = int(data.get("overflow", 0))
        hist.count = int(data["count"])
        hist.total = float(data["sum"])
        if data.get("min") is not None:
            hist._min = float(data["min"])  # type: ignore[arg-type]
        if data.get("max") is not None:
            hist._max = float(data["max"])  # type: ignore[arg-type]
        return hist

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"StreamingHistogram(count={self.count}, mean={self.mean}, "
                f"buckets={len(self.bounds)})")
