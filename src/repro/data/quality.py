"""Data-quality monitoring: timeliness, availability, freshness.

Fig. 4 highlights three qualities of inter-IoT data exchange.  This module
operationalizes them on top of the metrics recorder:

* **timeliness** -- fraction of observed transfers whose end-to-end delay
  met a deadline;
* **availability** -- time-weighted fraction of a window during which a
  datum (or its source) was obtainable;
* **freshness** -- age of the newest locally-available value of a key,
  sampled on read.

These feed :class:`~repro.core.requirements.FreshnessRequirement` and
friends, closing the loop from §VI's prose to measurable satisfaction.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.simulation.metrics import MetricsRecorder


class DataQualityMonitor:
    """Records and summarizes the Fig. 4 data-quality dimensions."""

    def __init__(self, metrics: MetricsRecorder) -> None:
        self.metrics = metrics
        self._last_update: Dict[str, float] = {}

    # -- timeliness ----------------------------------------------------------- #
    def timeliness(self, key: str, deadline: float) -> Optional[float]:
        """Fraction of transfers of ``key`` that met ``deadline``."""
        name = f"data.delay:{key}"
        if not self.metrics.has_series(name):
            return None
        series = self.metrics.series(name)
        delays = [v for _, v in series]
        if not delays:
            return None
        return sum(1 for d in delays if d <= deadline) / len(delays)

    # -- freshness ------------------------------------------------------------ #
    def record_update(self, key: str, produced_at: float, observed_at: float) -> None:
        """A replica received a (possibly stale) update of ``key``."""
        # Freshness baseline is production time: replication lag counts
        # against freshness even if the update just arrived.
        previous = self._last_update.get(key)
        if previous is None or produced_at > previous:
            self._last_update[key] = produced_at

    def sample_freshness(self, key: str, now: float) -> Optional[float]:
        """Age of the newest known value of ``key``; records the sample."""
        last = self._last_update.get(key)
        if last is None:
            return None
        age = max(0.0, now - last)
        self.metrics.record(f"data.freshness:{key}", now, age)
        return age

    def mean_freshness(self, key: str) -> Optional[float]:
        name = f"data.freshness:{key}"
        if not self.metrics.has_series(name):
            return None
        return self.metrics.series(name).mean()

    # -- availability --------------------------------------------------------- #
    def availability(self, key: str, start: float, end: float) -> Optional[float]:
        name = f"data.available:{key}"
        if not self.metrics.has_series(name):
            return None
        return self.metrics.series(name).time_weighted_mean(start, end)

    # -- reporting -------------------------------------------------------------- #
    def summary(self, keys: List[str], deadline: float, start: float, end: float) -> Dict[str, Dict[str, Optional[float]]]:
        """Per-key quality triple over a window."""
        out: Dict[str, Dict[str, Optional[float]]] = {}
        for key in keys:
            out[key] = {
                "timeliness": self.timeliness(key, deadline),
                "availability": self.availability(key, start, end),
                "mean_freshness": self.mean_freshness(key),
            }
        return out
