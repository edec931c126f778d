"""Data-quality monitoring: freshness.

Fig. 4 highlights timeliness and availability of inter-IoT data exchange.
This module measures their operational proxy on top of the metrics
recorder: **freshness**, the age of the newest locally-available value of
a key, sampled on read.  It feeds
:class:`~repro.core.requirements.FreshnessRequirement`, closing the loop
from §VI's prose to measurable satisfaction.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.simulation.metrics import MetricsRecorder


class DataQualityMonitor:
    """Records and reads data freshness, per key."""

    def __init__(self, metrics: MetricsRecorder) -> None:
        self.metrics = metrics
        self._last_update: Dict[str, float] = {}

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
