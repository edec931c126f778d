"""Disruption schedules: deterministic and stochastic.

Experiments need two styles of disruption:

* :class:`DisruptionSchedule` -- an explicit, scripted list of
  ``(time, fault)`` pairs, identical across the architectures being
  compared (the maturity-level comparison relies on this).
* :class:`RandomDisruptionGenerator` -- a seeded stochastic process
  (exponential inter-arrivals over a configurable fault mix), for
  experiments that sweep disruption *intensity*.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.injector import FaultInjector
from repro.faults.models import (
    CrashRecoveryFault,
    Fault,
    LatencySpikeFault,
    PartitionFault,
    ServiceFailureFault,
)


@dataclass(frozen=True)
class ScheduledFault:
    time: float
    fault: Fault


class DisruptionSchedule:
    """An explicit, reproducible disruption script."""

    def __init__(self) -> None:
        self._entries: List[ScheduledFault] = []

    def add(self, time: float, fault: Fault) -> "DisruptionSchedule":
        if time < 0:
            raise ValueError("fault time must be non-negative")
        self._entries.append(ScheduledFault(time, fault))
        return self

    @property
    def entries(self) -> List[ScheduledFault]:
        return sorted(self._entries, key=lambda e: e.time)

    def __len__(self) -> int:
        return len(self._entries)

    def install(self, injector: FaultInjector) -> None:
        """Register every scheduled fault with the injector."""
        for entry in self.entries:
            injector.inject_at(entry.time, entry.fault)

    def disruption_windows(self, horizon: float) -> List[Tuple[float, float]]:
        """The (start, end) windows during which scheduled faults are active.

        Permanent faults extend to the horizon.  Overlapping windows are
        merged; the result feeds the resilience metric's "during
        disruption" restriction.
        """
        raw = []
        for entry in self.entries:
            end = entry.time + entry.fault.duration if entry.fault.transient else horizon
            raw.append((entry.time, min(end, horizon)))
        return merge_windows(raw)


def merge_windows(windows: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Merge overlapping/adjacent (start, end) intervals."""
    out: List[Tuple[float, float]] = []
    for start, end in sorted(w for w in windows if w[1] > w[0]):
        if out and start <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], end))
        else:
            out.append((start, end))
    return out


class RandomDisruptionGenerator:
    """Seeded stochastic disruption with exponential inter-arrival times.

    Parameters
    ----------
    rate:
        Expected faults per simulated second.
    fault_mix:
        Mapping from fault-kind name to relative weight.  Supported kinds:
        ``"crash"``, ``"service"``, ``"latency"``, ``"partition"``.
    mean_duration:
        Mean transient-fault duration (exponential).
    """

    KINDS = ("crash", "service", "latency", "partition")

    def __init__(
        self,
        rng: random.Random,
        rate: float,
        mean_duration: float = 20.0,
        fault_mix: Optional[Dict[str, float]] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if mean_duration <= 0:
            raise ValueError("mean_duration must be positive")
        self.rng = rng
        self.rate = rate
        self.mean_duration = mean_duration
        mix = fault_mix or {"crash": 0.4, "service": 0.3, "latency": 0.2, "partition": 0.1}
        unknown = set(mix) - set(self.KINDS)
        if unknown:
            raise ValueError(f"unknown fault kinds {sorted(unknown)}")
        self._kinds = sorted(mix)
        self._weights = [mix[k] for k in self._kinds]

    def generate(
        self,
        horizon: float,
        crash_targets: Sequence[str],
        service_targets: Sequence[Tuple[str, str]] = (),
        link_targets: Sequence[Tuple[str, str]] = (),
        partition_targets: Sequence[str] = (),
    ) -> DisruptionSchedule:
        """Draw a schedule over ``[0, horizon)`` against the given targets.

        Target kinds with no candidates are silently skipped (redrawn), so
        callers can pass only what their topology has.
        """
        schedule = DisruptionSchedule()
        t = 0.0
        counter = 0
        while True:
            t += self.rng.expovariate(self.rate)
            if t >= horizon:
                break
            fault = self._draw_fault(
                counter, crash_targets, service_targets, link_targets, partition_targets
            )
            if fault is not None:
                schedule.add(t, fault)
                counter += 1
        return schedule

    def _draw_fault(
        self,
        counter: int,
        crash_targets: Sequence[str],
        service_targets: Sequence[Tuple[str, str]],
        link_targets: Sequence[Tuple[str, str]],
        partition_targets: Sequence[str],
    ) -> Optional[Fault]:
        duration = self.rng.expovariate(1.0 / self.mean_duration)
        kind = self.rng.choices(self._kinds, weights=self._weights)[0]
        if kind == "crash" and crash_targets:
            target = self.rng.choice(list(crash_targets))
            return CrashRecoveryFault(
                name=f"crash#{counter}:{target}", duration=duration, device_id=target
            )
        if kind == "service" and service_targets:
            device, service = self.rng.choice(list(service_targets))
            return ServiceFailureFault(
                name=f"svc#{counter}:{service}", duration=duration,
                device_id=device, service_name=service,
            )
        if kind == "latency" and link_targets:
            a, b = self.rng.choice(list(link_targets))
            return LatencySpikeFault(
                name=f"lat#{counter}:{a}-{b}", duration=duration,
                node_a=a, node_b=b, factor=self.rng.uniform(5.0, 20.0),
            )
        if kind == "partition" and partition_targets:
            node = self.rng.choice(list(partition_targets))
            return PartitionFault(
                name=f"part#{counter}:{node}", duration=duration, isolate_node=node
            )
        return None
