"""The resilience metric.

Operationalizes the paper's definition -- "persistence of reliable
requirements satisfaction when facing change" -- as follows (DESIGN.md §4):

For each requirement r, satisfaction s_r(w) is evaluated over consecutive
windows of the run.  Given the disruption intervals D (from the fault
schedule or the trace), we report per requirement:

* ``baseline``    -- mean satisfaction over windows outside D;
* ``under_disruption`` -- mean satisfaction over windows inside D (the
  *persistence* term: 1.0 means disruption never dented the requirement);
* ``recovery_time`` -- for each disruption interval, how long after its
  *end* satisfaction first returned to >= ``recovered_threshold`` (0 if it
  never dropped).

The system's **resilience score** is the weighted mean over requirements
of ``under_disruption`` -- bounded [0,1], 1.0 = fully resilient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.requirements import EvaluationContext, Requirement
from repro.faults.schedule import merge_windows


@dataclass
class RequirementAssessment:
    """Per-requirement outcome of a resilience analysis."""

    name: str
    weight: float
    baseline: Optional[float]
    under_disruption: Optional[float]
    recovery_times: List[float] = field(default_factory=list)
    samples: List[Tuple[float, Optional[float]]] = field(default_factory=list)

    @property
    def overall(self) -> Optional[float]:
        """Mean satisfaction over the whole horizon (both regimes)."""
        values = [v for _, v in self.samples if v is not None]
        if not values:
            return None
        return sum(values) / len(values)

    @property
    def mean_recovery_time(self) -> Optional[float]:
        finite = [t for t in self.recovery_times if not math.isinf(t)]
        if not finite:
            return None
        return sum(finite) / len(finite)

    @property
    def unrecovered(self) -> int:
        return sum(1 for t in self.recovery_times if math.isinf(t))


@dataclass
class ResilienceReport:
    """Aggregate outcome for one system/run."""

    label: str
    horizon: float
    disruption_windows: List[Tuple[float, float]]
    assessments: List[RequirementAssessment]

    @property
    def resilience_score(self) -> float:
        """Weighted mean under-disruption satisfaction in [0, 1]."""
        weighted, total = 0.0, 0.0
        for assessment in self.assessments:
            if assessment.under_disruption is None:
                continue
            weighted += assessment.weight * assessment.under_disruption
            total += assessment.weight
        return weighted / total if total else 0.0

    @property
    def overall_score(self) -> float:
        """Weighted mean satisfaction over the whole horizon.

        Unlike :attr:`resilience_score` (which conditions on disruption
        windows and is therefore not comparable across different
        disruption *amounts*), this is the right y-axis when sweeping
        disruption intensity.
        """
        weighted, total = 0.0, 0.0
        for assessment in self.assessments:
            if assessment.overall is None:
                continue
            weighted += assessment.weight * assessment.overall
            total += assessment.weight
        return weighted / total if total else 0.0

    def assessment(self, name: str) -> RequirementAssessment:
        for candidate in self.assessments:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no assessment {name!r}")


class ResilienceAnalyzer:
    """Computes a :class:`ResilienceReport` from a completed run."""

    def __init__(
        self,
        requirements: Sequence[Requirement],
        window: float = 1.0,
        recovered_threshold: float = 0.95,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.requirements = list(requirements)
        self.window = window
        self.recovered_threshold = recovered_threshold

    def analyze(
        self,
        ctx: EvaluationContext,
        horizon: float,
        disruption_windows: Sequence[Tuple[float, float]],
        label: str = "system",
    ) -> ResilienceReport:
        windows = merge_windows(list(disruption_windows))
        assessments = [
            self._assess(requirement, ctx, horizon, windows)
            for requirement in self.requirements
        ]
        return ResilienceReport(
            label=label, horizon=horizon,
            disruption_windows=windows, assessments=assessments,
        )

    # -- per-requirement ---------------------------------------------------------#
    def _assess(
        self,
        requirement: Requirement,
        ctx: EvaluationContext,
        horizon: float,
        disruptions: List[Tuple[float, float]],
    ) -> RequirementAssessment:
        samples: List[Tuple[float, Optional[float]]] = []
        t = 0.0
        while t < horizon:
            end = min(t + self.window, horizon)
            satisfaction = requirement.satisfaction(ctx, t, end)
            samples.append((t, satisfaction))
            t = end
        inside: List[float] = []
        outside: List[float] = []
        for t, value in samples:
            if value is None:
                continue
            mid = t + self.window / 2
            if any(start <= mid < end for start, end in disruptions):
                inside.append(value)
            else:
                outside.append(value)
        recovery_times = [
            self._recovery_time(samples, end, horizon)
            for _start, end in disruptions
            if end < horizon
        ]
        return RequirementAssessment(
            name=requirement.name,
            weight=requirement.weight,
            baseline=sum(outside) / len(outside) if outside else None,
            under_disruption=sum(inside) / len(inside) if inside else None,
            recovery_times=recovery_times,
            samples=samples,
        )

    def _recovery_time(
        self,
        samples: List[Tuple[float, Optional[float]]],
        disruption_end: float,
        horizon: float,
    ) -> float:
        """Time after ``disruption_end`` until satisfaction recovers.

        If the requirement was already satisfied at the disruption's end,
        recovery is 0; if it never re-reaches the threshold before the
        horizon, recovery is inf (counted as ``unrecovered``).
        """
        for t, value in samples:
            if t + self.window <= disruption_end or value is None:
                continue
            if value >= self.recovered_threshold:
                return max(0.0, t - disruption_end)
        return math.inf
