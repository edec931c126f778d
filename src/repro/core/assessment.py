"""Report rendering: comparison tables for experiments.

Turns :class:`~repro.core.resilience.ResilienceReport` objects into the
plain-text tables EXPERIMENTS.md records -- one row per requirement, one
column per system under comparison, plus the aggregate resilience score.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.core.resilience import ResilienceReport


def _fmt(value: Optional[float], width: int = 8) -> str:
    if value is None:
        return "-".rjust(width)
    if math.isinf(value):
        return "inf".rjust(width)
    return f"{value:.3f}".rjust(width)


def comparison_table(reports: Sequence[ResilienceReport],
                     metric: str = "under_disruption") -> str:
    """Requirements x systems table of the chosen per-requirement metric.

    ``metric`` is one of ``"under_disruption"``, ``"baseline"``,
    ``"mean_recovery_time"``.
    """
    if not reports:
        return "(no reports)"
    names = [a.name for a in reports[0].assessments]
    label_width = max(len(n) for n in names + ["resilience score"]) + 2
    header = "".ljust(label_width) + "".join(r.label.rjust(10) for r in reports)
    lines = [header, "-" * len(header)]
    for name in names:
        row = name.ljust(label_width)
        for report in reports:
            assessment = report.assessment(name)
            value = getattr(assessment, metric)
            row += _fmt(value, 10)
        lines.append(row)
    lines.append("-" * len(header))
    score_row = "resilience score".ljust(label_width)
    for report in reports:
        score_row += _fmt(report.resilience_score, 10)
    lines.append(score_row)
    return "\n".join(lines)


def recovery_table(reports: Sequence[ResilienceReport]) -> str:
    """Mean recovery time (s) per requirement per system."""
    return comparison_table(reports, metric="mean_recovery_time")
