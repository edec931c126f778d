"""The K in MAPE-K: the loop's runtime model of its managed subsystem.

§VII.A: "a composite model of the environment must be kept alive at
runtime and populated with information as they become available".  The
knowledge base stores timestamped :class:`DeviceSnapshot` observations;
analyzers read it, never the live system -- so when connectivity to a
device is lost, the loop sees (and must reason about) *stale* knowledge,
exactly the design-time-assumptions-vs-runtime gap §VII describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class DeviceSnapshot:
    """One observation of a managed device."""

    device_id: str
    observed_at: float
    up: bool
    battery_fraction: float
    running_services: frozenset
    failed_services: frozenset
    location: str = ""
    domain: str = ""


@dataclass(frozen=True)
class Issue:
    """An analyzer finding: something that may need a countermeasure.

    ``kind`` drives planner rules (e.g. ``"service-failed"``,
    ``"device-down"``, ``"knowledge-stale"``); ``severity`` orders plans.
    """

    kind: str
    subject: str
    detected_at: float
    severity: int = 1
    detail: str = ""
    service: Optional[str] = None


class KnowledgeBase:
    """Timestamped model of the managed scope."""

    def __init__(self, scope: List[str]) -> None:
        self.scope = list(scope)
        self._snapshots: Dict[str, DeviceSnapshot] = {}
        self._open_issues: Dict[str, Issue] = {}
        self.facts: Dict[str, object] = {}

    # -- observations -------------------------------------------------------- #
    def observe(self, snapshot: DeviceSnapshot) -> None:
        self._snapshots[snapshot.device_id] = snapshot

    def snapshot(self, device_id: str) -> Optional[DeviceSnapshot]:
        return self._snapshots.get(device_id)

    def snapshots(self) -> List[DeviceSnapshot]:
        return [self._snapshots[d] for d in sorted(self._snapshots)]

    def age_of(self, device_id: str, now: float) -> Optional[float]:
        """Staleness of our knowledge about a device; None if never seen."""
        snapshot = self._snapshots.get(device_id)
        if snapshot is None:
            return None
        return now - snapshot.observed_at

    # -- issue ledger ----------------------------------------------------------#
    def open_issue(self, issue: Issue) -> bool:
        """Record an issue; returns False if an identical one is open."""
        key = self._issue_key(issue)
        if key in self._open_issues:
            return False
        self._open_issues[key] = issue
        return True

    def close_issue(self, issue: Issue) -> None:
        self._open_issues.pop(self._issue_key(issue), None)

    def close_matching(self, kind: str, subject: str, service: Optional[str] = None) -> None:
        key = f"{kind}|{subject}|{service or ''}"
        self._open_issues.pop(key, None)

    def open_issues(self) -> List[Issue]:
        return sorted(
            self._open_issues.values(),
            key=lambda i: (-i.severity, i.detected_at, i.subject),
        )

    @staticmethod
    def _issue_key(issue: Issue) -> str:
        return f"{issue.kind}|{issue.subject}|{issue.service or ''}"

    def snapshot_state(self) -> Dict[str, object]:
        """JSON-able knowledge for the flight recorder's incident bundle."""
        return {
            "scope": list(self.scope),
            "snapshots": {
                d: {
                    "observed_at": s.observed_at, "up": s.up,
                    "battery_fraction": s.battery_fraction,
                    "running_services": sorted(s.running_services),
                    "failed_services": sorted(s.failed_services),
                    "location": s.location, "domain": s.domain,
                }
                for d, s in sorted(self._snapshots.items())
            },
            "issues": {
                key: {"kind": i.kind, "subject": i.subject,
                      "detected_at": i.detected_at, "severity": i.severity,
                      "detail": i.detail, "service": i.service}
                for key, i in sorted(self._open_issues.items())
            },
            "facts": dict(self.facts),
        }
