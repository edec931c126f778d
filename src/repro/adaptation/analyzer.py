"""The A in MAPE-K: analyzers derive issues from the knowledge base.

Analyzers never touch the live system -- they read the knowledge base
(possibly stale) and open/close issues on it.  Three built-ins cover the
experiments; custom analyzers implement :class:`Analyzer`.
"""

from __future__ import annotations

from typing import List

from repro.adaptation.knowledge import Issue, KnowledgeBase


class Analyzer:
    """Interface: produce newly opened issues from current knowledge."""

    def analyze(self, knowledge: KnowledgeBase, now: float) -> List[Issue]:
        raise NotImplementedError


class ServiceHealthAnalyzer(Analyzer):
    """Opens ``service-failed`` issues for services observed in FAILED
    state; closes them when the service is observed running again."""

    def analyze(self, knowledge: KnowledgeBase, now: float) -> List[Issue]:
        opened: List[Issue] = []
        for snapshot in knowledge.snapshots():
            for service in sorted(snapshot.failed_services):
                issue = Issue(
                    kind="service-failed",
                    subject=snapshot.device_id,
                    detected_at=now,
                    severity=3,
                    service=service,
                    detail=f"service {service!r} observed failed",
                )
                if knowledge.open_issue(issue):
                    opened.append(issue)
            for service in sorted(snapshot.running_services):
                knowledge.close_matching("service-failed", snapshot.device_id, service)
        return opened


class DeviceLivenessAnalyzer(Analyzer):
    """Opens ``device-down`` issues for devices observed down (and closes
    them on recovery observation)."""

    def analyze(self, knowledge: KnowledgeBase, now: float) -> List[Issue]:
        opened: List[Issue] = []
        for snapshot in knowledge.snapshots():
            if not snapshot.up:
                issue = Issue(
                    kind="device-down",
                    subject=snapshot.device_id,
                    detected_at=now,
                    severity=4,
                    detail="device observed down",
                )
                if knowledge.open_issue(issue):
                    opened.append(issue)
            else:
                knowledge.close_matching("device-down", snapshot.device_id)
        return opened


class StaleKnowledgeAnalyzer(Analyzer):
    """Opens ``knowledge-stale`` issues when a device has not been observed
    for ``max_age`` -- the signal that the loop itself is blind (e.g. the
    cloud-hosted loop during a partition), which the Fig. 5 experiment
    counts as loss of control."""

    def __init__(self, max_age: float) -> None:
        if max_age <= 0:
            raise ValueError("max_age must be positive")
        self.max_age = max_age

    def analyze(self, knowledge: KnowledgeBase, now: float) -> List[Issue]:
        opened: List[Issue] = []
        for device_id in knowledge.scope:
            age = knowledge.age_of(device_id, now)
            if age is None or age > self.max_age:
                issue = Issue(
                    kind="knowledge-stale",
                    subject=device_id,
                    detected_at=now,
                    severity=2,
                    detail=f"no observation for {age if age is not None else 'ever'}",
                )
                if knowledge.open_issue(issue):
                    opened.append(issue)
            else:
                knowledge.close_matching("knowledge-stale", device_id)
        return opened


class SloAlertAnalyzer(Analyzer):
    """Turns SLO breach alerts into issues -- alert-driven adaptation.

    An :class:`~repro.observability.slo.SloMonitor` attached to this
    loop's knowledge base appends breach alerts to
    ``knowledge.facts["slo_alerts"]`` during the Monitor phase; this
    analyzer drains them and opens one issue per alert, using the spec's
    ``escalation`` as the issue kind so SLO authors choose the
    countermeasure ladder (e.g. ``device-down`` -> reboot+migrate,
    ``service-failed`` -> restart ladder, or the generic ``slo-breach``).
    This is the quantitative close of Fig. 5's loop: goal burn, not just
    observed symptoms, triggers planning.
    """

    def analyze(self, knowledge: KnowledgeBase, now: float) -> List[Issue]:
        alerts = knowledge.facts.pop("slo_alerts", [])
        opened: List[Issue] = []
        for alert in alerts:
            issue = Issue(
                kind=str(alert.get("escalation") or "slo-breach"),
                subject=str(alert.get("subject", "")),
                detected_at=now,
                severity=int(alert.get("severity", 3)),
                service=alert.get("service"),
                detail=(f"SLO {alert.get('slo')!r} burning at "
                        f"{alert.get('burn_rate')!r} (measured "
                        f"{alert.get('measured')!r})"),
            )
            if knowledge.open_issue(issue):
                opened.append(issue)
        return opened


class BackpressureAnalyzer(Analyzer):
    """Turns server backpressure signals into ``overload`` issues.

    A :class:`~repro.traffic.server.Server` with this loop's knowledge
    base attached (``server.attach_backpressure(loop.knowledge)``)
    appends facts to ``knowledge.facts["backpressure"]`` when queue
    occupancy stays above its watermark; this analyzer drains them --
    the same attach pattern as :class:`SloAlertAnalyzer` -- and opens
    one ``overload`` issue per saturated node, which the planner's
    overload rule answers by re-routing to the loop's offload target.
    """

    def analyze(self, knowledge: KnowledgeBase, now: float) -> List[Issue]:
        signals = knowledge.facts.pop("backpressure", [])
        opened: List[Issue] = []
        for signal in signals:
            issue = Issue(
                kind="overload",
                subject=str(signal.get("node", "")),
                detected_at=now,
                severity=3,
                detail=(f"queue {signal.get('depth')}/{signal.get('capacity')} "
                        f"above watermark since {signal.get('since')}"),
            )
            if knowledge.open_issue(issue):
                opened.append(issue)
        return opened


class IntrusionAnalyzer(Analyzer):
    """Turns trust-collapse facts into ``compromised-node`` issues.

    A :class:`~repro.security.trust.TrustRegistry` attached to this
    loop's knowledge base (``plane.trust.attach(loop.knowledge)``)
    appends a fact to ``knowledge.facts["intrusion"]`` the first time a
    subject's aggregate reputation crosses the distrust threshold; this
    analyzer drains them -- the same attach pattern as
    :class:`SloAlertAnalyzer` -- and opens one high-severity issue per
    subject, which the planner answers with quarantine, eviction and key
    rotation.
    """

    def analyze(self, knowledge: KnowledgeBase, now: float) -> List[Issue]:
        facts = knowledge.facts.pop("intrusion", [])
        opened: List[Issue] = []
        for fact in facts:
            issue = Issue(
                kind="compromised-node",
                subject=str(fact.get("subject", "")),
                detected_at=now,
                severity=5,
                detail=(f"trust {fact.get('score', 0.0):.3f} collapsed "
                        f"below threshold at t={fact.get('at')}"),
            )
            if knowledge.open_issue(issue):
                opened.append(issue)
        return opened


class BatteryAnalyzer(Analyzer):
    """Opens ``battery-low`` issues below a threshold fraction."""

    def __init__(self, threshold: float = 0.2) -> None:
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must be in (0,1)")
        self.threshold = threshold

    def analyze(self, knowledge: KnowledgeBase, now: float) -> List[Issue]:
        opened: List[Issue] = []
        for snapshot in knowledge.snapshots():
            if snapshot.up and snapshot.battery_fraction < self.threshold:
                issue = Issue(
                    kind="battery-low",
                    subject=snapshot.device_id,
                    detected_at=now,
                    severity=2,
                    detail=f"battery at {snapshot.battery_fraction:.0%}",
                )
                if knowledge.open_issue(issue):
                    opened.append(issue)
            elif snapshot.battery_fraction >= self.threshold:
                knowledge.close_matching("battery-low", snapshot.device_id)
        return opened
