"""The P in MAPE-K: planners turn issues into action plans.

The default :class:`RuleBasedPlanner` encodes the countermeasure ladder of
the self-healing literature: restart in place, then migrate, then reboot;
a :class:`Plan` is the ordered action list for one loop iteration.
Planning consults the knowledge base only -- "planning may be required to
be performed in a distributed fashion" (§V.B) is realized by running one
planner per edge loop over its local scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.adaptation.actions import (
    Action,
    EvictMemberAction,
    MigrateServiceAction,
    QuarantineAction,
    RebootDeviceAction,
    RerouteTrafficAction,
    RestartServiceAction,
    RotateKeysAction,
)
from repro.adaptation.knowledge import Issue, KnowledgeBase


@dataclass
class Plan:
    """An ordered list of actions addressing a set of issues."""

    actions: List[Action] = field(default_factory=list)
    addressed: List[Issue] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def empty(self) -> bool:
        return not self.actions


class Planner:
    """Interface: build a plan for the open issues."""

    def plan(self, issues: List[Issue], knowledge: KnowledgeBase, now: float) -> Plan:
        raise NotImplementedError


class RuleBasedPlanner(Planner):
    """Countermeasure rules per issue kind.

    * ``service-failed`` -> restart in place; after ``max_restarts``
      failed attempts on the same (device, service), migrate to the best
      alternative host in scope (most recently observed up, fewest
      services);
    * ``device-down`` -> reboot, and migrate its known services away;
    * ``battery-low`` -> migrate services off the device pre-emptively;
    * ``overload`` -> re-route the server's traffic to the loop's
      ``offload_target`` fact, or nothing when none is set;
    * ``knowledge-stale`` -> no actuation (acting on stale knowledge
      violates the "accordance with constraints" principle) -- the issue
      stays open as a visibility alarm.
    """

    def __init__(self, max_restarts: int = 2,
                 candidate_hosts: Optional[Callable[[KnowledgeBase], List[str]]] = None) -> None:
        self.max_restarts = max_restarts
        self._restart_attempts: Dict[str, int] = {}
        self._candidate_hosts = candidate_hosts

    def plan(self, issues: List[Issue], knowledge: KnowledgeBase, now: float) -> Plan:
        plan = Plan()
        for issue in issues:
            actions = self._plan_issue(issue, knowledge)
            if actions:
                plan.actions.extend(actions)
                plan.addressed.append(issue)
        return plan

    def record_outcome(self, action: Action, success: bool) -> None:
        """Executor feedback: track restart attempts for escalation."""
        if isinstance(action, RestartServiceAction):
            key = f"{action.target}|{action.service}"
            if success:
                self._restart_attempts.pop(key, None)
            else:
                self._restart_attempts[key] = self._restart_attempts.get(key, 0) + 1

    # -- rules ----------------------------------------------------------------- #
    def _plan_issue(self, issue: Issue, knowledge: KnowledgeBase) -> List[Action]:
        if issue.kind == "service-failed":
            return self._service_repair(issue, knowledge)
        if issue.kind == "slo-breach":
            # Alert-driven adaptation: an SLO breach with a named service
            # enters the restart/migrate ladder; a device-scoped breach
            # reboots the subject (its availability budget is burning).
            if issue.service:
                return self._service_repair(issue, knowledge)
            if issue.subject:
                return [RebootDeviceAction(target=issue.subject)]
            return []
        if issue.kind == "device-down":
            actions: List[Action] = [RebootDeviceAction(target=issue.subject)]
            snapshot = knowledge.snapshot(issue.subject)
            destination = self._pick_host(knowledge, exclude=issue.subject)
            if snapshot is not None and destination is not None:
                for service in sorted(snapshot.running_services | snapshot.failed_services):
                    actions.append(MigrateServiceAction(
                        target=issue.subject, service=service, destination=destination))
            return actions
        if issue.kind == "battery-low":
            snapshot = knowledge.snapshot(issue.subject)
            destination = self._pick_host(knowledge, exclude=issue.subject)
            if snapshot is None or destination is None:
                return []
            return [
                MigrateServiceAction(target=issue.subject, service=service,
                                     destination=destination)
                for service in sorted(snapshot.running_services)
            ]
        if issue.kind == "overload":
            # Sustained backpressure from a traffic server: offload to the
            # configured elastic target (the edge->cloud elasticity of §IV).
            offload = knowledge.facts.get("offload_target")
            if offload and offload != issue.subject:
                return [RerouteTrafficAction(target=issue.subject,
                                             destination=str(offload))]
            return []
        if issue.kind == "compromised-node":
            # Intrusion response ladder, all three rungs at once: cut the
            # node off at the transport, purge it from coordination
            # memberships, and invalidate any keys it may have exfiltrated.
            return [QuarantineAction(target=issue.subject),
                    EvictMemberAction(target=issue.subject),
                    RotateKeysAction(target=issue.subject)]
        if issue.kind == "knowledge-stale":
            return []
        return []

    def _service_repair(self, issue: Issue, knowledge: KnowledgeBase) -> List[Action]:
        """Restart in place; escalate to migration after repeated failures."""
        key = f"{issue.subject}|{issue.service}"
        if self._restart_attempts.get(key, 0) < self.max_restarts:
            return [RestartServiceAction(target=issue.subject, service=issue.service)]
        destination = self._pick_host(knowledge, exclude=issue.subject)
        if destination is None:
            return [RestartServiceAction(target=issue.subject, service=issue.service)]
        return [MigrateServiceAction(target=issue.subject, service=issue.service,
                                     destination=destination)]

    def _pick_host(self, knowledge: KnowledgeBase, exclude: str) -> Optional[str]:
        if self._candidate_hosts is not None:
            candidates = [c for c in self._candidate_hosts(knowledge) if c != exclude]
            return candidates[0] if candidates else None
        best: Optional[str] = None
        best_load = float("inf")
        for snapshot in knowledge.snapshots():
            if snapshot.device_id == exclude or not snapshot.up:
                continue
            load = len(snapshot.running_services)
            if load < best_load:
                best, best_load = snapshot.device_id, load
        return best
