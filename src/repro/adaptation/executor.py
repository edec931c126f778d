"""The E in MAPE-K: executing planned actions against the live system.

Actuation is *located*: the executor runs on the loop's host node, and an
action on device D only succeeds if the host can currently reach D over
the network (and the host itself is up).  This locality constraint is what
differentiates a cloud-hosted loop from an edge-hosted one under
partition -- the crux of the Fig. 5 experiment.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.adaptation.actions import (
    Action,
    ActionResult,
    EvictMemberAction,
    MigrateServiceAction,
    NoopAction,
    QuarantineAction,
    RebootDeviceAction,
    RerouteTrafficAction,
    RestartServiceAction,
    RotateKeysAction,
)
from repro.devices.fleet import DeviceFleet
from repro.devices.software import ServiceState
from repro.network.transport import Network
from repro.simulation.kernel import Simulator
from repro.simulation.trace import TraceLog


class Executor:
    """Applies actions from ``host``, honouring reachability."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        fleet: DeviceFleet,
        host: str,
        rng: random.Random,
        reboot_success_rate: float = 0.8,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.fleet = fleet
        self.host = host
        self.rng = rng
        self.reboot_success_rate = reboot_success_rate
        self.trace = trace
        self.results: List[ActionResult] = []

    def execute(self, actions: List[Action]) -> List[ActionResult]:
        results = [self._execute_one(action) for action in actions]
        self.results.extend(results)
        return results

    # -- single action ---------------------------------------------------------#
    def _execute_one(self, action: Action) -> ActionResult:
        if isinstance(action, NoopAction):
            return self._done(action, True, "noop")
        if not self.network.node_up(self.host):
            return self._done(action, False, f"executor host {self.host!r} is down")
        if not self._reachable(action.target):
            return self._done(action, False,
                              f"target {action.target!r} unreachable from {self.host!r}")
        if isinstance(action, RestartServiceAction):
            return self._restart(action)
        if isinstance(action, MigrateServiceAction):
            return self._migrate(action)
        if isinstance(action, RebootDeviceAction):
            return self._reboot(action)
        if isinstance(action, RerouteTrafficAction):
            return self._reroute(action)
        if isinstance(action, QuarantineAction):
            return self._quarantine(action)
        if isinstance(action, EvictMemberAction):
            return self._evict(action)
        if isinstance(action, RotateKeysAction):
            return self._rotate_keys(action)
        return self._done(action, False, f"unknown action {type(action).__name__}")

    def _reachable(self, target: str) -> bool:
        # Path existence over up links is what matters; the target's own
        # liveness is deliberately ignored so a reboot can be delivered to
        # a down device on a connected segment (out-of-band power control).
        if target == self.host:
            return True
        return self.network.topology.reachable(self.host, target)

    # -- concrete actions --------------------------------------------------------#
    def _restart(self, action: RestartServiceAction) -> ActionResult:
        try:
            device = self.fleet.get(action.target)
        except KeyError:
            return self._done(action, False, "unknown device")
        if not device.up:
            return self._done(action, False, "device is down")
        service = device.stack.service(action.service)
        if service is None:
            return self._done(action, False, f"service {action.service!r} not hosted")
        if service.state == ServiceState.RUNNING:
            return self._done(action, True, "already running")
        device.stack.start(action.service)
        return self._done(action, True, "restarted")

    def _migrate(self, action: MigrateServiceAction) -> ActionResult:
        try:
            source = self.fleet.get(action.target)
            destination = self.fleet.get(action.destination)
        except KeyError as err:
            return self._done(action, False, f"unknown device: {err}")
        if not destination.up:
            return self._done(action, False, "destination is down")
        if not self._reachable(action.destination):
            return self._done(action, False, "destination unreachable")
        if not source.hosts(action.service):
            return self._done(action, False, f"service {action.service!r} not on source")
        service = source.evict(action.service)
        if not destination.can_host(service):
            # Roll back: the service stays (failed) on the source.
            source.host(service)
            source.stack.mark_failed(service.name)
            return self._done(action, False, "destination cannot host service")
        destination.host(service)
        return self._done(action, True, "migrated")

    def _reboot(self, action: RebootDeviceAction) -> ActionResult:
        try:
            device = self.fleet.get(action.target)
        except KeyError:
            return self._done(action, False, "unknown device")
        if device.up:
            return self._done(action, True, "already up")
        if self.rng.random() < self.reboot_success_rate:
            self.fleet.recover(action.target)
            return self._done(action, True, "rebooted")
        return self._done(action, False, "reboot attempt failed")

    def _reroute(self, action: RerouteTrafficAction) -> ActionResult:
        registry = self.sim.context.get("traffic")
        if registry is None:
            return self._done(action, False, "no traffic registry in context")
        if not action.destination:
            return self._done(action, False, "no destination")
        if not self.network.node_up(action.destination):
            return self._done(action, False, "destination is down")
        if not self._reachable(action.destination):
            return self._done(action, False, "destination unreachable")
        moved = registry.reroute(action.target, action.destination)
        if moved == 0:
            return self._done(action, False,
                              f"no clients target {action.target!r}")
        return self._done(action, True,
                          f"{moved} client(s) -> {action.destination!r}")

    def _quarantine(self, action: QuarantineAction) -> ActionResult:
        plane = self.sim.context.get("security")
        if plane is None:
            return self._done(action, False, "no security plane in context")
        if not plane.quarantine_node(action.target):
            return self._done(action, True, "already quarantined")
        return self._done(action, True, "transport ACL installed")

    def _evict(self, action: EvictMemberAction) -> ActionResult:
        plane = self.sim.context.get("security")
        if plane is None:
            return self._done(action, False, "no security plane in context")
        if not plane.evict_member(action.target):
            return self._done(action, False,
                              f"{action.target!r} not in any membership")
        return self._done(action, True, "evicted from memberships")

    def _rotate_keys(self, action: RotateKeysAction) -> ActionResult:
        plane = self.sim.context.get("security")
        if plane is None:
            return self._done(action, False, "no security plane in context")
        rotated = plane.rotate_keys(revoke=action.target)
        return self._done(action, True,
                          f"revoked {action.target!r}, rotated {rotated} keys")

    def _done(self, action: Action, success: bool, detail: str) -> ActionResult:
        result = ActionResult(action=action, success=success, detail=detail)
        if self.trace is not None:
            self.trace.emit(
                self.sim.now, "adaptation",
                "action-success" if success else "action-failure",
                subject=action.target,
                action=action.describe(), detail=detail, host=self.host,
            )
        return result
