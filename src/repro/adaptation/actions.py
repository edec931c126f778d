"""Adaptation actions: the countermeasures a planner can choose.

§VII.B: "actuation of countermeasures to satisfy requirements must be
performed in accordance to constraints imposed by the application domain".
Each action declares its target device so the executor can check
reachability before attempting it -- an unreachable target makes the
action fail, it does not silently succeed (no action at a distance).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ActionResult:
    action: "Action"
    success: bool
    detail: str = ""


@dataclass(frozen=True)
class Action:
    """Base action; ``target`` is the device acted upon."""

    target: str

    def describe(self) -> str:
        return f"{type(self).__name__}({self.target})"


@dataclass(frozen=True)
class RestartServiceAction(Action):
    """Restart a failed service in place (the cheapest self-heal)."""

    service: str = ""

    def describe(self) -> str:
        return f"restart {self.service!r} on {self.target!r}"


@dataclass(frozen=True)
class MigrateServiceAction(Action):
    """Move a service from ``target`` to ``destination``.

    Used when the hosting device is down or depleted: the service's demand
    must fit the destination's free resources and runtimes.
    """

    service: str = ""
    destination: str = ""

    def describe(self) -> str:
        return f"migrate {self.service!r} from {self.target!r} to {self.destination!r}"


@dataclass(frozen=True)
class RebootDeviceAction(Action):
    """Attempt device recovery (power-cycle).  Only plausible for
    soft failures; the executor models a fixed success probability drawn
    from its seeded stream."""

    def describe(self) -> str:
        return f"reboot {self.target!r}"


@dataclass(frozen=True)
class RerouteTrafficAction(Action):
    """Re-point clients targeting ``target`` at ``destination``.

    The elasticity countermeasure: sustained overload at an edge site is
    absorbed by offloading its traffic to a bigger pool (typically the
    cloud), trading latency for goodput.
    """

    destination: str = ""

    def describe(self) -> str:
        return f"reroute traffic from {self.target!r} to {self.destination!r}"


@dataclass(frozen=True)
class QuarantineAction(Action):
    """Cut a compromised node off at the transport ACL.

    The first intrusion response: traffic from and to ``target`` is
    dropped, so whatever the attacker is doing stops propagating while
    keys rotate and membership converges on the eviction.
    """

    def describe(self) -> str:
        return f"quarantine {self.target!r}"


@dataclass(frozen=True)
class EvictMemberAction(Action):
    """Remove ``target`` from coordination memberships and peer lists."""

    def describe(self) -> str:
        return f"evict {self.target!r} from membership"


@dataclass(frozen=True)
class RotateKeysAction(Action):
    """Revoke ``target``'s key and rotate everyone else's.

    After rotation the compromised identity cannot produce a valid tag
    even if it exfiltrated old keys, closing the forgery window.
    """

    def describe(self) -> str:
        return f"rotate keys (revoking {self.target!r})"


@dataclass(frozen=True)
class NoopAction(Action):
    """Explicit no-op: the planner decided observation suffices."""

    reason: str = ""

    def describe(self) -> str:
        return f"noop ({self.reason})"
