"""Privacy scopes and data-flow policies.

Fig. 4: "Privacy requirements ... dictate what data should leave (or
enter) a component, and each component must have control of its own data
out- or in-flow privacy policies."  The :class:`PolicyEngine` evaluates a
proposed transfer of a :class:`~repro.data.item.DataItem` (or a whole CRDT
stream) between two devices and returns an auditable
:class:`FlowDecision`.

Checks applied, in order:

1. jurisdictional residency for personal/sensitive data;
2. minimum trust between the source and destination domains;
3. the destination environment's trustworthiness (adversarial faults);
4. per-component out-flow and in-flow policies;
5. privacy-scope membership (sensitive data stays inside its scope unless
   anonymized).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.data.item import DataItem, DataSensitivity
from repro.governance.domains import DomainRegistry, TrustLevel


@dataclass(frozen=True)
class FlowDecision:
    """Outcome of a policy evaluation, with the reason for auditability."""

    allowed: bool
    reason: str
    rule: str = ""

    def __bool__(self) -> bool:
        return self.allowed


@dataclass
class FlowPolicy:
    """A component's own in/out flow policy (Fig. 4).

    ``max_out_sensitivity`` caps what the component releases;
    ``max_in_sensitivity`` caps what it accepts (a constrained device may
    refuse to store sensitive data it cannot protect).  ``deny_domains``
    blacklists counterpart domains outright.
    """

    device_id: str
    max_out_sensitivity: DataSensitivity = DataSensitivity.SENSITIVE
    max_in_sensitivity: DataSensitivity = DataSensitivity.SENSITIVE
    deny_domains: Set[str] = field(default_factory=set)

    def allows_out(self, item: DataItem, dst_domain: str) -> Tuple[bool, str]:
        if dst_domain in self.deny_domains:
            return False, f"out-flow: domain {dst_domain!r} denied by {self.device_id!r}"
        if item.sensitivity > self.max_out_sensitivity:
            return False, (
                f"out-flow: sensitivity {item.sensitivity.name} exceeds "
                f"{self.device_id!r} cap {self.max_out_sensitivity.name}"
            )
        return True, "out-flow ok"

    def allows_in(self, item: DataItem, src_domain: str) -> Tuple[bool, str]:
        if src_domain in self.deny_domains:
            return False, f"in-flow: domain {src_domain!r} denied by {self.device_id!r}"
        if item.sensitivity > self.max_in_sensitivity:
            return False, (
                f"in-flow: sensitivity {item.sensitivity.name} exceeds "
                f"{self.device_id!r} cap {self.max_in_sensitivity.name}"
            )
        return True, "in-flow ok"


@dataclass
class PrivacyScope:
    """A named boundary sensitive data must not leave un-anonymized.

    Defined by a jurisdiction or end-user preference (Fig. 4); membership
    is a set of device ids.  An edge device typically manages the scope of
    its local IoT devices (§VI.B's closing example).
    """

    name: str
    members: Set[str] = field(default_factory=set)
    min_sensitivity: DataSensitivity = DataSensitivity.PERSONAL

    def contains(self, device_id: str) -> bool:
        return device_id in self.members

    def blocks(self, item: DataItem, src_device: str, dst_device: str) -> bool:
        """True if this scope forbids the transfer."""
        if item.sensitivity < self.min_sensitivity:
            return False
        return self.contains(src_device) and not self.contains(dst_device)


class PolicyEngine:
    """Evaluates proposed data flows against all governance rules."""

    def __init__(
        self,
        domains: DomainRegistry,
        min_trust: TrustLevel = TrustLevel.PARTNER,
        device_domain: Optional[Callable[[str], str]] = None,
        environment_trusted: Optional[Callable[[str], bool]] = None,
    ) -> None:
        """
        Parameters
        ----------
        min_trust:
            Minimum effective inter-domain trust required to move any
            non-public data.
        device_domain:
            Resolver ``device_id -> domain name`` (wired to the fleet).
        environment_trusted:
            Resolver ``device_id -> bool`` for adversarial-environment
            faults (wired to the fleet).
        """
        self.domains = domains
        self.min_trust = min_trust
        self._device_domain = device_domain or (lambda _d: "default")
        self._environment_trusted = environment_trusted or (lambda _d: True)
        self._policies: Dict[str, FlowPolicy] = {}
        self._scopes: Dict[str, PrivacyScope] = {}
        self.decisions: List[Tuple[float, str, str, FlowDecision]] = []

    # -- configuration --------------------------------------------------------#
    def set_policy(self, policy: FlowPolicy) -> None:
        self._policies[policy.device_id] = policy

    def add_scope(self, scope: PrivacyScope) -> PrivacyScope:
        if scope.name in self._scopes:
            raise ValueError(f"scope {scope.name!r} already exists")
        self._scopes[scope.name] = scope
        return scope

    def scope(self, name: str) -> PrivacyScope:
        return self._scopes[name]

    @property
    def scopes(self) -> List[PrivacyScope]:
        return [self._scopes[k] for k in sorted(self._scopes)]

    # -- evaluation ------------------------------------------------------------#
    def evaluate(
        self,
        item: DataItem,
        src_device: str,
        dst_device: str,
        now: float = 0.0,
    ) -> FlowDecision:
        """Decide whether ``item`` may flow ``src_device -> dst_device``."""
        decision = self._evaluate(item, src_device, dst_device)
        self.decisions.append((now, src_device, dst_device, decision))
        return decision

    def _resolve_domain(self, device_id: str) -> str:
        """Resolve a device's domain.

        The pseudo-device ``"<domain:X>"`` resolves to domain ``X`` -- used
        by the domain-transfer protocol to ask "could this item flow to
        *some* device in X" without naming one.
        """
        if device_id.startswith("<domain:") and device_id.endswith(">"):
            return device_id[len("<domain:"):-1]
        return self._device_domain(device_id)

    def _evaluate(self, item: DataItem, src_device: str, dst_device: str) -> FlowDecision:
        src_domain = self._resolve_domain(src_device)
        dst_domain = self._resolve_domain(dst_device)

        # 1. Jurisdictional residency for personal data and above.
        if item.sensitivity >= DataSensitivity.PERSONAL:
            if not self.domains.personal_export_allowed(src_domain, dst_domain):
                return FlowDecision(
                    False,
                    f"jurisdiction of {src_domain!r} forbids personal-data export "
                    f"to jurisdiction of {dst_domain!r}",
                    rule="residency",
                )

        # 2. Inter-domain trust for anything non-public.
        if item.sensitivity > DataSensitivity.PUBLIC:
            trust = self.domains.trust(src_domain, dst_domain)
            if trust < self.min_trust:
                return FlowDecision(
                    False,
                    f"trust {trust.name} of {src_domain!r} toward {dst_domain!r} "
                    f"below required {self.min_trust.name}",
                    rule="trust",
                )

        # 3. Destination environment trustworthiness.  Pseudo-devices
        # ("<domain:X>") name no concrete device, so there is no
        # environment to distrust -- the jurisdiction/trust rules above
        # already judged the domain itself.
        if (item.sensitivity >= DataSensitivity.PERSONAL
                and not dst_device.startswith("<domain:")):
            if not self._environment_trusted(dst_device):
                return FlowDecision(
                    False,
                    f"destination {dst_device!r} is in untrusted circumstances",
                    rule="environment",
                )

        # 4. Component in/out flow policies.
        src_policy = self._policies.get(src_device)
        if src_policy is not None:
            ok, reason = src_policy.allows_out(item, dst_domain)
            if not ok:
                return FlowDecision(False, reason, rule="out-flow")
        dst_policy = self._policies.get(dst_device)
        if dst_policy is not None:
            ok, reason = dst_policy.allows_in(item, src_domain)
            if not ok:
                return FlowDecision(False, reason, rule="in-flow")

        # 5. Privacy scopes.
        for scope in self.scopes:
            if scope.blocks(item, src_device, dst_device):
                return FlowDecision(
                    False,
                    f"item of sensitivity {item.sensitivity.name} may not leave "
                    f"privacy scope {scope.name!r}",
                    rule="scope",
                )

        return FlowDecision(True, "all governance checks passed")

    # -- audit ------------------------------------------------------------------#
    def denial_count(self) -> int:
        return sum(1 for (_, _, _, d) in self.decisions if not d.allowed)

    def denials_by_rule(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for _, _, _, decision in self.decisions:
            if not decision.allowed:
                out[decision.rule] = out.get(decision.rule, 0) + 1
        return out
