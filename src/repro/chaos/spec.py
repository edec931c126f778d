"""Declarative chaos scenario specs: the cross-product, as data.

The paper's roadmap (SSV-SSVI) asks for systematic exploration of the
disruption x workload x adversary cross-product; hand-written scenario
functions cover ~10 curated points of it.  A :class:`ChaosSpec` makes an
arbitrary point *expressible*: one frozen, JSON-round-trippable value
composing topology x workload x traffic pattern x fault schedule x
adversary x maturity level, compiled onto the existing plane builders by
:class:`~repro.chaos.compiler.ScenarioCompiler`.

Design rules:

- **Self-contained.**  Every number that affects the run is in the spec
  (no ambient defaults resolved at run time), so a shrunk or replayed
  spec means the same run forever.
- **Exact round-trip.**  ``from_dict(to_dict(s)) == s`` and the JSON form
  is canonical (sorted keys), so spec digests are stable identities.
- **Deterministic sampling.**  :class:`SplitMix64` is the only randomness
  source campaigns use -- no ``random`` global state, so a campaign seed
  names the exact sequence of specs on every machine.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Sequence, Tuple

#: Workload archetypes the compiler can build (healthcare's bespoke
#: hospital topology does not expose the edge/cloud landscape the
#: traffic and adversary axes attach to, so it is not compilable).
WORKLOADS = ("none", "smart-city", "energy", "mobility")

#: Traffic patterns, ordered weakest to strongest (the shrinker walks
#: this order leftwards).
TRAFFIC_PATTERNS = ("none", "steady", "overload", "retry-storm")

#: Schedulable fault kinds.
FAULT_KINDS = ("crash", "partition", "latency", "link")

#: Adversary attacks ("sybil-flood" = flood + forged SWIM joins).
ADVERSARIES = ("none", "flood", "sybil-flood")

#: Maturity levels ML1-ML4 (paper SSIV): how much of the resilience
#: stack the compiled system gets.  ML1 naive, ML2 +admission control,
#: ML3 +retry budget/breaker/backpressure MAPE, ML4 +security defenses.
MATURITY_LEVELS = (1, 2, 3, 4)

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Tiny deterministic generator for campaign sampling.

    The same SplitMix64 finalizer the span sampler uses
    (:mod:`repro.observability.overhead`), wrapped as a sequential
    stream: three multiplies and shifts per draw, no ``random`` module,
    no global state.  Two instances with the same seed produce the same
    sequence on every platform.
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN_GAMMA) & _MASK64
        value = self._state
        value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
        return value ^ (value >> 31)

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * (self.next_u64() / float(1 << 64))

    def randint(self, low: int, high: int) -> int:
        """Inclusive-range integer draw."""
        return low + self.next_u64() % (high - low + 1)

    def choice(self, items: Sequence[Any]) -> Any:
        return items[self.next_u64() % len(items)]

    def chance(self, probability: float) -> bool:
        return self.uniform(0.0, 1.0) < probability

    def split(self) -> "SplitMix64":
        """An independent child stream (new seed drawn from this one)."""
        return SplitMix64(self.next_u64())


# Specs come back from files people edit (``chaos shrink spec.json``, a
# corpus bundle, a hot-loaded ``chaos-spec`` payload), so ``from_dict``
# turns every wrong shape into one ``ValueError`` naming the field -- never
# the ``AttributeError``/``TypeError``/bare ``KeyError`` it would trip first.
_REQUIRED = object()


def _object(data: Any, where: str) -> Dict[str, Any]:
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, "
                         f"got {type(data).__name__}")
    return data


def _field(data: Dict[str, Any], where: str, key: str,
           convert: Callable[[Any], Any], default: Any = _REQUIRED) -> Any:
    value = data.get(key, default)
    if value is _REQUIRED:
        raise ValueError(f"{where} is missing {key!r}")
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ValueError(f"{where}.{key} must be {convert.__name__}-like, "
                         f"got {value!r}") from None


@dataclass(frozen=True)
class TopologyAxis:
    """Size of the edge/cloud landscape under test."""

    sites: int = 3
    devices_per_site: int = 2

    def to_dict(self) -> Dict[str, Any]:
        return {"sites": self.sites,
                "devices_per_site": self.devices_per_site}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TopologyAxis":
        data = _object(data, "topology")
        return cls(sites=_field(data, "topology", "sites", int, 3),
                   devices_per_site=_field(data, "topology",
                                           "devices_per_site", int, 2))


@dataclass(frozen=True)
class TrafficAxis:
    """Request load offered against the ``edge0`` server.

    ``pattern`` selects the client-side posture: ``steady``/``overload``
    use the plain client, ``retry-storm`` the aggressive 4-attempt retry
    policy that turns a transient outage metastable when unbudgeted.
    Offered rate is ``users * rate_per_user`` req/s against a 200 req/s
    edge server.
    """

    pattern: str = "none"
    users: int = 0
    rate_per_user: float = 0.04

    @property
    def offered_rate(self) -> float:
        return self.users * self.rate_per_user

    def to_dict(self) -> Dict[str, Any]:
        return {"pattern": self.pattern, "users": self.users,
                "rate_per_user": self.rate_per_user}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TrafficAxis":
        data = _object(data, "traffic")
        return cls(pattern=_field(data, "traffic", "pattern", str, "none"),
                   users=_field(data, "traffic", "users", int, 0),
                   rate_per_user=_field(data, "traffic", "rate_per_user",
                                        float, 0.04))


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled environmental fault.

    ``target`` is a device/node id for ``crash``/``partition`` and an
    ``"a:b"`` node pair for ``latency``/``link``.
    """

    kind: str
    at: float
    duration: float
    target: str

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "at": self.at,
                "duration": self.duration, "target": self.target}

    @classmethod
    def from_dict(cls, data: Dict[str, Any],
                  where: str = "fault") -> "FaultEvent":
        data = _object(data, where)
        return cls(kind=_field(data, where, "kind", str),
                   at=_field(data, where, "at", float),
                   duration=_field(data, where, "duration", float),
                   target=_field(data, where, "target", str))


@dataclass(frozen=True)
class AdversaryAxis:
    """A member of the system turning hostile at ``at``.

    The attacker is always ``edge1`` (present in every legal topology)
    and the victim ``edge0``, so shrinking the topology never invalidates
    the attack; ``rate`` is the flood's request rate in req/s.
    """

    attack: str = "none"
    at: float = 5.0
    rate: float = 600.0

    def to_dict(self) -> Dict[str, Any]:
        return {"attack": self.attack, "at": self.at, "rate": self.rate}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AdversaryAxis":
        data = _object(data, "adversary")
        return cls(attack=_field(data, "adversary", "attack", str, "none"),
                   at=_field(data, "adversary", "at", float, 5.0),
                   rate=_field(data, "adversary", "rate", float, 600.0))


@dataclass(frozen=True)
class ChaosSpec:
    """One point of the disruption cross-product, as a value.

    Compiled by :class:`~repro.chaos.compiler.ScenarioCompiler` onto the
    existing workload/traffic/fault/security builders; registered with
    the persistence registry as scenario ``"chaos"`` (params carry this
    spec's dict form), so checkpoints, journals, deterministic replay
    and flight-recorder bundles all work unchanged.
    """

    workload: str = "none"
    topology: TopologyAxis = field(default_factory=TopologyAxis)
    traffic: TrafficAxis = field(default_factory=TrafficAxis)
    faults: Tuple[FaultEvent, ...] = ()
    adversary: AdversaryAxis = field(default_factory=AdversaryAxis)
    maturity: int = 1
    horizon: float = 30.0
    seed: int = 1

    # -- validation --------------------------------------------------------- #
    def validate(self) -> None:
        """Raise ``ValueError`` on any out-of-domain axis."""
        if self.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}; "
                             f"expected one of {WORKLOADS}")
        if self.topology.sites < 2:
            raise ValueError("topology needs at least two sites "
                             "(edge0 serves, edge1 is the adversary slot)")
        if self.topology.devices_per_site < 1:
            raise ValueError("topology needs at least one device per site")
        if self.traffic.pattern not in TRAFFIC_PATTERNS:
            raise ValueError(f"unknown traffic pattern "
                             f"{self.traffic.pattern!r}; expected one of "
                             f"{TRAFFIC_PATTERNS}")
        if self.traffic.pattern != "none" and self.traffic.users <= 0:
            raise ValueError("traffic pattern needs users > 0")
        for fault in self.faults:
            if fault.kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {fault.kind!r}; "
                                 f"expected one of {FAULT_KINDS}")
            if fault.duration <= 0 or fault.at < 0:
                raise ValueError(f"fault {fault} needs at >= 0 and "
                                 "duration > 0")
            if fault.kind in ("latency", "link") and ":" not in fault.target:
                raise ValueError(f"{fault.kind} fault target must be an "
                                 f"'a:b' node pair, got {fault.target!r}")
        if self.adversary.attack not in ADVERSARIES:
            raise ValueError(f"unknown adversary {self.adversary.attack!r}; "
                             f"expected one of {ADVERSARIES}")
        if self.maturity not in MATURITY_LEVELS:
            raise ValueError(f"maturity must be one of {MATURITY_LEVELS}, "
                             f"got {self.maturity!r}")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")

    # -- round trip --------------------------------------------------------- #
    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "topology": self.topology.to_dict(),
            "traffic": self.traffic.to_dict(),
            "faults": [fault.to_dict() for fault in self.faults],
            "adversary": self.adversary.to_dict(),
            "maturity": self.maturity,
            "horizon": self.horizon,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ChaosSpec":
        """Inverse of :meth:`to_dict`; ``ValueError`` naming the field for
        anything of the wrong shape (domains are :meth:`validate`'s)."""
        data = _object(data, "chaos spec")
        faults = data.get("faults", [])
        if not isinstance(faults, list):
            raise ValueError(f"faults must be a JSON list, "
                             f"got {type(faults).__name__}")
        return cls(
            workload=_field(data, "chaos spec", "workload", str, "none"),
            topology=TopologyAxis.from_dict(data.get("topology", {})),
            traffic=TrafficAxis.from_dict(data.get("traffic", {})),
            faults=tuple(FaultEvent.from_dict(fault, f"faults[{index}]")
                         for index, fault in enumerate(faults)),
            adversary=AdversaryAxis.from_dict(data.get("adversary", {})),
            maturity=_field(data, "chaos spec", "maturity", int, 1),
            horizon=_field(data, "chaos spec", "horizon", float, 30.0),
            seed=_field(data, "chaos spec", "seed", int, 1),
        )

    def to_json(self) -> str:
        """Canonical JSON form (sorted keys, compact separators)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ChaosSpec":
        return cls.from_dict(json.loads(text))

    # -- identity ----------------------------------------------------------- #
    def digest(self) -> str:
        """Stable 12-hex identity of this exact spec (corpus dir names)."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()[:12]

    def describe(self) -> str:
        """One human line: the axes that are actually armed."""
        parts = [f"ML{self.maturity}"]
        if self.workload != "none":
            parts.append(self.workload)
        parts.append(f"{self.topology.sites}x{self.topology.devices_per_site}")
        if self.traffic.pattern != "none":
            parts.append(f"{self.traffic.pattern}@"
                         f"{self.traffic.offered_rate:g}/s")
        for fault in self.faults:
            parts.append(f"{fault.kind}({fault.target})@{fault.at:g}s"
                         f"+{fault.duration:g}s")
        if self.adversary.attack != "none":
            parts.append(f"{self.adversary.attack}@{self.adversary.at:g}s")
        return " ".join(parts)

    def axis_count(self) -> int:
        """How many axes are armed -- the shrinker's size metric."""
        count = 0
        if self.workload != "none":
            count += 1
        if self.traffic.pattern != "none":
            count += TRAFFIC_PATTERNS.index(self.traffic.pattern)
        count += len(self.faults)
        if self.adversary.attack != "none":
            count += 1
        count += (self.topology.sites - 2) + (self.topology.devices_per_site - 1)
        return count

    def with_seed(self, seed: int) -> "ChaosSpec":
        return replace(self, seed=seed)
