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
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.vectors import MaturityFeatures, MaturityLevel, features_of
from repro.schema import Field, check

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

#: Maturity levels ML1-ML4 (paper SSIV); which defences each one arms is
#: its row of :data:`repro.core.vectors.MATURITY_FEATURES`.
MATURITY_LEVELS = tuple(int(level) for level in MaturityLevel)

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


def _pair_target(fault: Dict[str, Any]) -> Optional[str]:
    if fault["kind"] in ("latency", "link") and ":" not in fault["target"]:
        return (f"is a {fault['kind']} fault, whose target must be an 'a:b' "
                f"node pair, got {fault['target']!r}")
    return None


def _loaded(traffic: Dict[str, Any]) -> Optional[str]:
    if traffic.get("pattern", "none") != "none" and not traffic.get("users"):
        return "needs users > 0 for a traffic pattern"
    return None


#: One scheduled fault, in a spec or in a live ``fault-schedule`` payload
#: (where ``at`` is an offset from the moment the payload lands).
FAULT = Field("object", fields={
    "kind": Field("string", choices=FAULT_KINDS, label="fault kind"),
    "at": Field("number", low=0),
    "duration": Field("number", above=0),
    "target": Field("string"),
}, rule=_pair_target)

# Specs come back from files people edit (``chaos shrink spec.json``, a
# corpus bundle, a hot-loaded ``chaos-spec`` payload), so the shape and the
# domain of every axis are declared once; an absent field takes the
# dataclass default.
SPEC = Field("object", fields={
    "workload": Field("string", required=False, choices=WORKLOADS,
                      label="workload"),
    "topology": Field("object", required=False, fields={
        # edge0 serves, edge1 is the adversary slot
        "sites": Field("integer", required=False, low=2),
        "devices_per_site": Field("integer", required=False, low=1),
    }),
    "traffic": Field("object", required=False, rule=_loaded, fields={
        "pattern": Field("string", required=False, choices=TRAFFIC_PATTERNS,
                         label="traffic pattern"),
        "users": Field("integer", required=False, low=0),
        "rate_per_user": Field("number", required=False, above=0),
    }),
    "faults": Field("list", required=False, items=FAULT),
    "adversary": Field("object", required=False, fields={
        "attack": Field("string", required=False, choices=ADVERSARIES,
                        label="adversary"),
        "at": Field("number", required=False, low=0),
        "rate": Field("number", required=False, above=0),
    }),
    "maturity": Field("integer", required=False, choices=MATURITY_LEVELS,
                      label="maturity"),
    "horizon": Field("number", required=False, above=0),
    "seed": Field("integer", required=False),
})


@dataclass(frozen=True)
class TopologyAxis:
    """Size of the edge/cloud landscape under test."""

    sites: int = 3
    devices_per_site: int = 2


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

    @property
    def features(self) -> MaturityFeatures:
        """The defences and mechanisms this spec's maturity level grants."""
        return features_of(MaturityLevel(self.maturity))

    # -- validation --------------------------------------------------------- #
    def validate(self) -> None:
        """Raise ``ValueError`` on any out-of-domain axis (:data:`SPEC`)."""
        check(self.to_dict(), SPEC)

    # -- round trip --------------------------------------------------------- #
    def to_dict(self) -> Dict[str, Any]:
        """Every axis as plain JSON values, in field order."""
        return {**asdict(self), "faults": [asdict(f) for f in self.faults]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ChaosSpec":
        """Inverse of :meth:`to_dict`; a ``ValueError`` naming the field for
        anything not of :data:`SPEC`'s shape and domain."""
        fields = check(data, SPEC)
        for name, axis in (("topology", TopologyAxis), ("traffic", TrafficAxis),
                           ("adversary", AdversaryAxis)):
            if name in fields:
                fields[name] = axis(**fields[name])
        fields["faults"] = tuple(FaultEvent(**f) for f in fields.get("faults", ()))
        return cls(**fields)

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
