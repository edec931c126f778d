"""Seeded chaos-search campaigns over the spec space.

A campaign is a deterministic function of its seed: :class:`SpecSampler`
derives every sampled :class:`~repro.chaos.spec.ChaosSpec` from
SplitMix64 streams keyed on ``(campaign_seed, case_index)``, each case
runs under the compiled SLO monitor plus the post-run resilience gates,
and any violation is greedily shrunk
(:mod:`repro.chaos.shrink`) before landing in the replay corpus
(:mod:`repro.chaos.corpus`).  No ``random`` global state anywhere: the
same seed names the same campaign -- same specs, same violations, same
shrunk minima -- on every machine.

Violation detection is **read-only**: the monitor is wired by the
compiler (part of the spec), and the gates only read recorded metrics
and final protocol state after the run, so a case driven by a campaign
journals and digests identically to the same spec run by
``run_scenario`` -- the property that makes corpus bundles replayable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.compiler import ScenarioCompiler
from repro.chaos.spec import (
    AdversaryAxis,
    ChaosSpec,
    FaultEvent,
    SplitMix64,
    TopologyAxis,
    TrafficAxis,
)
from repro.persistence.scenarios import PreparedRun
from repro.traffic.scenarios import EDGE_CAPACITY, RECOVERY_GRACE

#: The recovered-goodput bar: the system must sustain at least this
#: fraction of min(offered, capacity) once every fault has healed.
RECOVERY_FRACTION = 0.8


# --------------------------------------------------------------------------- #
# Sampling
# --------------------------------------------------------------------------- #
class SpecSampler:
    """Deterministic ``(campaign_seed, index) -> ChaosSpec`` sampling.

    The draw order inside :meth:`sample` is part of the campaign's
    determinism contract: reordering draws changes every campaign, so
    new axes must be appended (drawing from a ``split()`` child stream)
    rather than inserted.
    """

    def __init__(self, seed: int, horizon: float = 30.0) -> None:
        self.seed = seed
        self.horizon = horizon

    def sample(self, index: int) -> ChaosSpec:
        rng = SplitMix64(SplitMix64(self.seed).next_u64() ^
                         SplitMix64(index + 1).next_u64())
        workload = rng.choice(("none", "none", "none",
                               "smart-city", "energy", "mobility"))
        topology = TopologyAxis(sites=rng.randint(2, 4),
                                devices_per_site=rng.randint(1, 2))
        traffic = self._sample_traffic(rng)
        faults = self._sample_faults(rng, topology)
        adversary = self._sample_adversary(rng)
        maturity = rng.randint(1, 4)
        return ChaosSpec(
            workload=workload, topology=topology, traffic=traffic,
            faults=faults, adversary=adversary, maturity=maturity,
            horizon=self.horizon, seed=rng.randint(1, 1 << 30),
        )

    def _sample_traffic(self, rng: SplitMix64) -> TrafficAxis:
        pattern = rng.choice(("none", "steady", "overload",
                              "retry-storm", "retry-storm"))
        if pattern == "none":
            return TrafficAxis()
        if pattern == "steady":
            users = rng.randint(1000, 2500)
        elif pattern == "overload":
            users = rng.randint(6500, 9000)       # 260-360/s vs 200/s
        else:
            users = rng.randint(3000, 4000)       # 120-160/s vs 200/s
        return TrafficAxis(pattern=pattern, users=users, rate_per_user=0.04)

    def _sample_faults(self, rng: SplitMix64,
                       topology: TopologyAxis) -> Tuple[FaultEvent, ...]:
        count = rng.choice((0, 1, 1, 2))
        faults: List[FaultEvent] = []
        for _ in range(count):
            kind = rng.choice(("crash", "crash", "partition",
                               "latency", "link"))
            at = round(rng.uniform(4.0, 0.4 * self.horizon), 2)
            duration = round(rng.uniform(3.0, 8.0), 2)
            edge = f"edge{rng.randint(0, topology.sites - 1)}"
            if kind in ("latency", "link"):
                # Every edge has a link to the cloud in the landscape.
                target = f"{edge}:cloud"
            else:
                target = edge
            faults.append(FaultEvent(kind=kind, at=at, duration=duration,
                                     target=target))
        return tuple(faults)

    def _sample_adversary(self, rng: SplitMix64) -> AdversaryAxis:
        attack = rng.choice(("none", "none", "none",
                             "flood", "sybil-flood"))
        if attack == "none":
            return AdversaryAxis()
        return AdversaryAxis(attack=attack,
                             at=round(rng.uniform(3.0, 8.0), 2),
                             rate=round(rng.uniform(400.0, 800.0), 1))


# --------------------------------------------------------------------------- #
# Case evaluation
# --------------------------------------------------------------------------- #
@dataclass
class CaseResult:
    """One spec's verdict: SLO breaches + gate failures + identity."""

    spec: ChaosSpec
    violations: Tuple[str, ...]
    gates: Dict[str, Any]
    digest: str
    events: int
    wall_s: float

    @property
    def violated(self) -> bool:
        return bool(self.violations)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "describe": self.spec.describe(),
            "spec_digest": self.spec.digest(),
            "violations": list(self.violations),
            "gates": dict(self.gates),
            "digest": self.digest,
            "events": self.events,
            "wall_s": self.wall_s,
        }


def run_case(spec: ChaosSpec,
             compiler: Optional[ScenarioCompiler] = None) -> CaseResult:
    """Compile, run and judge one spec (no journaling, read-only gates)."""
    from repro.persistence.runner import drive
    from repro.persistence.snapshot import system_digest

    started = time.perf_counter()
    prepared = (compiler or ScenarioCompiler()).compile(spec)
    drive(prepared.system, prepared.horizon)
    digest = system_digest(prepared.system)
    violations, gates = judge_case(spec, prepared)
    return CaseResult(spec=spec, violations=tuple(violations), gates=gates,
                      digest=digest, events=prepared.system.sim.fired_count,
                      wall_s=time.perf_counter() - started)


def judge_case(spec: ChaosSpec,
               prepared: PreparedRun) -> Tuple[List[str], Dict[str, Any]]:
    """End-state SLO breaches plus the deterministic resilience gates.

    Everything here *reads* recorded telemetry and final protocol state;
    nothing schedules events, emits traces or bumps counters, so judging
    a finished run never perturbs its journal or digest.
    """
    violations: List[str] = []
    gates: Dict[str, Any] = {}
    monitor = prepared.aux.get("monitor")
    if monitor is not None:
        for status in monitor.breached_now:
            violations.append(f"slo:{status.spec.name}")
            gates[f"slo:{status.spec.name}"] = {
                "measured": status.measured,
                "objective": status.spec.objective,
            }
    recovery = _recovery_gate(spec, prepared)
    if recovery is not None:
        gates["goodput-recovery"] = recovery
        if not recovery["ok"]:
            violations.append("gate:goodput-recovery")
    sybil = _sybil_gate(prepared)
    if sybil is not None:
        gates["sybil-admitted"] = sybil
        if not sybil["ok"]:
            violations.append("gate:sybil-admitted")
    return violations, gates


def _recovery_gate(spec: ChaosSpec,
                   prepared: PreparedRun) -> Optional[Dict[str, Any]]:
    """Post-disruption goodput must recover to >=80% of the sustainable rate."""
    if spec.traffic.pattern == "none":
        return None
    from repro.traffic.client import COMPLETIONS_SERIES
    from repro.traffic.stats import windowed_rate

    heals = [f.at + f.duration for f in spec.faults]
    start = max(heals) + RECOVERY_GRACE if heals else spec.horizon / 2.0
    if start >= spec.horizon - 1.0:
        # The disruption never heals inside the horizon; the end-state
        # SLO is the authority for such specs.
        return None
    recovered = windowed_rate(prepared.system.metrics, COMPLETIONS_SERIES,
                              start, spec.horizon)
    expected = min(spec.traffic.offered_rate, EDGE_CAPACITY)
    floor = RECOVERY_FRACTION * expected
    return {"ok": recovered >= floor, "window": [start, spec.horizon],
            "recovered_goodput": round(recovered, 3),
            "floor": round(floor, 3), "expected": round(expected, 3)}


def _sybil_gate(prepared: PreparedRun) -> Optional[Dict[str, Any]]:
    """No fabricated identity may survive in any honest membership view."""
    members = prepared.aux.get("members")
    attacker = prepared.aux.get("attacker")
    if not members:
        return None
    sybils = sorted({m for edge, protocol in members.items()
                     if edge != attacker
                     for m in protocol.members()
                     if m.startswith("sybil-")})
    return {"ok": not sybils, "sybil_members": sybils,
            "sybil_count": len(sybils)}


# --------------------------------------------------------------------------- #
# Campaign driver
# --------------------------------------------------------------------------- #
@dataclass
class CampaignFinding:
    """One violation: the spec as found, and as shrunk."""

    case: CaseResult
    shrunk: ChaosSpec
    shrunk_violations: Tuple[str, ...]
    shrink_attempts: int
    bundle: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "found": self.case.to_dict(),
            "shrunk_spec": self.shrunk.to_dict(),
            "shrunk_describe": self.shrunk.describe(),
            "shrunk_digest": self.shrunk.digest(),
            "shrunk_violations": list(self.shrunk_violations),
            "shrink_attempts": self.shrink_attempts,
            "bundle": self.bundle,
        }


@dataclass
class CampaignResult:
    seed: int
    cases: List[CaseResult] = field(default_factory=list)
    findings: List[CampaignFinding] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def violation_count(self) -> int:
        return sum(1 for case in self.cases if case.violated)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "runs": len(self.cases),
            "violations": self.violation_count,
            "cases": [case.to_dict() for case in self.cases],
            "findings": [finding.to_dict() for finding in self.findings],
            "wall_s": self.wall_s,
        }


class ChaosCampaign:
    """Seeded sweep: sample, run, judge, shrink, emit.

    ``corpus_dir=None`` skips bundle emission (pure search);
    ``shrink=False`` keeps found specs as-is.  ``progress`` (if given)
    receives one human line per case.
    """

    def __init__(self, seed: int, runs: int = 6, horizon: float = 30.0,
                 shrink: bool = True, corpus_dir: Optional[str] = None,
                 progress: Optional[Any] = None) -> None:
        if runs <= 0:
            raise ValueError("runs must be positive")
        self.seed = seed
        self.runs = runs
        self.sampler = SpecSampler(seed, horizon=horizon)
        self.shrink = shrink
        self.corpus_dir = corpus_dir
        self.progress = progress

    def _say(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def run(self) -> CampaignResult:
        from repro.chaos.shrink import shrink_spec

        started = time.perf_counter()
        result = CampaignResult(seed=self.seed)
        for index in range(self.runs):
            spec = self.sampler.sample(index)
            case = run_case(spec)
            result.cases.append(case)
            verdict = (", ".join(case.violations) if case.violated else "ok")
            self._say(f"case {index}: {spec.describe()} -> {verdict}")
            if not case.violated:
                continue
            shrunk, shrunk_violations, attempts = spec, case.violations, 0
            if self.shrink:
                report = shrink_spec(spec)
                shrunk = report.spec
                shrunk_violations = report.violations
                attempts = report.attempts
                self._say(f"  shrunk {spec.axis_count()} -> "
                          f"{shrunk.axis_count()} axes in {attempts} "
                          f"attempts: {shrunk.describe()}")
            finding = CampaignFinding(case=case, shrunk=shrunk,
                                      shrunk_violations=shrunk_violations,
                                      shrink_attempts=attempts)
            if self.corpus_dir is not None:
                from repro.chaos.corpus import emit_bundle

                finding.bundle = emit_bundle(
                    shrunk, self.corpus_dir,
                    violations=shrunk_violations,
                    campaign_seed=self.seed, case_index=index)
                self._say(f"  corpus bundle: {finding.bundle}")
            result.findings.append(finding)
        result.wall_s = time.perf_counter() - started
        return result
