"""Chaos plane: declarative specs, seeded search, shrinking, corpus.

The subsystem that makes resilience claims searchable instead of
anecdotal (ROADMAP "declarative scenario language + chaos-search
campaigns"; paper SSV-SSVI):

- :mod:`repro.chaos.spec` -- :class:`ChaosSpec`, one frozen value per
  point of the topology x workload x traffic x fault x adversary x
  maturity cross-product, with exact dict/JSON round-trip.
- :mod:`repro.chaos.compiler` -- :class:`ScenarioCompiler` wires a spec
  onto the existing plane builders (registered as persistence scenario
  ``"chaos"``, so checkpoint/resume/replay work unchanged).
- :mod:`repro.chaos.campaign` -- :class:`ChaosCampaign`, a seeded
  SplitMix64 sweep judging each run against the SLO monitor and the
  resilience gates.
- :mod:`repro.chaos.shrink` -- greedy deterministic single-axis
  minimization of failing specs.
- :mod:`repro.chaos.corpus` -- replay-verified failure bundles under
  ``corpus/``, regression scenarios forever.
"""

# Eager on purpose (library packages export lazily, repro/_lazy.py):
# whoever imports this package is about to run, and ``run_case`` executes
# inside the benchmark's timed regions, so what it imports is compiled at
# start-up (DESIGN.md §4, "Import what runs").
from repro.chaos.campaign import (
    CampaignFinding,
    CampaignResult,
    CaseResult,
    ChaosCampaign,
    SpecSampler,
    judge_case,
    run_case,
)
from repro.chaos.compiler import CompileError, ScenarioCompiler, compile_spec
from repro.chaos.corpus import (
    BundleVerdict,
    corpus_bundles,
    emit_bundle,
    load_bundle_spec,
    persistence_spec,
    replay_bundle,
    replay_corpus,
)
from repro.chaos.shrink import ShrinkReport, shrink_spec
from repro.chaos.spec import (
    ADVERSARIES,
    AdversaryAxis,
    ChaosSpec,
    FAULT_KINDS,
    FaultEvent,
    MATURITY_LEVELS,
    SplitMix64,
    TRAFFIC_PATTERNS,
    TopologyAxis,
    TrafficAxis,
    WORKLOADS,
)

__all__ = [
    "ADVERSARIES",
    "AdversaryAxis",
    "BundleVerdict",
    "CampaignFinding",
    "CampaignResult",
    "CaseResult",
    "ChaosCampaign",
    "ChaosSpec",
    "CompileError",
    "FAULT_KINDS",
    "FaultEvent",
    "MATURITY_LEVELS",
    "ScenarioCompiler",
    "ShrinkReport",
    "SpecSampler",
    "SplitMix64",
    "TRAFFIC_PATTERNS",
    "TopologyAxis",
    "TrafficAxis",
    "WORKLOADS",
    "compile_spec",
    "corpus_bundles",
    "emit_bundle",
    "judge_case",
    "load_bundle_spec",
    "persistence_spec",
    "replay_bundle",
    "replay_corpus",
    "run_case",
    "shrink_spec",
]
