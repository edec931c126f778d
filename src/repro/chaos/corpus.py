"""The replay-verified failure corpus.

Every violation a campaign keeps is emitted as a self-contained bundle
under ``corpus/chaos-<spec-digest>/``: the chaos spec (``spec.json``),
plus the full flight-recorder gate-incident bundle (manifest, journal,
checkpoint at the horizon, telemetry tails) produced by re-running the
spec journaled and flight-armed via
:func:`~repro.observability.flight.capture_gate_incident`.  Because the
spec is registered with the persistence registry (scenario ``"chaos"``),
:func:`replay_corpus` can rebuild each bundle's run from its embedded
spec and fast-forward to the checkpoint barrier, verifying the
whole-system digest bit-for-bit -- past failures become permanent
regression scenarios.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chaos.spec import ChaosSpec
from repro.persistence.scenarios import ScenarioSpec
from repro.schema import Field, load_document

SPEC_FILENAME = "spec.json"
MANIFEST_FILENAME = "manifest.json"
BUNDLE_PREFIX = "chaos-"


def persistence_spec(spec: ChaosSpec) -> ScenarioSpec:
    """The registry-facing identity of a chaos spec.

    Scenario ``"chaos"`` carries the whole chaos spec in its params, so
    checkpoints and journals embed everything needed to rebuild the run;
    the persistence-level seed stays ``None`` (the chaos spec owns it).
    """
    return ScenarioSpec(name="chaos", params={"spec": spec.to_dict()})


def bundle_dir(corpus_dir: str, spec: ChaosSpec) -> str:
    return os.path.join(corpus_dir, f"{BUNDLE_PREFIX}{spec.digest()}")


def emit_bundle(spec: ChaosSpec, corpus_dir: str,
                violations: Sequence[str] = (),
                campaign_seed: Optional[int] = None,
                case_index: Optional[int] = None) -> str:
    """Re-run ``spec`` journaled + flight-armed and write its bundle.

    Returns the bundle directory.  Emitting the same spec twice is
    idempotent by construction: the directory is named by the spec
    digest and the re-run is deterministic, so the bytes are identical.
    """
    from repro.observability.flight import capture_gate_incident

    directory = bundle_dir(corpus_dir, spec)
    capture_gate_incident(
        persistence_spec(spec), directory, reason="gate-failure",
        detail={
            "violations": list(violations),
            "chaos_spec": spec.to_dict(),
            "describe": spec.describe(),
            "campaign_seed": campaign_seed,
            "case_index": case_index,
        })
    with open(os.path.join(directory, SPEC_FILENAME), "w",
              encoding="utf-8") as fh:
        fh.write(spec.to_json() + "\n")
    return directory


def corpus_bundles(corpus_dir: str) -> List[str]:
    """All bundle directories in ``corpus_dir``, sorted by name."""
    if not os.path.isdir(corpus_dir):
        return []
    bundles = []
    for entry in sorted(os.listdir(corpus_dir)):
        path = os.path.join(corpus_dir, entry)
        if os.path.isdir(path) and os.path.exists(
                os.path.join(path, MANIFEST_FILENAME)):
            bundles.append(path)
    return bundles


def load_bundle_spec(path: str) -> ChaosSpec:
    """The chaos spec a bundle directory was emitted for, or the one in the
    spec file ``path``; a ``ValueError`` if it is unreadable or not of
    :data:`~repro.chaos.spec.SPEC`'s shape."""
    if os.path.isdir(path):
        path = os.path.join(path, SPEC_FILENAME)
    return ChaosSpec.from_dict(load_document(path, Field("any")))


@dataclass
class BundleVerdict:
    """One bundle's replay outcome."""

    bundle: str
    ok: bool
    digest: Optional[str] = None
    barrier_time: Optional[float] = None
    barrier_fired: Optional[int] = None
    error: Optional[str] = None
    replay_wall_s: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bundle": self.bundle,
            "ok": self.ok,
            "digest": self.digest,
            "barrier_time": self.barrier_time,
            "barrier_fired": self.barrier_fired,
            "error": self.error,
            "replay_wall_s": self.replay_wall_s,
        }


def replay_bundle(bundle: str) -> BundleVerdict:
    """Rebuild one bundle's run and verify the checkpoint digest.

    ``ok`` means :func:`~repro.observability.flight.replay_incident`
    fast-forwarded the freshly rebuilt system exactly ``fired`` events
    and the whole-system digest matched the captured one bit-for-bit --
    a byte-identical reproduction of the failing run.
    """
    from repro.observability.flight import FlightError, replay_incident

    try:
        outcome = replay_incident(bundle)
    except (FlightError, KeyError, OSError, ValueError) as exc:
        return BundleVerdict(bundle=bundle, ok=False,
                             error=f"{type(exc).__name__}: {exc}")
    return BundleVerdict(
        bundle=bundle, ok=True, digest=outcome["digest"],
        barrier_time=outcome["barrier_time"],
        barrier_fired=outcome["barrier_fired"],
        replay_wall_s=outcome["replay_wall_s"])


def replay_corpus(corpus_dir: str) -> Tuple[List[BundleVerdict], bool]:
    """Replay every bundle; returns (verdicts, all_ok).

    An empty corpus replays vacuously (``all_ok=True``) -- a fresh
    checkout with no findings yet is not a regression.
    """
    verdicts = [replay_bundle(bundle)
                for bundle in corpus_bundles(corpus_dir)]
    return verdicts, all(verdict.ok for verdict in verdicts)
