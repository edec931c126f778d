"""Versioned, integrity-hashed checkpoint files.

A checkpoint is a bookmark, not a copy of the system: the scenario spec
(how to rebuild it), the barrier (simulated time + fired event count), the
whole-system digest there (how to *verify* the rebuild) and the fields the
digest hashes (how to say *what* drifted); a resume rebuilds and
re-executes to the barrier.  The file is JSON with a SHA-256 integrity
hash over the canonical encoding of the payload, so bit rot, truncation
and hand-editing are all detected at load time.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from math import isfinite
from typing import Any, Dict, Optional

from repro.persistence.scenarios import ScenarioSpec
from repro.persistence.snapshot import canonical_json, state_digest

CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Raised for corrupt, incompatible or mismatched checkpoints."""


@dataclass
class Checkpoint:
    """One saved barrier of a run.

    Attributes
    ----------
    scenario:
        Serialized :class:`~repro.persistence.scenarios.ScenarioSpec`.
    time / fired:
        The barrier: simulated clock and kernel fired-event count.
    digest:
        Whole-system digest at the barrier; a resume *must* reproduce it.
    digest_every:
        Journal digest cadence the run was recorded with (a resumed run
        must keep the cadence or its digest chain would not line up).
    state:
        ``digest_fields`` (the ``system_digest_state`` that ``digest``
        hashes; a mismatching resume compares it field by field) or a
        federation shard's ``window``/``shard`` position.  Never restored
        from: other keys (the ``kernel``/``rngs``/``fleet`` sections older
        files carry) are ignored.
    """

    scenario: Dict[str, Any]
    time: float
    fired: int
    digest: str
    digest_every: int = 25
    state: Dict[str, Any] = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION

    # -- persistence -------------------------------------------------------- #
    def to_payload(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "scenario": self.scenario,
            "time": self.time,
            "fired": self.fired,
            "digest": self.digest,
            "digest_every": self.digest_every,
            "state": self.state,
        }

    def save(self, path: str) -> int:
        """Write atomically; returns the file size in bytes."""
        payload = self.to_payload()
        document = {"payload": payload,
                    "integrity": state_digest(payload)}
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        return os.path.getsize(path)

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        try:
            with open(path, encoding="utf-8") as fh:
                document = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: unreadable checkpoint: {exc}") from exc
        if (not isinstance(document, dict) or "integrity" not in document
                or not isinstance(document.get("payload"), dict)):
            raise CheckpointError(f"{path}: not a checkpoint file")
        payload = document["payload"]
        expected = document["integrity"]
        actual = state_digest(_normalize(payload))
        if actual != expected:
            raise CheckpointError(
                f"{path}: integrity hash mismatch (file corrupted or edited): "
                f"recorded {expected[:12]}..., computed {actual[:12]}...")
        if payload.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: unsupported checkpoint version "
                f"{payload.get('version')!r} (want {CHECKPOINT_VERSION})")
        # The integrity hash only proves the payload is what was written;
        # a well-formed file of the wrong shape must still fail closed.
        try:
            ScenarioSpec.from_dict(payload["scenario"])
            digest, state = payload["digest"], payload.get("state", {})
            if not isinstance(digest, str) or not isinstance(state, dict):
                raise ValueError("digest must be a string, state an object")
            time = payload["time"]
            if type(time) not in (int, float) or not isfinite(time):
                raise ValueError(f"'time' is not a finite number: {time!r}")
            return cls(
                scenario=payload["scenario"],
                time=float(time),
                fired=_count(payload["fired"], "fired"),
                digest=digest,
                digest_every=_count(payload.get("digest_every", 25),
                                    "digest_every"),
                state=state,
                version=payload["version"],
            )
        except KeyError as exc:
            raise CheckpointError(
                f"{path}: checkpoint payload lacks {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            # OverflowError: an integer 'time' too large for a float.
            raise CheckpointError(
                f"{path}: malformed checkpoint payload: {exc}") from exc


def _count(value: Any, name: str) -> int:
    """``value`` if it is an ``int`` >= 0: a bool, a float (``2.7``,
    ``1e999``) or a string is no event count."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{name!r} is not a non-negative integer: {value!r}")
    return value


def _normalize(payload: Any) -> Any:
    """Round-trip through canonical JSON so the integrity hash computed at
    load time sees exactly what was hashed at save time (e.g. tuples that
    became lists)."""
    return json.loads(canonical_json(payload))


def default_paths(directory: str) -> Dict[str, str]:
    """The canonical file layout inside a checkpoint directory."""
    return {
        "checkpoint": os.path.join(directory, "checkpoint.json"),
        "journal": os.path.join(directory, "journal.jsonl"),
        "divergence": os.path.join(directory, "divergence.json"),
    }
