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
from dataclasses import asdict, dataclass, field
from typing import Any, Dict

from repro.persistence.scenarios import SCENARIO_SPEC
from repro.persistence.snapshot import canonical_json, state_digest
from repro.schema import (Field, check, check_version, load_document,
                          write_document)

CHECKPOINT_VERSION = 1

_DOCUMENT = Field("object", fields={"payload": Field("object"),
                                    "integrity": Field("string")})

#: What a resume computes with; ``state`` is read, never restored from.
_PAYLOAD = Field("object", fields={
    "scenario": SCENARIO_SPEC,
    "time": Field("number"),
    "fired": Field("integer", low=0),
    "digest": Field("string"),
    "digest_every": Field("integer", required=False, low=0),
    "state": Field("object", required=False),
})


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
    def save(self, path: str) -> int:
        """Write atomically; returns the file size in bytes."""
        payload = asdict(self)
        write_document(path, {"payload": payload,
                              "integrity": state_digest(payload)})
        return os.path.getsize(path)

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        document = load_document(path, _DOCUMENT, CheckpointError,
                                 f"{path}: unreadable checkpoint",
                                 f"{path}: not a checkpoint file")
        payload = document["payload"]
        expected = document["integrity"]
        actual = state_digest(_normalize(payload))
        if actual != expected:
            raise CheckpointError(
                f"{path}: integrity hash mismatch (file corrupted or edited): "
                f"recorded {expected[:12]}..., computed {actual[:12]}...")
        check_version(payload, CHECKPOINT_VERSION, path, "checkpoint",
                      CheckpointError)
        # The integrity hash only proves the payload is what was written;
        # a well-formed file of the wrong shape must still fail closed.
        fields = check(payload, _PAYLOAD, f"{path}: malformed checkpoint "
                       "payload", CheckpointError)
        return cls(version=payload["version"], **fields)


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
