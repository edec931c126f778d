"""Named, independently seeded random streams.

Reproducibility discipline: a single integer seed fans out into one
``random.Random`` stream *per named subsystem* ("network", "faults",
"workload:traffic", ...).  Adding a new consumer of randomness therefore
never perturbs the draw sequence of existing subsystems, which keeps
recorded experiment outputs stable across code evolution.
"""

from __future__ import annotations

import hashlib
import json
import random
from array import array
from typing import Any, Dict, List, Tuple


class RngRegistry:
    """Factory of deterministic, per-name random streams.

    >>> rngs = RngRegistry(seed=42)
    >>> a = rngs.stream("network")
    >>> b = rngs.stream("faults")
    >>> a is rngs.stream("network")  # streams are cached per name
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}
        # name -> (the getstate() a digest was computed from, digest).
        self._digests: Dict[str, Tuple[tuple, str]] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        if name not in self._streams:
            self._streams[name] = random.Random(self._derive(name))
        return self._streams[name]

    def _derive(self, name: str) -> int:
        digest = hashlib.sha256(f"{self.seed}:{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def fork(self, name: str) -> "RngRegistry":
        """A child registry whose streams are independent of the parent's."""
        return RngRegistry(seed=self._derive(f"fork:{name}"))

    @property
    def stream_names(self) -> List[str]:
        return sorted(self._streams)

    # -- persistence --------------------------------------------------------- #
    def snapshot_state(self) -> Dict[str, Any]:
        """Serializable per-stream ``Random.getstate()`` for every stream.

        The Mersenne state tuple is converted to lists so the snapshot is
        JSON-able; :meth:`restore_state` converts back.
        """
        return {
            "seed": self.seed,
            "streams": {
                name: serialize_rng_state(rng)
                for name, rng in sorted(self._streams.items())
            },
        }

    def stream_digests(self) -> Dict[str, str]:
        """``{name: digest of the stream's serialized state}``, name-sorted.

        A stream is re-encoded only when its ``getstate()`` differs from the
        one its last digest was computed from.  The check is equality of the
        whole state, so anything that moves a stream (a draw, ``gauss``,
        ``setstate``, :meth:`restore_state`) is seen without being told.
        """
        out = {}
        for name, rng in sorted(self._streams.items()):
            version, internal, gauss_next = rng.getstate()
            # The same tuple, words packed: 2.5 KB a stream where 625 int
            # objects take 24 KB, and equality is as exact.
            state = (version, array("I", internal).tobytes(), gauss_next)
            memo = self._digests.get(name)
            if memo is None or memo[0] != state:
                memo = self._digests[name] = (state, rng_state_digest(rng))
            out[name] = memo[1]
        return out

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Restore every stream's draw position from :meth:`snapshot_state`.

        Streams absent from the registry are created first (via the normal
        seed derivation) so a freshly built registry restores cleanly.
        """
        self.seed = int(state["seed"])
        for name, rng_state in state["streams"].items():
            restore_rng_state(self.stream(name), rng_state)


def serialize_rng_state(rng: random.Random) -> List[Any]:
    """``Random.getstate()`` as a JSON-able ``[version, internal, gauss]``."""
    version, internal, gauss_next = rng.getstate()
    return [version, list(internal), gauss_next]


def rng_state_digest(rng: random.Random) -> str:
    """SHA-256 of the compact JSON of :func:`serialize_rng_state`.

    Byte-for-byte what ``persistence.snapshot.state_digest`` yields for the
    same serialized state (compact separators; a list has no keys to sort).
    """
    encoded = json.dumps(serialize_rng_state(rng), separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def restore_rng_state(rng: random.Random, state: List[Any]) -> None:
    """Inverse of :func:`serialize_rng_state`."""
    version, internal, gauss_next = state
    rng.setstate((version, tuple(internal), gauss_next))
