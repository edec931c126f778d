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
from typing import Any, Dict, List, Optional, Tuple

#: 32-bit words in the Mersenne Twister state; one twist refills them all.
_MT_WORDS = 624
_mt_random = random.Random.random
_mt_getrandbits = random.Random.getrandbits


class CountedRandom(random.Random):
    """A ``random.Random`` that counts the calls and the words it draws.

    The Mersenne Twister state changes only through ``random()``,
    ``getrandbits()``, ``seed()`` and ``setstate()`` -- every other draw
    method is built on the first two -- so ``(moves, gauss_next)`` names a
    state of this object: while it reads the same, the stream has not moved.
    The first two also say *how far* it moved: ``random()`` consumes two
    32-bit words and ``getrandbits(k)`` ``ceil(k / 32)``, so ``words`` since
    the last read of ``getstate()`` gives the position word without reading
    it again.  :meth:`RngRegistry.stream_digests` keeps its memo in the
    ``_digest*`` and ``_prefix*`` attributes; ``seed()`` and ``setstate()``
    drop the prefix (the words are new), and a copied or unpickled stream is
    rebuilt from ``getstate()`` alone and so starts without one.

    ``random`` *and* ``getrandbits`` are both overridden on purpose: with
    only ``random`` in the class body, ``Random.__init_subclass__`` would
    switch ``_randbelow`` to the variant that avoids ``getrandbits`` and
    every ``choice``/``shuffle``/``sample``/``randrange`` sequence would
    differ from a plain ``random.Random`` with the same seed.
    """

    moves = 0
    words = 0
    _digest_key: Optional[Tuple[int, Optional[float]]] = None
    _digest = ""
    _prefix_hasher: Any = None
    # Position word minus ``words`` when the prefix was read.
    _prefix_offset = 0

    def random(self) -> float:
        self.moves += 1
        self.words += 2
        return _mt_random(self)

    def getrandbits(self, k: int) -> int:
        self.moves += 1
        bits = _mt_getrandbits(self, k)
        # Counted once the draw has happened: a ``k`` that raises drew nothing.
        self.words += (k + 31) >> 5
        return bits

    def seed(self, *args: Any, **kwargs: Any) -> None:
        self.moves += 1
        self._prefix_hasher = None
        super().seed(*args, **kwargs)

    def setstate(self, state: Any) -> None:
        self.moves += 1
        self._prefix_hasher = None
        super().setstate(state)


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
        self._streams: Dict[str, CountedRandom] = {}
        # Digest-memo health (plain ints, off the digest): streams whose
        # digest was recomputed, and how many of those also had to
        # re-encode their 624 state words (once per twist).
        self.streams_reencoded = 0
        self.prefix_rebuilds = 0

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        if name not in self._streams:
            self._streams[name] = CountedRandom(self._derive(name))
        return self._streams[name]

    def _derive(self, name: str) -> int:
        return derive_seed(f"{self.seed}:{name}")

    def fork(self, name: str) -> "RngRegistry":
        """A child registry whose streams are independent of the parent's."""
        return RngRegistry(seed=self._derive(f"fork:{name}"))

    @property
    def stream_names(self) -> List[str]:
        return sorted(self._streams)

    # -- persistence --------------------------------------------------------- #
    def stream_digests(self) -> Dict[str, str]:
        """``{name: rng_state_digest(stream)}``, name-sorted.

        A stream whose ``(moves, gauss_next)`` still reads what it read when
        its digest was taken has not moved and costs two attribute reads.
        ``gauss_next`` is in the key because ``gauss()`` consumes its cached
        variate without drawing.
        """
        out = {}
        for name, rng in sorted(self._streams.items()):
            if rng._digest_key != (rng.moves, rng.gauss_next):
                self._redigest(rng)
            out[name] = rng._digest
        return out

    def _redigest(self, rng: CountedRandom) -> None:
        """Recompute ``rng``'s memoised digest, hashing only the tail.

        Between twists (every 624 32-bit words drawn) a Mersenne Twister
        changes nothing but its trailing position word, so the JSON of the
        624 state words is encoded and fed to SHA-256 once per twist and
        each digest is a copy of that hasher plus ``<pos>],<gauss_next>]``.
        The position is the one read with the prefix plus the words drawn
        since.  ``getstate()`` is read only when that sum passes 624 (a
        twist replaced the words) or there is no prefix (first sight,
        ``seed()``, ``setstate()``, a copy) -- and a read that follows a
        count must find the position the count predicts.
        """
        hasher = rng._prefix_hasher
        position = rng._prefix_offset + rng.words
        if hasher is None or position > _MT_WORDS:
            version, internal, _gauss_next = rng.getstate()
            # A twist wraps the position: word 625 is read from position 1.
            counted = (position - 1) % _MT_WORDS + 1
            position = internal[-1]
            if hasher is not None and position != counted:
                raise RuntimeError(
                    f"RNG stream is at position {position} where its draw "
                    f"count says {counted}: something drew from it without "
                    f"going through CountedRandom.random()/getrandbits()")
            encoded = json.dumps([version, list(internal[:-1])],
                                 separators=(",", ":"))
            # "[3,[w0,...,w623]]" -> "[3,[w0,...,w623,"
            hasher = rng._prefix_hasher = hashlib.sha256(
                (encoded[:-2] + ",").encode("utf-8"))
            rng._prefix_offset = position - rng.words
            self.prefix_rebuilds += 1
        gauss_next = rng.gauss_next
        # Most streams never call gauss(): spare them the encoder.
        cached = "null" if gauss_next is None else json.dumps(gauss_next)
        hasher = hasher.copy()
        hasher.update(f"{position}],{cached}]".encode("utf-8"))
        rng._digest = hasher.hexdigest()
        rng._digest_key = (rng.moves, gauss_next)
        self.streams_reencoded += 1


def derive_seed(text: str) -> int:
    """A 64-bit seed from ``text`` that is the same in every process.

    SHA-256, not ``hash()``: string hashes vary with ``PYTHONHASHSEED``.
    """
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


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
