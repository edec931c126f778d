"""Serializable cross-shard mailboxes.

An :class:`Envelope` is the only thing that crosses a shard boundary:
a frozen, JSON-exact record of one inter-domain send.  Envelopes are
collected into per-window outboxes at the sending shard, exchanged at
lookahead barriers by the federation driver, and injected into the
receiving shard's kernel sorted by ``sort_key`` — a total order of
``(arrival, src_domain, seq)`` that every shard layout produces
identically, which is what makes the federation digest independent of
``--shards`` / ``--workers``.

In-order delivery per (src, dst) pair falls out of the design rather
than being enforced: inter-domain latency is a constant per domain
pair, send times within a domain are monotone (one kernel), and ``seq``
is a per-source-domain counter, so sorting by arrival-then-seq can
never reorder two envelopes that share a pair.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional, Tuple

from ..schema import Field, check

_TEXT, _TIME = Field("string"), Field("number")

#: The wire shape; absent ``auth`` / ``personal`` take the defaults.
ENVELOPE = Field("object", fields={
    "src": _TEXT, "dst": _TEXT, "kind": _TEXT, "payload": Field("any"),
    "size_bytes": Field("integer", low=0), "src_domain": _TEXT,
    "dst_domain": _TEXT, "sent_at": _TIME, "arrival": _TIME,
    "seq": Field("integer"), "auth": Field("string", required=False, null=True),
    "personal": Field("boolean", required=False)})


@dataclass(frozen=True)
class Envelope:
    """One cross-domain message, in transferable form."""

    src: str
    dst: str
    kind: str
    payload: Any
    size_bytes: int
    src_domain: str
    dst_domain: str
    sent_at: float
    arrival: float
    seq: int
    auth: Optional[str] = None
    personal: bool = False

    @property
    def sort_key(self) -> Tuple[float, str, int]:
        """Deterministic injection order, identical on every layout."""
        return (self.arrival, self.src_domain, self.seq)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Envelope":
        return cls(**check(data, ENVELOPE))

    def body_tuple(self) -> Tuple[Any, ...]:
        """The signed portion: everything except the tag itself."""
        return (
            self.src, self.dst, self.kind, repr(self.payload),
            self.size_bytes, self.src_domain, self.dst_domain,
            self.sent_at, self.arrival, self.seq, self.personal,
        )
