"""Per-shard federation gateway: the transport end of the mailbox seam.

The gateway registers itself as ``network.remote_router`` and claims
every send between *federation endpoints* in different administrative
domains.  Claimed sends become :class:`~repro.shard.mailbox.Envelope`
records with a constant per-domain-pair latency:

* destination domain hosted on **this** shard — delivered by a plain
  ``sim.schedule_at(arrival, ...)``, i.e. exactly what an unsharded run
  does.  This keeps K=1 sharded runs byte-identical to the plain
  scenario: with one shard every domain is local and the gateway never
  touches an outbox.
* destination domain hosted **elsewhere** — appended to the outbox,
  drained by the federation driver at the next lookahead barrier and
  injected into the owning shard.  Conservative lookahead (window ``W =
  min pair latency``) guarantees ``arrival > barrier`` at injection
  time, so the receiving kernel never schedules into its past.

Cross-domain traffic is authenticated (keyed BLAKE2b, per-domain keys
derived deterministically from the scenario seed) and governed: trust
below ``min_trust`` in the :class:`~repro.governance.domains
.DomainRegistry` drops with ``dropped_policy``, and personal payloads
that the destination jurisdiction may not receive drop with
``dropped_residency``.  All federation counters are plain metric
counters — layout-independent (every cross-domain send is processed
identically whether local or remote), hence safe to include in the
digest.  Outbox/mailbox *depths* depend on the shard layout, so they
are kept as wall-stat attributes and never enter metrics.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Tuple

from ..governance.domains import DomainRegistry, TrustLevel
from ..network.transport import Message
from .mailbox import Envelope

#: Truncated federation tag length (hex chars).
FED_TAG_HEX = 16


def federation_keys(seed: int, domains: Iterable[str]) -> Dict[str, bytes]:
    """Deterministic per-domain signing keys, identical on every shard."""
    return {
        dom: hashlib.blake2b(
            f"fed-key:{seed}:{dom}".encode("utf-8"), digest_size=16
        ).digest()
        for dom in sorted(domains)
    }


def sign_envelope(body: Tuple, key: bytes) -> str:
    return hashlib.blake2b(
        repr(body).encode("utf-8"), key=key, digest_size=16
    ).hexdigest()[:FED_TAG_HEX]


def canonical_payload(payload):
    """Normalize a payload to its canonical JSON-round-trip form.

    Envelopes cross shard boundaries as sorted-key JSON, so a payload
    dict built in a different insertion order would change ``repr`` —
    and with it the auth tag and the receiver's digested state — between
    the sending run and a mailbox replay.  Normalizing at *send* time
    makes the locally delivered object identical to the file
    round-tripped one on every path.  Cross-domain payloads must be
    JSON-serializable (they have to cross process boundaries); anything
    else raises ``TypeError`` here, at the send site, instead of at the
    barrier.
    """
    if payload is None or isinstance(payload, (bool, int, float, str)):
        return payload
    return json.loads(json.dumps(payload, sort_keys=True))


class FederationGateway:
    """Routes inter-domain sends into mailboxes (or the local heap)."""

    def __init__(
        self,
        system,
        latency: Dict[Tuple[str, str], float],
        registry: DomainRegistry,
        local_domains: Iterable[str],
        seed: int,
        min_trust: int = int(TrustLevel.PARTNER),
    ) -> None:
        self.system = system
        self.sim = system.sim
        self.network = system.network
        self.metrics = system.metrics
        self.latency = dict(latency)
        self.registry = registry
        self.local_domains = set(local_domains)
        self.min_trust = int(min_trust)
        self.keys = federation_keys(seed, registry.names)
        # node -> administrative domain, for federation endpoints only.
        self._endpoints: Dict[str, str] = {}
        # Per-source-domain envelope sequence numbers: combined with the
        # constant pair latency these give total-order injection that is
        # FIFO per (src, dst) pair on any shard layout.
        self._seqs: Dict[str, int] = {}
        self.outbox: List[Envelope] = []
        # Wall stats (layout-dependent — kept out of metrics/digests).
        self.outbox_peak = 0
        self.injected_total = 0
        self._count = self.metrics.increment
        self.network.remote_router = self

    # -- wiring ------------------------------------------------------------ #
    def add_endpoint(self, node: str, domain: str) -> None:
        """Mark ``node`` as ``domain``'s federation endpoint."""
        self._endpoints[node] = domain

    @property
    def lookahead(self) -> float:
        """The conservative window: minimum inter-domain latency."""
        return min(self.latency.values())

    def pair_latency(self, src_domain: str, dst_domain: str) -> float:
        return self.latency[(src_domain, dst_domain)]

    # -- remote_router protocol ------------------------------------------- #
    def routes(self, src: str, dst: str) -> bool:
        src_dom = self._endpoints.get(src)
        dst_dom = self._endpoints.get(dst)
        return (
            src_dom is not None
            and dst_dom is not None
            and src_dom != dst_dom
        )

    def send(
        self,
        src: str,
        dst: str,
        kind: str,
        payload=None,
        size_bytes: int = 256,
        personal: bool = False,
    ) -> Envelope:
        src_dom = self._endpoints[src]
        dst_dom = self._endpoints[dst]
        payload = canonical_payload(payload)
        if not personal and isinstance(payload, dict):
            # ``Network.send`` has no personal-data flag; senders mark
            # regulated payloads in-band and the gateway lifts the mark.
            personal = bool(payload.get("_personal", False))
        seq = self._seqs.get(src_dom, 0)
        self._seqs[src_dom] = seq + 1
        sent_at = self.sim.now
        env = Envelope(
            src=src, dst=dst, kind=kind, payload=payload,
            size_bytes=size_bytes, src_domain=src_dom, dst_domain=dst_dom,
            sent_at=sent_at,
            arrival=sent_at + self.pair_latency(src_dom, dst_dom),
            seq=seq, personal=personal,
        )
        env = replace(env, auth=sign_envelope(env.body_tuple(),
                                              self.keys[src_dom]))
        self._count("shard.fed.sent")
        if dst_dom in self.local_domains:
            # Same code path an unsharded run takes: deliver on the
            # local heap at the constant pair latency.
            self.sim.schedule_at(
                env.arrival, lambda _t, e=env: self.deliver(e),
                label=f"fed-deliver:{kind}",
            )
        else:
            self.outbox.append(env)
            if len(self.outbox) > self.outbox_peak:
                self.outbox_peak = len(self.outbox)
        return env

    # -- barrier exchange -------------------------------------------------- #
    def drain_outbox(self) -> List[dict]:
        """Remove and return pending outbound envelopes as dicts."""
        out = [env.to_dict() for env in self.outbox]
        self.outbox.clear()
        return out

    def inject(self, envelopes: Iterable[dict]) -> int:
        """Schedule inbound envelopes; called at a lookahead barrier.

        Envelopes are sorted by the layout-independent ``sort_key`` so
        injection order — and therefore heap tie-breaking — does not
        depend on how domains were partitioned into shards.
        """
        envs = sorted(
            (Envelope.from_dict(d) for d in envelopes),
            key=lambda env: env.sort_key,
        )
        for env in envs:
            if env.arrival < self.sim.now:
                # Lookahead makes every envelope arrive after the barrier
                # it is injected at; only a damaged inbox holds a straggler.
                self._count("shard.fed.dropped_late")
                continue
            self.sim.schedule_at(
                env.arrival, lambda _t, e=env: self.deliver(e),
                label=f"fed-deliver:{env.kind}",
            )
        self.injected_total += len(envs)
        return len(envs)

    # -- delivery ---------------------------------------------------------- #
    def deliver(self, env: Envelope) -> None:
        key = self.keys.get(env.src_domain)
        if key is None or env.auth != sign_envelope(env.body_tuple(), key):
            self._count("shard.fed.dropped_auth")
            return
        if self.registry.trust(env.dst_domain, env.src_domain) < self.min_trust:
            self._count("shard.fed.dropped_policy")
            return
        if env.personal and not self.registry.personal_export_allowed(
            env.src_domain, env.dst_domain
        ):
            self._count("shard.fed.dropped_residency")
            return
        handlers = self.network._handlers.get(env.dst, {})
        handler = handlers.get(env.kind) or handlers.get("*")
        if handler is None:
            self._count("shard.fed.dropped_unhandled")
            return
        self._count("shard.fed.delivered")
        handler(Message(
            src=env.src, dst=env.dst, kind=env.kind, payload=env.payload,
            size_bytes=env.size_bytes, sent_at=env.sent_at, auth=env.auth,
        ))
