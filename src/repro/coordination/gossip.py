"""Push-pull epidemic gossip.

Gossip is the paper's archetype of coordination without central control:
every node periodically exchanges its key-value state with a random peer,
and versioned entries (Lamport-style per-key versions with owner
tie-break) converge epidemically.  The registry, the edge coordination
experiments and the ablation study all build on this node.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.network.transport import Message, Network
from repro.simulation.kernel import Simulator


@dataclass(frozen=True)
class GossipValue:
    """A versioned entry: higher version wins; owner id breaks ties."""

    value: object
    version: int
    owner: str

    def dominates(self, other: "GossipValue") -> bool:
        if self.version != other.version:
            return self.version > other.version
        return self.owner > other.owner


class GossipNode:
    """One participant in the epidemic exchange.

    State is a ``key -> GossipValue`` map.  ``set`` bumps the key's version
    and stamps ownership; the anti-entropy round merges maps in both
    directions (push-pull), so information spreads in O(log n) expected
    rounds.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: str,
        peers: List[str],
        rng: random.Random,
        period: float = 1.0,
        fanout: int = 1,
        on_update: Optional[Callable[[str, GossipValue], None]] = None,
        evidence: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.peers = [p for p in peers if p != node_id]
        self.rng = rng
        self.period = period
        self.fanout = fanout
        self.on_update = on_update
        # Optional security hook: called as ``evidence(subject, kind)``
        # when a merge observes an owner equivocating (two different
        # values at the same version from the same owner).
        self.evidence = evidence
        self._state: Dict[str, GossipValue] = {}
        self._running = False
        self.rounds = 0
        network.register(node_id, "gossip.push", self._on_push)
        network.register(node_id, "gossip.pull", self._on_pull)

    # -- local state -------------------------------------------------------- #
    def set(self, key: str, value: object) -> GossipValue:
        """Write a key locally; the update spreads on subsequent rounds."""
        current = self._state.get(key)
        version = (current.version + 1) if current else 1
        entry = GossipValue(value=value, version=version, owner=self.node_id)
        self._state[key] = entry
        return entry

    def get(self, key: str) -> Optional[object]:
        entry = self._state.get(key)
        return entry.value if entry else None

    def entry(self, key: str) -> Optional[GossipValue]:
        return self._state.get(key)

    @property
    def keys(self) -> List[str]:
        return sorted(self._state)

    def snapshot(self) -> Dict[str, GossipValue]:
        return dict(self._state)

    # -- rounds -------------------------------------------------------------- #
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._round(self.sim)

    def stop(self) -> None:
        self._running = False

    def add_peer(self, peer: str) -> None:
        if peer != self.node_id and peer not in self.peers:
            self.peers.append(peer)

    def remove_peer(self, peer: str) -> None:
        if peer in self.peers:
            self.peers.remove(peer)

    def _round(self, sim: Simulator) -> None:
        if not self._running:
            return
        if self.peers and self.network.node_up(self.node_id):
            self.rounds += 1
            targets = self.rng.sample(sorted(self.peers), min(self.fanout, len(self.peers)))
            digest = self._serialize()
            spans = self.network.spans
            if spans is not None:
                # One span per anti-entropy round; the push (and, via
                # message-context propagation, the pull reply) nest under it.
                span = spans.start(
                    f"gossip:{self.node_id}", "coordination", sim.now,
                    node=self.node_id, round=self.rounds,
                    targets=list(targets),
                )
                with spans.use(span):
                    self._push(targets, digest)
                spans.finish(span, sim.now)
            else:
                self._push(targets, digest)
        sim.schedule(self.period, self._round, label=f"gossip:{self.node_id}")

    def _push(self, targets: List[str], digest) -> None:
        for target in targets:
            self.network.send(
                self.node_id, target, "gossip.push",
                payload={"from": self.node_id, "state": digest},
                size_bytes=64 + 48 * len(digest),
            )

    # -- message handling ------------------------------------------------------#
    def _on_push(self, message: Message) -> None:
        payload = message.payload or {}
        self._merge(payload.get("state", ()))
        # Pull phase: reply with our (post-merge) state so the exchange is
        # symmetric.
        digest = self._serialize()
        self.network.send(
            self.node_id, message.src, "gossip.pull",
            payload={"from": self.node_id, "state": digest},
            size_bytes=64 + 48 * len(digest),
        )

    def _on_pull(self, message: Message) -> None:
        payload = message.payload or {}
        self._merge(payload.get("state", ()))

    def _serialize(self) -> List[Tuple[str, object, int, str]]:
        return [
            (key, entry.value, entry.version, entry.owner)
            for key, entry in sorted(self._state.items())
        ]

    def _merge(self, remote_state) -> None:
        for key, value, version, owner in remote_state:
            incoming = GossipValue(value=value, version=version, owner=owner)
            current = self._state.get(key)
            if (self.evidence is not None and current is not None
                    and incoming.version == current.version
                    and incoming.owner == current.owner
                    and incoming.value != current.value):
                # Two values, one version, one owner: the owner told
                # different peers different stories.  The CRDT-ish merge
                # below keeps our copy (neither dominates), so without
                # this hook the split-brain would be silent.
                self.evidence(owner, "equivocation")
            if current is None or incoming.dominates(current):
                self._state[key] = incoming
                if self.on_update is not None:
                    self.on_update(key, incoming)
