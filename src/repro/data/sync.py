"""Replica stores and anti-entropy synchronization.

A :class:`ReplicaStore` holds named CRDTs on one device; the
:class:`SyncProtocol` periodically exchanges copies with peer replicas and
merges -- push-pull anti-entropy, the decentralized synchronization §VI.B
calls for.  Every exchange passes through an optional *flow guard*
(installed by :mod:`repro.governance`) which can veto the transfer; denied
transfers are counted and traced, which is how the Fig. 4 experiment
verifies zero policy violations.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.data.crdt import Crdt
from repro.network.transport import Message, Network
from repro.simulation.kernel import Simulator
from repro.simulation.trace import TraceLog

#: guard(src_device, dst_device, crdt_name) -> (allowed, reason)
FlowGuard = Callable[[str, str, str], Tuple[bool, str]]


class ReplicaStore:
    """Named CRDT instances living on one device."""

    def __init__(self, device_id: str) -> None:
        self.device_id = device_id
        self._crdts: Dict[str, Crdt] = {}

    def register(self, name: str, crdt: Crdt) -> Crdt:
        if name in self._crdts:
            raise ValueError(f"crdt {name!r} already registered on {self.device_id!r}")
        self._crdts[name] = crdt
        return crdt

    def get(self, name: str) -> Crdt:
        crdt = self._crdts.get(name)
        if crdt is None:
            raise KeyError(f"no crdt {name!r} on {self.device_id!r}")
        return crdt

    def has(self, name: str) -> bool:
        return name in self._crdts

    @property
    def names(self) -> List[str]:
        return sorted(self._crdts)

    def merge_in(self, name: str, remote: Crdt) -> None:
        self.get(name).merge(remote)


class SyncProtocol:
    """Periodic push-pull anti-entropy between replica stores.

    Parameters
    ----------
    peers:
        Devices this node synchronizes with (the sync overlay, not
        necessarily the physical topology).
    flow_guard:
        Optional governance hook consulted before *sending* state; both
        directions of an exchange are guarded at their respective senders.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        store: ReplicaStore,
        peers: List[str],
        rng: random.Random,
        period: float = 1.0,
        flow_guard: Optional[FlowGuard] = None,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.store = store
        self.peers = [p for p in peers if p != store.device_id]
        self.rng = rng
        self.period = period
        self.flow_guard = flow_guard
        self.trace = trace
        self.syncs_sent = 0
        self.syncs_denied = 0
        self.merges_applied = 0
        self._running = False
        network.register(store.device_id, "sync.push", self._on_push)
        network.register(store.device_id, "sync.pull", self._on_pull)

    @property
    def device_id(self) -> str:
        return self.store.device_id

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._round(self.sim)

    # -- rounds ------------------------------------------------------------ #
    def _round(self, sim: Simulator) -> None:
        if self.peers and self.network.node_up(self.device_id):
            peer = self.rng.choice(sorted(self.peers))
            self._send_state(peer, "sync.push")
        sim.schedule(self.period, self._round, label=f"sync:{self.device_id}")

    def _send_state(self, peer: str, kind: str) -> None:
        allowed_state: Dict[str, Crdt] = {}
        for name in self.store.names:
            if self.flow_guard is not None:
                allowed, reason = self.flow_guard(self.device_id, peer, name)
                if not allowed:
                    self.syncs_denied += 1
                    if self.trace is not None:
                        self.trace.emit(
                            self.sim.now, "governance", "sync-denied",
                            subject=self.device_id, peer=peer, crdt=name,
                            reason=reason,
                        )
                    continue
            # Send a deep copy: replicas must never share mutable state.
            allowed_state[name] = self.store.get(name).copy()
        if not allowed_state:
            return
        self.syncs_sent += 1
        self.network.send(
            self.device_id, peer, kind,
            payload={"from": self.device_id, "state": allowed_state},
            size_bytes=128 + 96 * len(allowed_state),
        )

    # -- handlers ----------------------------------------------------------- #
    def _on_push(self, message: Message) -> None:
        self._merge_remote(message.payload.get("state", {}))
        # Reciprocate so the exchange is symmetric (pull phase).
        self._send_state(message.src, "sync.pull")

    def _on_pull(self, message: Message) -> None:
        self._merge_remote(message.payload.get("state", {}))

    def _merge_remote(self, remote_state: Dict[str, Crdt]) -> None:
        for name, crdt in remote_state.items():
            if self.store.has(name):
                self.store.merge_in(name, crdt)
                self.merges_applied += 1


def converged(stores: List[ReplicaStore], name: str) -> bool:
    """True if all stores' replicas of ``name`` are in identical states."""
    if not stores:
        return True
    reference = stores[0].get(name)
    return all(store.get(name) == reference for store in stores[1:])
