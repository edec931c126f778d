"""Bully leader election.

Garcia-Molina's bully algorithm over the datagram transport: the highest
node id that answers wins.  Elections trigger on demand (typically from a
failure-detector suspicion of the current leader).  Used by the ML3
archetype, where each edge site elects a local coordinator, and contrasted
with Raft (which elects by quorum and tolerates partitions safely).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.network.transport import Message, Network
from repro.simulation.kernel import Simulator


class BullyElection:
    """One node's participation in bully elections among ``peers``.

    Parameters
    ----------
    response_timeout:
        How long to wait for higher-id nodes to answer before declaring
        ourselves leader.
    on_leader:
        Callback ``(leader_id)`` whenever this node learns a new leader.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: str,
        peers: List[str],
        response_timeout: float = 1.0,
        on_leader: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.peers = sorted(p for p in peers if p != node_id)
        self.response_timeout = response_timeout
        self.on_leader = on_leader
        self.leader: Optional[str] = None
        self.elections_started = 0
        self._election_round = 0
        self._awaiting_round: Optional[int] = None
        self._got_answer = False
        network.register(node_id, "bully.election", self._on_election)
        network.register(node_id, "bully.answer", self._on_answer)
        network.register(node_id, "bully.coordinator", self._on_coordinator)

    # -- public API ------------------------------------------------------ #
    def start_election(self) -> None:
        """Challenge all higher-id nodes; become leader if none answers."""
        if not self.network.node_up(self.node_id):
            return
        self.elections_started += 1
        self._election_round += 1
        round_id = self._election_round
        self._awaiting_round = round_id
        self._got_answer = False
        higher = [p for p in self.peers if p > self.node_id]
        if not higher:
            self._become_leader()
            return
        for peer in higher:
            self.network.send(self.node_id, peer, "bully.election",
                              payload={"from": self.node_id}, size_bytes=48)
        self.sim.schedule(
            self.response_timeout,
            lambda _s, r=round_id: self._response_deadline(r),
            label=f"bully-timeout:{self.node_id}",
        )

    @property
    def is_leader(self) -> bool:
        return self.leader == self.node_id

    # -- internals ----------------------------------------------------------- #
    def _response_deadline(self, round_id: int) -> None:
        if self._awaiting_round != round_id:
            return
        self._awaiting_round = None
        if not self._got_answer:
            self._become_leader()
        # If an answer arrived, a higher node has taken over the election;
        # we wait for its coordinator announcement (or re-elect later on
        # suspicion).

    def _become_leader(self) -> None:
        self._set_leader(self.node_id)
        for peer in self.peers:
            self.network.send(self.node_id, peer, "bully.coordinator",
                              payload={"leader": self.node_id}, size_bytes=48)

    def _set_leader(self, leader: str) -> None:
        changed = leader != self.leader
        self.leader = leader
        if changed and self.on_leader is not None:
            self.on_leader(leader)

    def _on_election(self, message: Message) -> None:
        challenger = message.payload["from"]
        if challenger < self.node_id:
            self.network.send(self.node_id, challenger, "bully.answer",
                              payload={"from": self.node_id}, size_bytes=48)
            # A lower node thinks the leader is gone; take over the election.
            if self._awaiting_round is None:
                self.start_election()

    def _on_answer(self, _message: Message) -> None:
        self._got_answer = True

    def _on_coordinator(self, message: Message) -> None:
        self._awaiting_round = None
        self._set_leader(message.payload["leader"])
