"""Raft consensus (Ongaro & Ousterhout, USENIX ATC 2014).

A faithful implementation of Raft's core: randomized-timeout leader
election, log replication with the log-matching property, quorum commit,
and state-machine application.  Snapshotting and joint-consensus membership
change are deliberately out of scope (DESIGN.md §5) -- no experiment needs
them.

Raft is the mechanism behind the ML4 archetype's coordination plane:
a replicated control log among edge nodes survives any minority of
failures and any partition that leaves a majority connected, which is
exactly the property the maturity-level experiment measures.
"""

from __future__ import annotations

import enum
import random
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.network.transport import Message, Network
from repro.simulation.kernel import Simulator

_NULL_CONTEXT = nullcontext()


class RaftRole(enum.Enum):
    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"


@dataclass
class LogEntry:
    term: int
    command: Any


class RaftNode:
    """One Raft participant.

    Parameters
    ----------
    heartbeat_interval:
        Leader's AppendEntries cadence.
    election_timeout:
        ``(min, max)`` range for the randomized follower timeout; must
        comfortably exceed round-trip latency plus heartbeat interval.
    apply:
        State-machine callback ``(index, command)`` invoked exactly once
        per committed entry, in log order.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: str,
        peers: List[str],
        rng: random.Random,
        heartbeat_interval: float = 0.5,
        election_timeout: tuple = (1.5, 3.0),
        apply: Optional[Callable[[int, Any], None]] = None,
        evidence: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        if election_timeout[0] <= heartbeat_interval * 2:
            raise ValueError("election timeout must be well above heartbeat interval")
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.peers = sorted(p for p in peers if p != node_id)
        self.rng = rng
        self.heartbeat_interval = heartbeat_interval
        self.election_timeout = election_timeout
        self.apply = apply

        # Persistent state (would survive restarts on a real deployment;
        # crash-recovery faults in the simulator keep the object alive, so
        # the persistence contract holds).
        self.current_term = 0
        self.voted_for: Optional[str] = None
        self.log: List[LogEntry] = []

        # Volatile state.
        self.role = RaftRole.FOLLOWER
        self.commit_index = 0   # 1-based index of highest committed entry
        self.last_applied = 0
        self.leader_id: Optional[str] = None

        # Leader state.
        self.next_index: Dict[str, int] = {}
        self.match_index: Dict[str, int] = {}

        self._votes_received: set = set()
        self._election_deadline = 0.0
        self._running = False
        self.elections_won = 0
        # Terms this node won an election in: the post-hoc leader-safety
        # record (any term appearing in two nodes' lists is a violation).
        self.won_terms: List[int] = []
        # Optional security hook: ``evidence(subject, kind)`` on a second
        # leadership claim in the current term.
        self.evidence = evidence
        self._election_span = None

        for kind in ("raft.request_vote", "raft.vote_reply",
                     "raft.append_entries", "raft.append_reply"):
            network.register(node_id, kind, self._dispatch)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._reset_election_timer()
        self._timer_loop(self.sim)

    def stop(self) -> None:
        self._running = False

    def _timer_loop(self, sim: Simulator) -> None:
        """Single periodic driver for both election and heartbeat timers.

        Polling at heartbeat_interval/2 keeps the event count linear in
        simulated time regardless of how many elections occur.
        """
        if not self._running:
            return
        if self.network.node_up(self.node_id):
            if self.role == RaftRole.LEADER:
                self._broadcast_append_entries()
            elif sim.now >= self._election_deadline:
                self._start_election()
        else:
            # While crashed we neither campaign nor vote; on recovery the
            # stale deadline immediately triggers a fresh election attempt.
            pass
        sim.schedule(self.heartbeat_interval / 2, self._timer_loop,
                     label=f"raft-timer:{self.node_id}")

    def _reset_election_timer(self) -> None:
        low, high = self.election_timeout
        self._election_deadline = self.sim.now + self.rng.uniform(low, high)

    # ------------------------------------------------------------------ #
    # Elections
    # ------------------------------------------------------------------ #
    def _start_election(self) -> None:
        self.current_term += 1
        self.role = RaftRole.CANDIDATE
        self.voted_for = self.node_id
        self._votes_received = {self.node_id}
        self.leader_id = None
        self._reset_election_timer()
        last_index = len(self.log)
        last_term = self.log[-1].term if self.log else 0
        spans = self.network.spans
        if spans is not None:
            # An election span lives from campaign start until won/lost;
            # a re-campaign closes the stale one as timed out.
            self._close_election_span("timeout")
            self._election_span = spans.start(
                f"election:{self.node_id}", "coordination", self.sim.now,
                node=self.node_id, term=self.current_term,
            )
        with (spans.use(self._election_span) if spans is not None
              else _NULL_CONTEXT):
            for peer in self.peers:
                self.network.send(
                    self.node_id, peer, "raft.request_vote",
                    payload={
                        "term": self.current_term,
                        "candidate": self.node_id,
                        "last_log_index": last_index,
                        "last_log_term": last_term,
                    },
                    size_bytes=96,
                )
            self._maybe_win()

    def _close_election_span(self, status: str) -> None:
        span, self._election_span = self._election_span, None
        spans = self.network.spans
        if span is not None and spans is not None:
            spans.finish(span, self.sim.now, status=status)

    def _maybe_win(self) -> None:
        if self.role != RaftRole.CANDIDATE:
            return
        if len(self._votes_received) >= self._quorum():
            self.role = RaftRole.LEADER
            self.leader_id = self.node_id
            self.elections_won += 1
            self.won_terms.append(self.current_term)
            self._close_election_span("won")
            next_idx = len(self.log) + 1
            self.next_index = {p: next_idx for p in self.peers}
            self.match_index = {p: 0 for p in self.peers}
            self._broadcast_append_entries()

    def _quorum(self) -> int:
        return (len(self.peers) + 1) // 2 + 1

    # ------------------------------------------------------------------ #
    # Log replication
    # ------------------------------------------------------------------ #
    def propose(self, command: Any) -> Optional[int]:
        """Append a command if leader; returns its (1-based) log index."""
        if self.role != RaftRole.LEADER or not self.network.node_up(self.node_id):
            return None
        self.log.append(LogEntry(term=self.current_term, command=command))
        index = len(self.log)
        self._broadcast_append_entries()
        return index

    def _broadcast_append_entries(self) -> None:
        for peer in self.peers:
            self._send_append_entries(peer)

    def _send_append_entries(self, peer: str) -> None:
        next_idx = self.next_index.get(peer, len(self.log) + 1)
        prev_index = next_idx - 1
        prev_term = self.log[prev_index - 1].term if prev_index >= 1 and prev_index <= len(self.log) else 0
        entries = [
            {"term": e.term, "command": e.command}
            for e in self.log[next_idx - 1:]
        ]
        self.network.send(
            self.node_id, peer, "raft.append_entries",
            payload={
                "term": self.current_term,
                "leader": self.node_id,
                "prev_log_index": prev_index,
                "prev_log_term": prev_term,
                "entries": entries,
                "leader_commit": self.commit_index,
            },
            size_bytes=96 + 64 * len(entries),
        )

    # ------------------------------------------------------------------ #
    # Message handling
    # ------------------------------------------------------------------ #
    def _dispatch(self, message: Message) -> None:
        if not self._running or not self.network.node_up(self.node_id):
            return
        payload = message.payload
        term = payload.get("term", 0)
        if term > self.current_term:
            self._step_down(term)
        handler = {
            "raft.request_vote": self._on_request_vote,
            "raft.vote_reply": self._on_vote_reply,
            "raft.append_entries": self._on_append_entries,
            "raft.append_reply": self._on_append_reply,
        }[message.kind]
        handler(message)

    def _step_down(self, term: int) -> None:
        self.current_term = term
        self.role = RaftRole.FOLLOWER
        self.voted_for = None
        self._close_election_span("lost")
        self._reset_election_timer()

    def _on_request_vote(self, message: Message) -> None:
        payload = message.payload
        term = payload["term"]
        candidate = payload["candidate"]
        granted = False
        if term >= self.current_term:
            log_ok = self._candidate_log_ok(
                payload["last_log_index"], payload["last_log_term"]
            )
            if (self.voted_for is None or self.voted_for == candidate) and log_ok:
                granted = True
                self.voted_for = candidate
                self._reset_election_timer()
        self.network.send(
            self.node_id, candidate, "raft.vote_reply",
            payload={"term": self.current_term, "granted": granted,
                     "from": self.node_id},
            size_bytes=48,
        )

    def _candidate_log_ok(self, last_index: int, last_term: int) -> bool:
        """Raft's election restriction: candidate log must be up to date."""
        my_last_term = self.log[-1].term if self.log else 0
        if last_term != my_last_term:
            return last_term > my_last_term
        return last_index >= len(self.log)

    def _on_vote_reply(self, message: Message) -> None:
        payload = message.payload
        if self.role != RaftRole.CANDIDATE or payload["term"] != self.current_term:
            return
        if payload["granted"]:
            self._votes_received.add(payload["from"])
            self._maybe_win()

    def _on_append_entries(self, message: Message) -> None:
        payload = message.payload
        term = payload["term"]
        if term < self.current_term:
            self._reply_append(payload["leader"], success=False, match_index=0)
            return
        if (self.evidence is not None and term == self.current_term
                and self.leader_id not in (None, payload["leader"])):
            # A second node claims leadership of the term we already have
            # a leader for -- somebody's quorum was forged.  Report the
            # observation; which claimant lied is for the trust layer to
            # weigh across vantage points.
            self.evidence(payload["leader"], "conflicting-leader")
        # Valid leader for this term.
        self.role = RaftRole.FOLLOWER
        self.leader_id = payload["leader"]
        self._reset_election_timer()

        prev_index = payload["prev_log_index"]
        prev_term = payload["prev_log_term"]
        if prev_index > len(self.log):
            self._reply_append(payload["leader"], success=False, match_index=0)
            return
        if prev_index >= 1 and self.log[prev_index - 1].term != prev_term:
            # Conflict: truncate from the mismatch and report failure so the
            # leader backs up next_index.
            del self.log[prev_index - 1:]
            self._reply_append(payload["leader"], success=False, match_index=0)
            return
        # Append/overwrite entries after prev_index.
        for offset, entry in enumerate(payload["entries"]):
            index = prev_index + offset + 1
            if index <= len(self.log):
                if self.log[index - 1].term != entry["term"]:
                    del self.log[index - 1:]
                    self.log.append(LogEntry(entry["term"], entry["command"]))
            else:
                self.log.append(LogEntry(entry["term"], entry["command"]))
        if payload["leader_commit"] > self.commit_index:
            self.commit_index = min(payload["leader_commit"], len(self.log))
            self._apply_committed()
        self._reply_append(payload["leader"], success=True,
                           match_index=prev_index + len(payload["entries"]))

    def _reply_append(self, leader: str, success: bool, match_index: int) -> None:
        self.network.send(
            self.node_id, leader, "raft.append_reply",
            payload={"term": self.current_term, "success": success,
                     "from": self.node_id, "match_index": match_index},
            size_bytes=48,
        )

    def _on_append_reply(self, message: Message) -> None:
        payload = message.payload
        if self.role != RaftRole.LEADER or payload["term"] != self.current_term:
            return
        peer = payload["from"]
        if payload["success"]:
            self.match_index[peer] = max(self.match_index.get(peer, 0),
                                         payload["match_index"])
            self.next_index[peer] = self.match_index[peer] + 1
            self._advance_commit_index()
        else:
            # Back up and retry immediately.
            self.next_index[peer] = max(1, self.next_index.get(peer, 1) - 1)
            self._send_append_entries(peer)

    def _advance_commit_index(self) -> None:
        """Commit the highest index replicated on a quorum in current term."""
        for index in range(len(self.log), self.commit_index, -1):
            if self.log[index - 1].term != self.current_term:
                # §5.4.2: only commit current-term entries by counting.
                continue
            replicas = 1 + sum(
                1 for p in self.peers if self.match_index.get(p, 0) >= index
            )
            if replicas >= self._quorum():
                self.commit_index = index
                self._apply_committed()
                break

    def _apply_committed(self) -> None:
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            if self.apply is not None:
                self.apply(self.last_applied, self.log[self.last_applied - 1].command)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def is_leader(self) -> bool:
        return self.role == RaftRole.LEADER

    def committed_commands(self) -> List[Any]:
        return [e.command for e in self.log[: self.commit_index]]


class RaftCluster:
    """Convenience: build and drive a cluster of :class:`RaftNode`.

    The cluster shares one ``apply`` ledger per node so tests and
    experiments can check the state-machine-safety invariant (all nodes
    apply identical command sequences).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_ids: List[str],
        rng: random.Random,
        heartbeat_interval: float = 0.5,
        election_timeout: tuple = (1.5, 3.0),
    ) -> None:
        if len(node_ids) < 1:
            raise ValueError("cluster needs at least one node")
        self.sim = sim
        self.applied: Dict[str, List[Any]] = {n: [] for n in node_ids}
        self.nodes: Dict[str, RaftNode] = {}
        for node_id in node_ids:
            node_rng = random.Random(rng.getrandbits(64))
            self.nodes[node_id] = RaftNode(
                sim, network, node_id, list(node_ids), node_rng,
                heartbeat_interval=heartbeat_interval,
                election_timeout=election_timeout,
                apply=self._make_apply(node_id),
            )

    def _make_apply(self, node_id: str) -> Callable[[int, Any], None]:
        def apply(_index: int, command: Any) -> None:
            self.applied[node_id].append(command)

        return apply

    def start(self) -> None:
        for node in self.nodes.values():
            node.start()

    def leader(self) -> Optional[RaftNode]:
        """The leader of the highest term, if any node currently leads."""
        leaders = [n for n in self.nodes.values() if n.is_leader]
        if not leaders:
            return None
        return max(leaders, key=lambda n: n.current_term)

    def propose(self, command: Any) -> bool:
        """Propose via the current leader; False if there is none."""
        node = self.leader()
        if node is None:
            return False
        return node.propose(command) is not None

    def state_machine_consistent(self) -> bool:
        """True if every node's applied sequence is a prefix of the longest."""
        sequences = sorted(self.applied.values(), key=len, reverse=True)
        longest = sequences[0]
        return all(seq == longest[: len(seq)] for seq in sequences[1:])
