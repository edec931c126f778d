"""SWIM-style membership protocol.

Implements the structure of SWIM (Das et al., DSN 2002): periodic random
probing with indirect probes through ``k`` proxies before suspicion, and
piggybacked dissemination of membership updates on protocol messages.
Versioned updates (incarnation numbers) let a falsely suspected node refute
suspicion -- the property that makes membership robust to the transient
latency spikes the fault injector produces.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.network.transport import Message, Network
from repro.simulation.kernel import Simulator


class MemberState(enum.Enum):
    ALIVE = "alive"
    SUSPECT = "suspect"
    DEAD = "dead"


@dataclass
class _MemberInfo:
    state: MemberState
    incarnation: int
    since: float


class MembershipProtocol:
    """One node's view of cluster membership, SWIM-style.

    Parameters
    ----------
    probe_period:
        Interval between probe rounds.
    probe_timeout:
        How long to wait for an ack (direct or indirect) before suspecting.
    suspicion_timeout:
        How long a member stays SUSPECT before being declared DEAD.
    indirect_probes:
        Number of proxy nodes asked to ping on our behalf.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: str,
        seeds: List[str],
        rng: random.Random,
        probe_period: float = 1.0,
        probe_timeout: float = 0.5,
        suspicion_timeout: float = 4.0,
        indirect_probes: int = 2,
        piggyback_count: int = 6,
        on_change: Optional[Callable[[str, MemberState], None]] = None,
        update_filter: Optional[Callable[[Optional[str], str, str, int], bool]] = None,
        evidence: Optional[Callable[[str, str], None]] = None,
        max_incarnation_jump: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.rng = rng
        self.probe_period = probe_period
        self.probe_timeout = probe_timeout
        self.suspicion_timeout = suspicion_timeout
        self.indirect_probes = indirect_probes
        self.piggyback_count = piggyback_count
        self.on_change = on_change
        # Security hooks (all optional, default-off): ``update_filter``
        # gates adoption of unknown members, ``evidence`` reports
        # suspicious carriers to a trust registry, ``max_incarnation_jump``
        # rejects forged sequence numbers.
        self.update_filter = update_filter
        self.evidence = evidence
        self.max_incarnation_jump = max_incarnation_jump
        self.incarnation = 0
        self._members: Dict[str, _MemberInfo] = {
            node_id: _MemberInfo(MemberState.ALIVE, 0, sim.now)
        }
        for seed in seeds:
            if seed != node_id:
                self._members[seed] = _MemberInfo(MemberState.ALIVE, 0, sim.now)
        # Updates pending dissemination: name -> (state, incarnation).
        self._updates: Dict[str, Tuple[str, int]] = {}
        self._pending_acks: Dict[int, str] = {}
        self._probe_seq = 0
        self._running = False
        for kind in ("swim.ping", "swim.ack", "swim.ping_req", "swim.indirect_ack"):
            network.register(node_id, kind, self._dispatch)

    # -- public API ---------------------------------------------------------- #
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._probe_round(self.sim)

    def evict(self, node: str) -> bool:
        """Administratively declare ``node`` dead (intrusion response).

        The eviction disseminates through normal piggybacking at a bumped
        incarnation, so peers adopt it over the member's last ALIVE state.
        """
        info = self._members.get(node)
        if node == self.node_id or info is None or info.state == MemberState.DEAD:
            return False
        self._set_state(node, MemberState.DEAD, info.incarnation + 1)
        return True

    def members(self, state: Optional[MemberState] = None) -> List[str]:
        if state is None:
            return sorted(self._members)
        return sorted(n for n, info in self._members.items() if info.state == state)

    def alive_members(self) -> List[str]:
        return self.members(MemberState.ALIVE)

    def state_of(self, node: str) -> Optional[MemberState]:
        info = self._members.get(node)
        return info.state if info else None

    # -- probe rounds -------------------------------------------------------- #
    def _probe_round(self, sim: Simulator) -> None:
        if self.network.node_up(self.node_id):
            target = self._pick_probe_target()
            if target is not None:
                self._probe(target)
        sim.schedule(self.probe_period, self._probe_round,
                     label=f"swim:{self.node_id}")

    def _pick_probe_target(self) -> Optional[str]:
        candidates = [
            n for n, info in self._members.items()
            if n != self.node_id and info.state != MemberState.DEAD
        ]
        if not candidates:
            return None
        return self.rng.choice(sorted(candidates))

    def _probe(self, target: str) -> None:
        self._probe_seq += 1
        seq = self._probe_seq
        self._pending_acks[seq] = target
        self._send(target, "swim.ping", {"seq": seq, "from": self.node_id})
        self.sim.schedule(
            self.probe_timeout,
            lambda _s, s=seq, t=target: self._direct_timeout(s, t),
            label=f"swim-timeout:{self.node_id}",
        )

    def _direct_timeout(self, seq: int, target: str) -> None:
        if seq not in self._pending_acks:
            return
        # Direct probe failed; try indirect probes through k proxies.
        proxies = [
            n for n in self.alive_members()
            if n not in (self.node_id, target)
        ]
        self.rng.shuffle(proxies)
        proxies = proxies[: self.indirect_probes]
        if not proxies:
            self._finish_probe(seq, target, acked=False)
            return
        for proxy in proxies:
            self._send(proxy, "swim.ping_req",
                       {"seq": seq, "from": self.node_id, "target": target})
        self.sim.schedule(
            self.probe_timeout * 2,
            lambda _s, s=seq, t=target: self._indirect_timeout(s, t),
            label=f"swim-indirect-timeout:{self.node_id}",
        )

    def _indirect_timeout(self, seq: int, target: str) -> None:
        self._finish_probe(seq, target, acked=False)

    def _finish_probe(self, seq: int, target: str, acked: bool) -> None:
        if seq not in self._pending_acks:
            return
        del self._pending_acks[seq]
        if not acked:
            self._suspect(target)

    # -- state transitions ----------------------------------------------------#
    def _suspect(self, node: str) -> None:
        info = self._members.get(node)
        if info is None or info.state != MemberState.ALIVE:
            return
        self._set_state(node, MemberState.SUSPECT, info.incarnation)
        self.sim.schedule(
            self.suspicion_timeout,
            lambda _s, n=node, inc=info.incarnation: self._confirm_dead(n, inc),
            label=f"swim-suspicion:{self.node_id}",
        )

    def _confirm_dead(self, node: str, incarnation: int) -> None:
        info = self._members.get(node)
        if info is not None and info.state == MemberState.SUSPECT and info.incarnation == incarnation:
            self._set_state(node, MemberState.DEAD, incarnation)

    def _set_state(self, node: str, state: MemberState, incarnation: int) -> None:
        info = self._members.get(node)
        changed = info is None or info.state != state or info.incarnation != incarnation
        self._members[node] = _MemberInfo(state, incarnation, self.sim.now)
        self._updates[node] = (state.value, incarnation)
        if changed and self.on_change is not None and node != self.node_id:
            self.on_change(node, state)

    # -- messaging --------------------------------------------------------- #
    def _send(self, dst: str, kind: str, payload: dict) -> None:
        payload = dict(payload)
        payload["updates"] = self._collect_piggyback()
        self.network.send(self.node_id, dst, kind, payload=payload, size_bytes=128)

    def _collect_piggyback(self) -> List[Tuple[str, str, int]]:
        items = sorted(self._updates.items())[: self.piggyback_count]
        return [(node, state, inc) for node, (state, inc) in items]

    def _dispatch(self, message: Message) -> None:
        payload = message.payload or {}
        self._apply_updates(payload.get("updates", ()), src=message.src)
        kind = message.kind
        if kind == "swim.ping":
            # Echo proxy bookkeeping so the proxy can route the ack home.
            ack = {"seq": payload["seq"], "from": self.node_id}
            if "proxy_for" in payload:
                ack["proxy_for"] = payload["proxy_for"]
                ack["orig_seq"] = payload["orig_seq"]
            self._send(message.src, "swim.ack", ack)
        elif kind == "swim.ack":
            requester = payload.get("proxy_for")
            if requester is not None:
                # We proxied this ping; relay the good news to the requester.
                self._send(requester, "swim.indirect_ack",
                           {"seq": payload["orig_seq"], "from": self.node_id,
                            "target": message.src})
                self._mark_alive(message.src)
                return
            seq = payload["seq"]
            target = self._pending_acks.get(seq)
            if target is not None:
                self._finish_probe(seq, target, acked=True)
                self._mark_alive(message.src)
        elif kind == "swim.ping_req":
            # Probe the target on the requester's behalf.
            self._send(payload["target"], "swim.ping",
                       {"seq": self._next_proxy_seq(), "from": self.node_id,
                        "proxy_for": payload["from"], "orig_seq": payload["seq"]})
        elif kind == "swim.indirect_ack":
            seq = payload["seq"]
            target = self._pending_acks.get(seq)
            if target is not None:
                self._finish_probe(seq, target, acked=True)
                self._mark_alive(payload.get("target", message.src))

    def _next_proxy_seq(self) -> int:
        self._probe_seq += 1
        return self._probe_seq

    def _mark_alive(self, node: str) -> None:
        info = self._members.get(node)
        if info is None or info.state != MemberState.ALIVE:
            inc = info.incarnation if info else 0
            self._set_state(node, MemberState.ALIVE, inc)

    def _apply_updates(self, updates, src: Optional[str] = None) -> None:
        for node, state_str, incarnation in updates:
            if node == self.node_id:
                # Refute suspicion of ourselves with a higher incarnation.
                if state_str in (MemberState.SUSPECT.value, MemberState.DEAD.value) \
                        and incarnation >= self.incarnation:
                    self.incarnation = incarnation + 1
                    self._set_state(self.node_id, MemberState.ALIVE, self.incarnation)
                    if self.evidence is not None and src is not None:
                        # Someone is spreading rumors of our demise; the
                        # carrier earns distrust whether it originated the
                        # forgery or merely relayed it.
                        self.evidence(src, "refuted-piggyback")
                continue
            incoming = MemberState(state_str)
            info = self._members.get(node)
            if info is None:
                # Unknown member: a join.  With an update filter installed,
                # joins are trust-gated (known identity, trusted carrier);
                # rejected joins are simply not adopted.
                if self.update_filter is not None and not self.update_filter(
                        src, node, state_str, incarnation):
                    continue
                self._set_state(node, incoming, incarnation)
                continue
            if self.max_incarnation_jump is not None and \
                    incarnation > info.incarnation + self.max_incarnation_jump:
                # Incarnations advance by one per refutation; a huge jump
                # is a forged sequence number, not a fast node.
                if self.evidence is not None and src is not None:
                    self.evidence(src, "impossible-incarnation")
                continue
            if incarnation > info.incarnation:
                self._set_state(node, incoming, incarnation)
            elif incarnation == info.incarnation and _precedence(incoming) > _precedence(info.state):
                self._set_state(node, incoming, incarnation)


def _precedence(state: MemberState) -> int:
    """SWIM update precedence at equal incarnation: dead > suspect > alive."""
    return {MemberState.ALIVE: 0, MemberState.SUSPECT: 1, MemberState.DEAD: 2}[state]
