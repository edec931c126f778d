"""Attack behaviors and the adversary controller.

A compromised node keeps running its legitimate protocol stack; the
:class:`Adversary` installs one shared send-side transport interceptor
that gives the node's :class:`AttackBehavior`\\ s a chance to rewrite,
drop, delay or amplify every outbound message.  Because the security
plane installs its signing interceptor *first*, anything a behavior
rewrites afterwards no longer matches its HMAC tag -- tampering models a
compromise of the network stack *below* the node's signing layer, which
is exactly what makes it detectable by authenticated receivers.

Behaviors that rewrite payloads must **replace** ``message.payload``
rather than mutate it: protocol senders share payload sub-structures
across destinations (e.g. a gossip round pushes one digest list to every
target), and in-place mutation would corrupt the honest copies.

Active behaviors (flooding, sybil joins) additionally schedule their own
kernel events while activated, drawing all randomness from seeded
streams so runs stay checkpoint/resume-exact.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.traffic.request import REQUEST_KIND, Request, reply_kind


class AttackBehavior:
    """Base class: one attack capability installed on one node."""

    #: Short identifier used for RNG stream names and trace events.
    slug = "noop"
    #: Message kinds this behavior touches; None means every kind.
    kinds: Optional[Tuple[str, ...]] = None

    def __init__(self) -> None:
        self.plane: Any = None
        self.node: Optional[str] = None
        self.rng = None
        self.active = False
        self.tampered = 0

    def install(self, plane: Any, node: str, rng) -> None:
        self.plane = plane
        self.node = node
        self.rng = rng

    def activate(self) -> None:
        self.active = True
        self.on_activate()

    def deactivate(self) -> None:
        self.active = False
        self.on_deactivate()

    # -- hooks -------------------------------------------------------------- #
    def matches(self, message) -> bool:
        return self.kinds is None or message.kind in self.kinds

    def outbound(self, message) -> Any:
        """Rewrite/drop/delay one outbound message (interceptor contract)."""
        return None

    def on_activate(self) -> None:
        """Start generating traffic (flooders, sybil announcers)."""

    def on_deactivate(self) -> None:
        """Stop generated traffic."""


class GossipEquivocateBehavior(AttackBehavior):
    """Tell every peer a different, ever-newer story about one gossip key.

    Each outbound gossip digest gets the target key rewritten to a
    destination-specific value at a version bumped on *every* message,
    all owned by the attacker.  Every rewrite therefore dominates
    whatever the mesh last agreed on, and the attacker issues rewrites
    (pushes and pull replies) faster than the epidemic can spread any one
    of them -- so a naive (unauthenticated) mesh churns forever and never
    settles on a value, let alone the honest one.
    """

    slug = "equivocate"
    kinds = ("gossip.push", "gossip.pull")

    def __init__(self, key: str, version: int = 1_000_000) -> None:
        super().__init__()
        self.key = key
        self.version = version

    def outbound(self, message) -> Any:
        payload = message.payload or {}
        state = [entry for entry in payload.get("state", ())
                 if entry[0] != self.key]
        state.append((self.key,
                      f"equivocal:{self.node}->{message.dst}#{self.tampered}",
                      self.version + self.tampered, self.node))
        message.payload = {"from": payload.get("from", self.node),
                           "state": sorted(state)}
        self.tampered += 1
        return None


class VoteEquivocateBehavior(AttackBehavior):
    """Grant every Raft candidate and ack every append.

    Rewrites outbound ``vote_reply`` messages to ``granted: True``
    regardless of the node's actual single-vote discipline, and
    ``append_reply`` to unconditional success.  With two such liars in a
    five-node cluster, any two same-term candidates both reach quorum --
    a leader-safety violation -- unless receivers authenticate replies.
    """

    slug = "vote-equivocate"
    kinds = ("raft.vote_reply", "raft.append_reply")

    def outbound(self, message) -> Any:
        payload = dict(message.payload or {})
        if message.kind == "raft.vote_reply":
            payload["granted"] = True
        else:
            payload["success"] = True
        message.payload = payload
        self.tampered += 1
        return None


class FloodBehavior(AttackBehavior):
    """Open-loop request flood against one serving node.

    Generates validly-addressed (and, under a security plane, validly
    *signed*) ``traffic.request`` messages at ``rate`` per second -- the
    flooder is a real identity sending real requests, so authentication
    alone cannot stop it; defense is rate-based (the
    :class:`~repro.security.trust.FloodSentry`) plus admission control.
    """

    slug = "flood"

    def __init__(self, target: str, rate: float, weight: int = 1,
                 size_bytes: int = 256, batch_period: float = 0.1) -> None:
        super().__init__()
        self.target = target
        self.rate = rate
        self.weight = weight
        self.size_bytes = size_bytes
        self.batch_period = batch_period
        self._carry = 0.0
        self._req_ids = 0
        self._tick_event = None
        self._sink_registered = False

    @property
    def client_name(self) -> str:
        return f"flood-{self.node}"

    def on_activate(self) -> None:
        network = self.plane.system.network
        if not self._sink_registered:
            # Swallow server replies so they don't count as unreachable.
            network.register(self.node, reply_kind(self.client_name),
                             lambda message: None)
            self._sink_registered = True
        if self._tick_event is None:
            self._tick_event = self.plane.system.sim.schedule(
                self.batch_period, self._tick,
                label=f"security.flood:{self.node}")

    def on_deactivate(self) -> None:
        if self._tick_event is not None and self._tick_event.pending:
            self.plane.system.sim.cancel(self._tick_event)
        self._tick_event = None

    def _tick(self, sim) -> None:
        if not self.active:
            self._tick_event = None
            return
        network = self.plane.system.network
        self._carry += self.rate * self.batch_period
        burst = int(self._carry)
        self._carry -= burst
        for _ in range(burst):
            self._req_ids += 1
            request = Request(req_id=self._req_ids, client=self.client_name,
                              origin=self.node, created_at=sim.now,
                              weight=self.weight)
            network.send(self.node, self.target, REQUEST_KIND,
                         payload=request.to_payload(),
                         size_bytes=self.size_bytes)
        self._tick_event = sim.schedule(self.batch_period, self._tick,
                                        label=f"security.flood:{self.node}")


class SybilJoinBehavior(AttackBehavior):
    """Forge SWIM piggybacks introducing fake members.

    Each tick sends a crafted ``swim.ping`` to the next target member
    carrying ``alive`` updates for fabricated identities.  A naive
    receiver adopts unknown members on rumor alone; a defended one
    consults its update filter (known identity + trusted carrier) and
    rejects the join while charging the carrier ``sybil-join`` evidence.
    """

    slug = "sybil"

    def __init__(self, targets: List[str], count: int = 24,
                 per_tick: int = 2, period: float = 0.5) -> None:
        super().__init__()
        self.targets = list(targets)
        self.count = count
        self.per_tick = per_tick
        self.period = period
        self._introduced = 0
        self._target_cursor = 0
        self._seq = 0
        self._tick_event = None

    def on_activate(self) -> None:
        if self._tick_event is None:
            self._tick_event = self.plane.system.sim.schedule(
                self.period, self._tick, label=f"security.sybil:{self.node}")

    def on_deactivate(self) -> None:
        if self._tick_event is not None and self._tick_event.pending:
            self.plane.system.sim.cancel(self._tick_event)
        self._tick_event = None

    def _tick(self, sim) -> None:
        if not self.active or not self.targets:
            self._tick_event = None
            return
        network = self.plane.system.network
        updates = []
        for _ in range(self.per_tick):
            index = self._introduced % self.count
            self._introduced += 1
            updates.append((f"sybil-{self.node}-{index}", "alive", 1))
        target = self.targets[self._target_cursor % len(self.targets)]
        self._target_cursor += 1
        self._seq -= 1   # negative seq space: never collides with probes
        network.send(self.node, target, "swim.ping",
                     payload={"seq": self._seq, "from": self.node,
                              "updates": updates},
                     size_bytes=128)
        self._tick_event = sim.schedule(self.period, self._tick,
                                        label=f"security.sybil:{self.node}")


class Adversary:
    """Controller mapping compromised nodes to their attack behaviors.

    Installs a single shared transport interceptor (lazily, on the first
    compromise) that dispatches outbound messages to the sending node's
    active behaviors.  Behavior order matters: the first behavior that
    returns a verdict ("drop" / delay) wins; payload rewrites compose.
    """

    def __init__(self, system: Any) -> None:
        self.system = system
        self.plane: Any = None   # set by SecurityPlane
        self._behaviors: Dict[str, List[AttackBehavior]] = {}
        self._interceptor_installed = False

    def compromise(self, node: str, behaviors: List[AttackBehavior]) -> None:
        if not self._interceptor_installed:
            self.system.network.add_interceptor(self._outbound)
            self._interceptor_installed = True
        installed = self._behaviors.setdefault(node, [])
        for behavior in behaviors:
            behavior.install(
                self.plane, node,
                self.system.rngs.stream(
                    f"security:attack:{node}:{behavior.slug}"))
            installed.append(behavior)
            behavior.activate()
        if self.system.metrics is not None:
            self.system.metrics.increment("security.compromised")

    def release(self, node: str) -> None:
        for behavior in self._behaviors.get(node, ()):
            behavior.deactivate()

    def is_compromised(self, node: str) -> bool:
        return any(b.active for b in self._behaviors.get(node, ()))

    @property
    def compromised_nodes(self) -> List[str]:
        return sorted(n for n in self._behaviors if self.is_compromised(n))

    def _outbound(self, message) -> Any:
        behaviors = self._behaviors.get(message.src)
        if not behaviors:
            return None
        for behavior in behaviors:
            if not behavior.active or not behavior.matches(message):
                continue
            verdict = behavior.outbound(message)
            if verdict is not None:
                return verdict
        return None
