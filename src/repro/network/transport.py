"""Message transport over a topology.

The :class:`Network` delivers :class:`Message` objects between named
endpoints by routing over the topology's currently-up links, summing
per-hop sampled latencies, and applying per-hop loss.  Handlers are
registered per destination; delivery is a scheduled kernel event, so all
communication is asynchronous and interleaves deterministically with the
rest of the simulation.

This is deliberately a *datagram* service (unreliable, unordered beyond
what latency sampling induces): reliability is the job of the coordination
and data layers above -- the paper's point is precisely that resilience
mechanisms must be built into the components, not assumed from the fabric.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional

from repro.network.topology import Topology
from repro.observability.histogram import StreamingHistogram
from repro.observability.spans import DROPPED_SPAN, SpanContext, SpanRecorder
from repro.simulation.kernel import Simulator
from repro.simulation.trace import TraceLog


class Message:
    """A datagram between two endpoints.

    ``kind`` is the protocol-level message type (e.g. ``"gossip"``,
    ``"raft.append_entries"``); ``payload`` is protocol-defined.
    ``span`` carries the causal context of the send (when the network has
    a :class:`~repro.observability.spans.SpanRecorder` attached), so work
    the handler triggers is attributed to the message that caused it.
    ``auth`` is the message-authentication tag (set by a signing
    interceptor, checked by the delivery verifier).  None means
    "unauthenticated" -- whether that is acceptable is the verifier's
    policy, not the transport's.

    One is built per send, so this is a plain slotted class rather than a
    dataclass; it keeps the dataclass's contract (same fields, order and
    defaults, ``==`` ignoring ``span`` and ``auth``, unhashable), which
    ``tests/test_message_path_oracles.py`` holds it to.
    """

    __slots__ = ("src", "dst", "kind", "payload", "size_bytes", "msg_id",
                 "sent_at", "span", "auth")

    def __init__(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: Any = None,
        size_bytes: int = 256,
        msg_id: int = -1,
        sent_at: float = 0.0,
        span: Optional[SpanContext] = None,
        auth: Optional[str] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.size_bytes = size_bytes
        self.msg_id = msg_id
        self.sent_at = sent_at
        self.span = span
        self.auth = auth

    def _compared(self) -> tuple:
        return (self.src, self.dst, self.kind, self.payload, self.size_bytes,
                self.msg_id, self.sent_at)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()  # type: ignore[attr-defined]

    __hash__ = None  # type: ignore[assignment]  # mutable, as the dataclass was

    def __repr__(self) -> str:
        return (f"Message(src={self.src!r}, dst={self.dst!r}, "
                f"kind={self.kind!r}, payload={self.payload!r}, "
                f"size_bytes={self.size_bytes!r}, msg_id={self.msg_id!r}, "
                f"sent_at={self.sent_at!r}, span={self.span!r}, "
                f"auth={self.auth!r})")


@dataclass
class NetworkStats:
    """Aggregate transport counters, exposed for experiments.

    Beyond the aggregate counters, ``per_kind`` keeps one streaming
    latency histogram per message kind, so protocol chatter (gossip,
    raft) and user-facing traffic (``traffic.request``) are separable in
    exports instead of blurring into one ``mean_latency``.
    """

    sent: int = 0
    delivered: int = 0
    dropped_loss: int = 0
    dropped_unreachable: int = 0
    dropped_quarantined: int = 0
    dropped_auth: int = 0
    dropped_intercepted: int = 0
    total_latency: float = 0.0
    per_kind: Dict[str, StreamingHistogram] = field(default_factory=dict)
    # Per-sender [messages, bytes] totals: the observable substrate for
    # flooding detection (and a useful traffic-attribution export).
    per_source: Dict[str, List[int]] = field(default_factory=dict)

    @property
    def delivery_ratio(self) -> Optional[float]:
        """Delivered fraction, or None when nothing was ever sent.

        None (not a fabricated 0.0) matches the empty-stats convention of
        :class:`~repro.sweep.SweepCell`: an unused transport is *unknown*,
        not perfectly lossy.
        """
        return self.delivered / self.sent if self.sent else None

    @property
    def mean_latency(self) -> Optional[float]:
        """Mean delivery latency, or None when nothing was delivered."""
        return self.total_latency / self.delivered if self.delivered else None


MessageHandler = Callable[[Message], None]


class Network:
    """Routing datagram transport bound to a simulator and topology."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        trace: Optional[TraceLog] = None,
        spans: Optional[SpanRecorder] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.trace = trace
        # Causal span recorder; protocols read this attribute dynamically
        # so observability can be enabled on an already-wired system.
        self.spans = spans
        self.stats = NetworkStats()
        self._handlers: Dict[str, Dict[str, MessageHandler]] = {}
        self._msg_ids = itertools.count()
        # kind -> "deliver:<kind>": every delivery event of a kind carries
        # the one label object, hashed once, instead of a fresh string.
        self._deliver_labels: Dict[str, str] = {}
        # Nodes marked down drop all traffic addressed to or relayed
        # through them; device crash faults use this switch.
        self._down_nodes: set = set()
        # Send-side interceptor chain (see :meth:`add_interceptor`).  The
        # security plane installs its signer first and attack behaviors
        # after it, so a compromised node's tampering happens *below* the
        # legitimate signing layer and breaks the signature.
        self._interceptors: List[Callable[[Message], Any]] = []
        # Delivery-side authenticity check: ``verifier(message) -> bool``.
        # False drops the message with reason ``"auth"``.
        self.verifier: Optional[Callable[[Message], bool]] = None
        # Transport ACL: traffic from or to a quarantined node is dropped
        # at dispatch (and at delivery, for messages already in flight).
        self._quarantined: set = set()
        # Federation seam: when set, sends whose (src, dst) the router
        # claims are diverted into cross-shard mailboxes *before* a
        # Message is allocated or stats are touched, so local and
        # sharded runs stay digest-identical (see ``repro.shard``).
        self.remote_router = None

    # -- endpoint management ---------------------------------------------- #
    def register(self, node: str, kind: str, handler: MessageHandler) -> None:
        """Register ``handler`` for messages of ``kind`` arriving at ``node``."""
        self._handlers.setdefault(node, {})[kind] = handler

    def register_default(self, node: str, handler: MessageHandler) -> None:
        """Fallback handler for kinds without a specific registration."""
        self._handlers.setdefault(node, {})["*"] = handler

    def unregister_node(self, node: str) -> None:
        self._handlers.pop(node, None)

    def set_node_up(self, node: str, up: bool) -> None:
        if up:
            self._down_nodes.discard(node)
        else:
            self._down_nodes.add(node)

    def node_up(self, node: str) -> bool:
        return node not in self._down_nodes

    # -- security hooks ---------------------------------------------------- #
    def add_interceptor(self, interceptor: Callable[[Message], Any]) -> None:
        """Append a send-side interceptor.

        Interceptors run in installation order on every :meth:`send`,
        before routing.  Each receives the :class:`Message` and may mutate
        it (replace ``payload``, set ``auth``).  Return values: ``None``
        passes the message on, the string ``"drop"`` discards it (counted
        as ``dropped_intercepted``), and a float adds that much extra
        delivery delay.  With no interceptors installed the send path is
        byte-identical to the pre-security transport.
        """
        self._interceptors.append(interceptor)

    def remove_interceptor(self, interceptor: Callable[[Message], Any]) -> None:
        if interceptor in self._interceptors:
            self._interceptors.remove(interceptor)

    def quarantine(self, node: str) -> None:
        """Drop all traffic from or to ``node`` (transport-level ACL)."""
        self._quarantined.add(node)

    def unquarantine(self, node: str) -> None:
        self._quarantined.discard(node)

    def is_quarantined(self, node: str) -> bool:
        return node in self._quarantined

    @property
    def quarantined_nodes(self) -> List[str]:
        return sorted(self._quarantined)

    # -- sending ---------------------------------------------------------- #
    def send(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: Any = None,
        size_bytes: int = 256,
    ) -> Message:
        """Send a datagram; returns the message (delivery not guaranteed).

        Everything a send decides -- interceptors, the ACL, liveness, the
        route and each hop's loss/latency draw -- runs in this one frame;
        a surviving message is scheduled for :meth:`_deliver`.
        """
        router = self.remote_router
        if router is not None and router.routes(src, dst):
            return router.send(src, dst, kind, payload, size_bytes)
        now = self.sim.now
        message = Message(src, dst, kind, payload, size_bytes,
                          next(self._msg_ids), now)
        stats = self.stats
        stats.sent += 1
        totals = stats.per_source.get(src)
        if totals is None:
            totals = stats.per_source[src] = [0, 0]
        totals[0] += 1
        totals[1] += size_bytes
        span = None
        spans = self.spans
        if spans is not None:
            # The send span inherits whatever the sender is doing (a MAPE
            # iteration, a gossip round, a delivering message) and closes
            # at delivery or drop time.  Its name and attrs are built only
            # if it is kept; a sampled-out message still carries the
            # dropped span, so its handler's spans are dropped with it.
            context = spans.admit("message")
            span = DROPPED_SPAN if context is None else spans.begin(
                context, f"msg:{kind}", "message", now,
                src=src, dst=dst, msg_id=message.msg_id)
            message.span = span.context
        # Interceptors may replace ``payload`` and set ``auth``; src, dst,
        # kind and size are theirs to read only, so the locals stay valid.
        extra_delay = 0.0
        for interceptor in self._interceptors:
            outcome = interceptor(message)
            if outcome is None:
                continue
            if outcome == "drop":
                self._drop(message, "intercepted", span)
                return message
            extra_delay += float(outcome)
        quarantined = self._quarantined
        if quarantined and (src in quarantined or dst in quarantined):
            self._drop(message, "quarantined", span)
            return message
        down = self._down_nodes
        if down and (src in down or dst in down):
            self._drop(message, "unreachable", span)
            return message
        route = self.topology.route_links(src, dst)
        if route is None:
            self._drop(message, "unreachable", span)
            return message
        path, links = route
        if down and any(node in down for node in path[1:-1]):
            # Down relays are invisible to shortest-path; model them as a
            # black hole, which is what a crashed gateway is.
            self._drop(message, "unreachable", span)
            return message
        total_latency = 0.0
        for link in links:
            hop = link.model.sample(size_bytes)
            if hop is None:
                self._drop(message, "loss", span)
                return message
            total_latency += hop
        total_latency += extra_delay
        try:
            label = self._deliver_labels[kind]
        except KeyError:
            label = self._deliver_labels[kind] = f"deliver:{kind}"
        # The kernel calls the record with the simulator, which lands in
        # _deliver's last parameter.
        self.sim.schedule(
            total_latency,
            partial(self._deliver, message, total_latency, span),
            label=label,
        )
        return message

    def _deliver(self, message: Message, latency: float, span=None,
                 _sim: Optional[Simulator] = None) -> None:
        # Re-check destination liveness at arrival time: the node may have
        # crashed while the message was in flight.
        dst = message.dst
        if dst in self._down_nodes:
            self._drop(message, "unreachable", span)
            return
        if self._quarantined and (message.src in self._quarantined
                                  or dst in self._quarantined):
            # In-flight messages to or from a node quarantined after the
            # send are still subject to the ACL.
            self._drop(message, "quarantined", span)
            return
        if self.verifier is not None and not self.verifier(message):
            self._drop(message, "auth", span)
            return
        kind = message.kind
        handlers = self._handlers.get(dst)
        handler = None
        if handlers:
            handler = handlers.get(kind) or handlers.get("*")
        if handler is None:
            self._drop(message, "unreachable", span)
            return
        stats = self.stats
        stats.delivered += 1
        stats.total_latency += latency
        hist = stats.per_kind.get(kind)
        if hist is None:
            hist = stats.per_kind[kind] = StreamingHistogram()
        hist.observe(latency)
        spans = self.spans
        if spans is not None and span is not None:
            if span is not DROPPED_SPAN:
                spans.finish(span, self.sim.now, status="delivered",
                             latency=latency)
            # Handler-side work (replies, state changes) is caused by this
            # message: keep its context current while the handler runs.
            with spans.use(span):
                handler(message)
        else:
            handler(message)

    def _drop(self, message: Message, reason: str, span=None) -> None:
        if reason == "loss":
            self.stats.dropped_loss += 1
        elif reason == "quarantined":
            self.stats.dropped_quarantined += 1
        elif reason == "auth":
            self.stats.dropped_auth += 1
        elif reason == "intercepted":
            self.stats.dropped_intercepted += 1
        else:
            self.stats.dropped_unreachable += 1
        if span is not None and self.spans is not None:
            self.spans.finish(span, self.sim.now, status=f"dropped:{reason}")
        if self.trace is not None:
            self.trace.emit(
                self.sim.now,
                "message",
                "drop",
                subject=message.dst,
                kind=message.kind,
                reason=reason,
                src=message.src,
            )

    # -- convenience -------------------------------------------------------#
    def broadcast(
        self,
        src: str,
        dsts: List[str],
        kind: str,
        payload: Any = None,
        size_bytes: int = 256,
    ) -> List[Message]:
        """Unicast to each destination (no link-layer multicast modeled)."""
        return [
            self.send(src, dst, kind, payload=payload, size_bytes=size_bytes)
            for dst in dsts
            if dst != src
        ]
