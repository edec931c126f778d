"""Deterministic trust and reputation scoring.

Every honest vantage point keeps its *own* opinion: scores are indexed
``(observer, subject)`` and start at 1.0.  Direct evidence (a failed
signature check, a refuted piggyback, an impossible incarnation jump, a
flood-rate breach) multiplies the observer's score for the subject down
by a per-kind penalty.  Indirect evidence travels over the **existing
gossip protocol** -- an observer publishes its opinions as
``trust:<observer>:<subject>`` keys and peers fold received opinions in
at a discount, adopting only *worse* news so slander cannot launder a
bad node back to good standing.

When a subject's aggregate score (the minimum across observers --
observers are authenticated honest nodes here, so the most-alarmed
vantage wins) crosses the distrust threshold, the registry latches the
subject and pushes an ``intrusion`` fact into every attached MAPE
knowledge base; the :class:`~repro.adaptation.analyzer.IntrusionAnalyzer`
turns that into a ``compromised-node`` issue.

Everything is deterministic: penalties are fixed constants and evidence
arrives on the simulated event stream, so a resumed run rebuilds the same
scores.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

#: Multiplicative score penalty per evidence kind (score *= 1 - penalty).
EVIDENCE_PENALTIES: Dict[str, float] = {
    "digest-mismatch": 0.35,       # failed HMAC verification at delivery
    "equivocation": 0.50,          # conflicting values, same version+owner
    "refuted-piggyback": 0.30,     # a node had to refute rumors we relayed
    "impossible-incarnation": 0.40,  # sequence/incarnation jump too large
    "sybil-join": 0.40,            # introduced an unknown identity
    "conflicting-leader": 0.30,    # second leader claim in the same term
    "flood-rate": 0.45,            # per-source send rate over threshold
    "environment-untrusted": 0.20,  # passive environmental distrust flag
}

#: Gossip key prefix for shared (indirect) opinions.
TRUST_GOSSIP_PREFIX = "trust:"


class TrustRegistry:
    """Per-observer reputation scores with latched intrusion alerts."""

    def __init__(self, system: Any, threshold: float = 0.45,
                 initial: float = 1.0) -> None:
        self.system = system
        self.threshold = threshold
        self.initial = initial
        self._scores: Dict[str, Dict[str, float]] = {}
        self._flagged: set = set()
        self._registered: Dict[str, str] = {}
        self._knowledge: List[Any] = []
        self._publishers: Dict[str, Any] = {}
        self.evidence_counts: Dict[str, int] = {}

    # -- wiring ------------------------------------------------------------- #
    def attach(self, knowledge: Any) -> None:
        """Push future intrusion facts into this MAPE knowledge base."""
        if knowledge not in self._knowledge:
            self._knowledge.append(knowledge)

    def bind_gossip(self, observer: str, gossip_node: Any) -> None:
        """Publish ``observer``'s direct opinions into its gossip node and
        fold received ``trust:*`` keys back in as indirect evidence."""
        self._publishers[observer] = gossip_node
        previous = gossip_node.on_update

        def _fold(key: str, value: Any,
                  _registry=self, _observer=observer, _prev=previous) -> None:
            if _prev is not None:
                _prev(key, value)
            if not key.startswith(TRUST_GOSSIP_PREFIX):
                return
            try:
                _, reporter, subject = key.split(":", 2)
            except ValueError:
                return
            if reporter != _observer:
                _registry.record_indirect(_observer, subject,
                                          float(value.value))

        gossip_node.on_update = _fold

    def close(self) -> None:
        """Drop the system and the bound gossip nodes (whose ``on_update``
        holds this registry); scores, flags and evidence counts stay."""
        self.system = None
        self._publishers.clear()

    def register(self, device_id: str, reason: str = "registered") -> None:
        """Track a device for KPI attribution (e.g. untrusted environment)."""
        self._registered[device_id] = reason

    @property
    def registered(self) -> Dict[str, str]:
        return dict(self._registered)

    # -- evidence ----------------------------------------------------------- #
    def record(self, observer: str, subject: str, kind: str,
               detail: Optional[str] = None, weight: float = 1.0) -> float:
        """Fold one piece of direct evidence; returns the new score."""
        penalty = EVIDENCE_PENALTIES[kind]
        opinions = self._scores.setdefault(observer, {})
        score = opinions.get(subject, self.initial)
        score *= (1.0 - penalty) ** weight
        opinions[subject] = score
        self.evidence_counts[kind] = self.evidence_counts.get(kind, 0) + 1
        sim = self.system.sim
        metrics = self.system.metrics
        if metrics is not None:
            # Sample series are digest-neutral, so per-subject trust
            # trajectories are free to record even in journaled runs.
            metrics.record(f"security.trust.{subject}", sim.now,
                           self.aggregate(subject))
        trace = self.system.trace
        if trace is not None:
            trace.emit(sim.now, "security", "evidence", subject=subject,
                       observer=observer, evidence=kind, detail=detail,
                       score=round(score, 6))
        publisher = self._publishers.get(observer)
        if publisher is not None:
            publisher.set(f"{TRUST_GOSSIP_PREFIX}{observer}:{subject}",
                          round(score, 6))
        self._check_threshold(subject)
        return score

    def record_indirect(self, observer: str, subject: str, reported: float,
                        discount: float = 0.5) -> float:
        """Fold a gossiped opinion in at a discount.

        Only *worse* news is adopted: the observer's own score can drop
        toward the reported one but never rises because of hearsay.
        """
        if observer == subject:
            return self.score(observer, subject)
        opinions = self._scores.setdefault(observer, {})
        current = opinions.get(subject, self.initial)
        blended = current - (current - reported) * discount
        if blended < current:
            opinions[subject] = blended
            self._check_threshold(subject)
        return opinions.get(subject, current)

    # -- reading ------------------------------------------------------------ #
    def score(self, observer: str, subject: str) -> float:
        return self._scores.get(observer, {}).get(subject, self.initial)

    def aggregate(self, subject: str) -> float:
        """Most-alarmed honest vantage: min over observers with an opinion."""
        opinions = [scores[subject] for scores in self._scores.values()
                    if subject in scores]
        return min(opinions) if opinions else self.initial

    def distrusted(self) -> List[str]:
        subjects = {s for scores in self._scores.values() for s in scores}
        return sorted(s for s in subjects
                      if self.aggregate(s) < self.threshold)

    def _check_threshold(self, subject: str) -> None:
        if subject in self._flagged:
            return
        score = self.aggregate(subject)
        if score >= self.threshold:
            return
        self._flagged.add(subject)
        sim = self.system.sim
        trace = self.system.trace
        if trace is not None:
            trace.emit(sim.now, "security", "distrusted", subject=subject,
                       score=round(score, 6))
        if self.system.metrics is not None:
            self.system.metrics.increment("security.distrusted")
        for knowledge in self._knowledge:
            knowledge.facts.setdefault("intrusion", []).append(
                {"subject": subject, "score": score, "at": sim.now})

    @property
    def flagged(self) -> List[str]:
        return sorted(self._flagged)


class FloodSentry:
    """Periodic per-source send-rate monitor over ``NetworkStats.per_source``.

    Every ``period`` seconds the sentry diffs the transport's per-source
    message counters against its previous sample; any source over
    ``rate_threshold`` messages/second (and not exempt) earns
    ``flood-rate`` evidence from the sentry's observer vantage.
    """

    def __init__(self, system: Any, registry: TrustRegistry,
                 observer: str = "sentry", period: float = 1.0,
                 rate_threshold: float = 300.0,
                 exempt: Optional[List[str]] = None) -> None:
        self.system = system
        self.registry = registry
        self.observer = observer
        self.period = period
        self.rate_threshold = rate_threshold
        self.exempt = set(exempt or ())
        self._last: Dict[str, int] = {}
        self._tick_event = None

    def start(self) -> None:
        if self._tick_event is None:
            self._tick_event = self.system.sim.schedule(
                self.period, self._tick, label="security.sentry")

    def _tick(self, sim) -> None:
        per_source = self.system.network.stats.per_source
        for src in sorted(per_source):
            count = per_source[src][0]
            rate = (count - self._last.get(src, 0)) / self.period
            self._last[src] = count
            if rate > self.rate_threshold and src not in self.exempt:
                self.registry.record(self.observer, src, "flood-rate",
                                     detail=f"{rate:.0f}/s")
        self._tick_event = sim.schedule(self.period, self._tick,
                                        label="security.sentry")
