"""Causal spans over simulated time.

A :class:`Span` is an interval of *simulated* time attributed to one
operation -- a message in flight, a MAPE iteration, a gossip round, a
fault's disruption→recovery arc.  Spans carry parent links and trace ids,
so a single disruption can be followed end-to-end: the fault-injection
span roots a trace, and every message, protocol round and repair that the
disruption causes is recorded as a descendant.

This is the "model kept alive at runtime" of the paper's Section VII made
navigable: where :class:`~repro.simulation.trace.TraceLog` answers *what
happened when*, the span tree answers *what caused what*.

Ids are deterministic (monotonic counters, no wall clock, no randomness)
so traces are reproducible bit-for-bit from the simulation seed, exactly
like the simulation itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.observability.overhead import (
    _MASK64,
    ALWAYS_SAMPLE_CATEGORIES,
    DROPPED_TRACE_ID,
)


@dataclass(frozen=True)
class SpanContext:
    """The propagatable identity of a span.

    Contexts are what crosses component boundaries (e.g. rides on a
    :class:`~repro.network.transport.Message`): enough to parent a child
    span in another subsystem without holding the span object itself.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None


@dataclass
class Span:
    """One named interval of simulated time within a trace."""

    name: str
    category: str
    context: SpanContext
    start: float
    end: Optional[float] = None
    status: str = "ok"
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def trace_id(self) -> str:
        return self.context.trace_id

    @property
    def span_id(self) -> str:
        return self.context.span_id

    @property
    def parent_id(self) -> Optional[str]:
        return self.context.parent_id

    @property
    def sampled(self) -> bool:
        """False for spans elided by head-based sampling.

        Unsampled spans are returned from ``start`` so call sites stay
        branch-free (they can attach attrs and finish as usual), but the
        recorder neither stores nor indexes them.
        """
        return self.context.trace_id != DROPPED_TRACE_ID

    @property
    def duration(self) -> Optional[float]:
        """Elapsed simulated time, or None while the span is still open.

        None (rather than 0.0) keeps half-finished work out of latency
        and MTTR aggregates: summing durations of a span set silently
        treated every open span as free.  Callers that want a value for
        in-flight spans should use ``duration_or(now)``.
        """
        return (self.end - self.start) if self.end is not None else None

    def duration_or(self, now: float) -> float:
        """Duration for finished spans; elapsed-so-far against ``now`` otherwise."""
        return (self.end if self.end is not None else float(now)) - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attrs": self.attrs,
        }


ParentLike = Union[Span, SpanContext, None]

#: The one throwaway span every sampled-out ``start`` returns, carrying
#: the one shared dropped context (children recognize its sentinel trace
#: id and drop themselves).  It is pre-finished so ``finish`` no-ops on
#: it, and shared so the drop fast path allocates nothing: the whole
#: point of sampling is that eliding a span must cost far less than
#: recording it, and a fresh Span + dict per drop was the dominant cost.
#: Nothing stores or reads dropped spans (``sampled`` is False), so
#: shared mutable state is harmless.  Public because a call site that
#: asked :meth:`SpanRecorder.admit` and got ``None`` still has to hand
#: *something* to whoever runs under it (a sampled-out message carries
#: this span so its handler's spans are dropped with it).
DROPPED_SPAN = Span(name="sampled-out", category="sampled-out",
                    context=SpanContext(trace_id=DROPPED_TRACE_ID,
                                        span_id="s!"),
                    start=0.0, end=0.0, status="sampled-out")


class _Scope:
    """``with recorder.use(context):`` -- push on enter, pop on exit."""

    __slots__ = ("_stack", "_context")

    def __init__(self, stack: List[SpanContext],
                 context: Optional[SpanContext]) -> None:
        self._stack = stack
        self._context = context

    def __enter__(self) -> None:
        if self._context is not None:
            self._stack.append(self._context)

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self._context is not None:
            self._stack.pop()


class SpanRecorder:
    """Creates, finishes and indexes spans.

    The recorder keeps a *current-context stack* (``stack``): components
    push the span they are working under (an executing MAPE iteration, a
    delivering message), and any span started without an explicit parent
    inherits the top of the stack.  The simulation is single-threaded, so
    a plain stack gives correct causal attribution across arbitrarily
    nested callbacks.  :meth:`use` pushes for a ``with`` block; the
    transport pushes a delivering message's context on ``stack`` itself,
    in a ``try``/``finally``, because it does so once per delivery.

    A small *fault index* maps subjects (device ids, fault names) to their
    currently-active injection span, so that a repair performed far from
    the injector -- e.g. by a MAPE loop -- can still join the disruption's
    trace.
    """

    def __init__(self, sampler: Optional[Any] = None,
                 always_sample: Any = ALWAYS_SAMPLE_CATEGORIES) -> None:
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._spans: List[Span] = []
        self._by_id: Dict[str, Span] = {}
        self._open: Dict[str, Span] = {}
        self.stack: List[SpanContext] = []
        self._fault_index: Dict[str, Span] = {}
        # Head-based sampling (repro.observability.overhead.SpanSampler):
        # the keep/drop decision is made once at the trace root and
        # inherited by every descendant via the sentinel context.  Fault
        # arcs (``always_sample`` categories) always root kept traces.
        self.sampler = sampler
        self.always_sample = frozenset(always_sample)
        self.sampled_out = 0
        # Optional OverheadMeter: accounts the wall-clock cost of span
        # recording itself.  One ``is None`` check per call when off.
        self.meter: Optional[Any] = None

    # -- creation --------------------------------------------------------- #
    def admit(self, category: str,
              parent: ParentLike = None) -> Optional[SpanContext]:
        """Decide whether a span of ``category`` is kept, before it is built.

        The whole keep/drop decision, and nothing else: the parent is
        resolved (explicit, else the current context), a parentless span
        consumes a root trace ordinal and asks the sampler, and a dropped
        one is counted in ``sampled_out`` and on the meter.  Returns the
        context the span will carry -- hand it to :meth:`begin` -- or
        ``None`` when it is sampled out, in which case the caller builds
        no name, no attrs and nothing to finish.

        With a sampler attached, a parentless span may lose the keep/drop
        coin flip; descendants (which inherit the sentinel dropped context
        through propagation) are elided without re-consulting the sampler.
        Root trace ordinals are consumed either way, so the kept traces
        keep the exact ids an unsampled run would give them.  The
        sampler's decision is made here, from its seeded base and the
        root's ordinal (see :class:`~repro.observability.overhead.SpanSampler`).
        """
        meter = self.meter
        started = perf_counter() if meter is not None else 0.0
        # Parent resolution and the drop exits are inlined rather than
        # factored into helpers: with sampling on this is the kernel hot
        # path, and eliding a span must cost a fraction of recording one
        # -- each avoided Python call is a measurable slice of that
        # budget (see benchmarks/regress.py bench_telemetry).
        if parent is None:
            stack = self.stack
            parent_ctx = stack[-1] if stack else None
        else:
            parent_ctx = parent.context if isinstance(parent, Span) else parent
        if parent_ctx is not None:
            if parent_ctx.trace_id == DROPPED_TRACE_ID:
                self.sampled_out += 1
                if meter is not None:
                    meter.spans_count += 1
                    meter.spans_wall_s += perf_counter() - started
                return None
            context = SpanContext(
                trace_id=parent_ctx.trace_id,
                span_id=f"s{next(self._span_ids):06d}",
                parent_id=parent_ctx.span_id,
            )
        else:
            trace_seq = next(self._trace_ids)
            sampler = self.sampler
            if sampler is not None and category not in self.always_sample:
                # The SplitMix64 finalizer of the sampler's base XOR the
                # root ordinal, kept when below the rate's threshold.
                sampler.decisions += 1
                value = ((sampler.base ^ (trace_seq & _MASK64))
                         + 0x9E3779B97F4A7C15) & _MASK64
                value = ((value ^ (value >> 30))
                         * 0xBF58476D1CE4E5B9) & _MASK64
                value = ((value ^ (value >> 27))
                         * 0x94D049BB133111EB) & _MASK64
                if (value ^ (value >> 31)) >= sampler.threshold:
                    self.sampled_out += 1
                    if meter is not None:
                        meter.spans_count += 1
                        meter.spans_wall_s += perf_counter() - started
                    return None
                sampler.kept += 1
            context = SpanContext(
                trace_id=f"t{trace_seq:04d}",
                span_id=f"s{next(self._span_ids):06d}",
            )
        if meter is not None:
            # Timed here, counted by begin(): a kept span is one record.
            meter.spans_wall_s += perf_counter() - started
        return context

    def begin(self, context: SpanContext, name: str, category: str,
              time: float, /, **attrs: Any) -> Span:
        """Record the span :meth:`admit` kept, open at simulated ``time``.

        The one recording step.  Positional-only, so every keyword is an
        attr -- ``start(..., context=...)`` keeps meaning what it meant.
        """
        meter = self.meter
        started = perf_counter() if meter is not None else 0.0
        span = Span(name=name, category=category, context=context,
                    start=float(time), attrs=attrs)
        self._spans.append(span)
        self._by_id[context.span_id] = span
        self._open[context.span_id] = span
        if meter is not None:
            meter.spans_count += 1
            meter.spans_wall_s += perf_counter() - started
        return span

    def start(
        self,
        name: str,
        category: str,
        time: float,
        parent: ParentLike = None,
        **attrs: Any,
    ) -> Span:
        """Open a span at simulated ``time``: :meth:`admit`, then :meth:`begin`.

        Without an explicit ``parent`` the span is parented to the current
        context (if any); a parentless span roots a fresh trace.  A
        sampled-out span comes back as :data:`DROPPED_SPAN`, which carries
        the sentinel dropped context and is not stored, so call sites that
        build their arguments anyway stay branch-free.
        """
        context = self.admit(category, parent)
        if context is None:
            return DROPPED_SPAN
        return self.begin(context, name, category, time, **attrs)

    def finish(self, span: Span, time: float, status: str = "ok", **attrs: Any) -> Span:
        """Close ``span`` at simulated ``time`` (idempotent).

        Safe on sampled-out spans: they are the shared pre-finished
        throwaway, recognized by identity and returned untouched (their
        recording cost was already accounted at ``start``).
        """
        if span is DROPPED_SPAN:
            return span
        meter = self.meter
        started = perf_counter() if meter is not None else 0.0
        if span.end is None:
            span.end = float(time)
            span.status = status
            if attrs:
                span.attrs.update(attrs)
            self._open.pop(span.span_id, None)
        if meter is not None:
            meter.spans_count += 1
            meter.spans_wall_s += perf_counter() - started
        return span

    def record(
        self,
        name: str,
        category: str,
        time: float,
        parent: ParentLike = None,
        status: str = "ok",
        **attrs: Any,
    ) -> Span:
        """Start and immediately finish an instantaneous span."""
        span = self.start(name, category, time, parent=parent, **attrs)
        return self.finish(span, time, status=status)

    # -- current-context stack -------------------------------------------- #
    @property
    def current(self) -> Optional[SpanContext]:
        return self.stack[-1] if self.stack else None

    def use(self, context: ParentLike) -> _Scope:
        """Make ``context`` the implicit parent for the enclosed block.

        Accepts a span, a bare context, or None (no-op), so call sites can
        pass through whatever they hold without case analysis.  The stack
        is restored when the block exits, by return or by exception.
        """
        return _Scope(self.stack, context.context
                      if isinstance(context, Span) else context)

    # -- fault index ------------------------------------------------------- #
    def open_fault(self, subject: str, span: Span) -> None:
        """Register ``span`` as the active injection span for ``subject``."""
        self._fault_index[subject] = span

    def close_fault(self, subject: str) -> None:
        self._fault_index.pop(subject, None)

    def active_fault(self, subject: str) -> Optional[Span]:
        """The injection span currently disrupting ``subject``, if any."""
        return self._fault_index.get(subject)

    # -- queries ----------------------------------------------------------- #
    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    @property
    def spans(self) -> List[Span]:
        return list(self._spans)

    def tail(self, count: int) -> List[Span]:
        """The newest ``count`` spans, oldest first, copying only those."""
        return self._spans[-count:] if count > 0 else []

    @property
    def open_count(self) -> int:
        """``len(open_spans)`` without copying them."""
        return len(self._open)

    def select(
        self,
        category: Optional[str] = None,
        name: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> List[Span]:
        return [
            s
            for s in self._spans
            if (category is None or s.category == category)
            and (name is None or s.name == name)
            and (trace_id is None or s.trace_id == trace_id)
        ]

    def get(self, span_id: str) -> Optional[Span]:
        return self._by_id.get(span_id)

    def children_index(self) -> Dict[str, List[Span]]:
        """``parent span_id -> direct children``, in recording order.

        Built fresh per call (the KPI derivation walks it once per
        report); root spans are not keys.
        """
        children: Dict[str, List[Span]] = {}
        for span in self._spans:
            if span.parent_id is not None:
                children.setdefault(span.parent_id, []).append(span)
        return children

    def finish_open(self, time: float, status: str = "truncated") -> int:
        """Close every still-open span (end of run); returns how many."""
        still_open = list(self._open.values())
        for span in still_open:
            self.finish(span, time, status=status)
        return len(still_open)
