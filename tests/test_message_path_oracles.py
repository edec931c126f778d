"""The per-message path's seams, each held to the code it replaced.

``SpanRecorder.admit`` + ``begin`` against the monolithic ``start`` they
were cut from, ``LatencyModel.sample`` against ``sample_loss`` then
``sample_latency``, ``Simulator.run`` against a ``next_event_time()`` +
``step()`` loop, the one-encoder exporters against ``json.dumps`` per
record, the slotted ``Message`` and tuple-backed ``TraceEvent`` against
the dataclasses they replaced, and ``StreamingHistogram.observe``'s
comparisons against ``min()``/``max()``.  Every digest in ``golden_runs.json``
depends on these seams being exact, so each is checked over generated
inputs, not a few examples.
"""

import dataclasses
import enum
import itertools
import json
import math
import random
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.link import LatencyModel, LinkProfile
from repro.network.transport import Message
from repro.observability.export import (
    _CHUNK,
    chrome_trace_events,
    write_chrome_trace,
    write_events_jsonl,
    write_profile_chrome_trace,
    write_spans_jsonl,
)
from repro.observability.histogram import StreamingHistogram
from repro.observability.instrument import Instrument
from repro.observability.overhead import (
    DROPPED_TRACE_ID,
    OverheadMeter,
    SpanSampler,
)
from repro.observability.spans import (
    DROPPED_SPAN,
    Span,
    SpanContext,
    SpanRecorder,
)
from repro.simulation.kernel import Simulator
from repro.simulation.rng import CountedRandom
from repro.simulation.trace import TraceEvent


# --------------------------------------------------------------------------- #
# (a) admit() + begin() == the start() they were cut from
# --------------------------------------------------------------------------- #
class _MonolithicRecorder(SpanRecorder):
    """``start`` and ``use`` as they were before the decision was split out:
    one body that decides, builds and records, and a generator context
    manager.  The reference, kept here only."""

    def start(self, name, category, time, parent=None, **attrs):
        meter = self.meter
        started = perf_counter() if meter is not None else 0.0
        if parent is None:
            stack = self._stack
            parent_ctx = stack[-1] if stack else None
        else:
            parent_ctx = parent.context if isinstance(parent, Span) else parent
        if parent_ctx is not None:
            if parent_ctx.trace_id == DROPPED_TRACE_ID:
                self.sampled_out += 1
                if meter is not None:
                    meter.spans_count += 1
                    meter.spans_wall_s += perf_counter() - started
                return DROPPED_SPAN
            context = SpanContext(
                trace_id=parent_ctx.trace_id,
                span_id=f"s{next(self._span_ids):06d}",
                parent_id=parent_ctx.span_id,
            )
        else:
            trace_seq = next(self._trace_ids)
            sampler = self.sampler
            if (sampler is not None and category not in self.always_sample
                    and not sampler.keep(trace_seq)):
                self.sampled_out += 1
                if meter is not None:
                    meter.spans_count += 1
                    meter.spans_wall_s += perf_counter() - started
                return DROPPED_SPAN
            context = SpanContext(
                trace_id=f"t{trace_seq:04d}",
                span_id=f"s{next(self._span_ids):06d}",
            )
        span = Span(name=name, category=category, context=context,
                    start=float(time), attrs=dict(attrs))
        self._spans.append(span)
        self._by_id[span.span_id] = span
        self._open[span.span_id] = span
        if meter is not None:
            meter.spans_count += 1
            meter.spans_wall_s += perf_counter() - started
        return span

    @contextmanager
    def use(self, context):
        if context is None:
            yield
            return
        ctx = context.context if isinstance(context, Span) else context
        self._stack.append(ctx)
        try:
            yield
        finally:
            self._stack.pop()


def _start_site(recorder, name, category, time, parent, **attrs):
    return recorder.start(name, category, time, parent=parent, **attrs)


def _record_site(recorder, name, category, time, parent, status, **attrs):
    return recorder.record(name, category, time, parent=parent,
                           status=status, **attrs)


def _admit_start_site(recorder, name, category, time, parent, **attrs):
    """What Network.send and TrafficClient.submit do: decide, then build."""
    context = recorder.admit(category, parent)
    if context is None:
        return DROPPED_SPAN
    return recorder.begin(context, name, category, time, **attrs)


def _admit_record_site(recorder, name, category, time, parent, status,
                       **attrs):
    """What Server._complete does: nothing at all for a dropped span."""
    context = recorder.admit(category, parent)
    if context is None:
        return DROPPED_SPAN
    return recorder.finish(
        recorder.begin(context, name, category, time, **attrs), time,
        status=status)


class _Boom(Exception):
    pass


_CATEGORIES = st.sampled_from(
    ["message", "request", "traffic", "injection", "recovery"])
#: None = the current context; "dropped" = the sentinel, handed over
#: explicitly; an int picks one of the spans the program made so far.
_PARENTS = st.one_of(st.none(), st.just("dropped"), st.integers(0, 40))
_LEAVES = st.one_of(
    st.tuples(st.just("start"), _CATEGORIES, _PARENTS, st.booleans(),
              st.booleans()),
    st.tuples(st.just("record"), _CATEGORIES, _PARENTS, st.booleans()),
    st.tuples(st.just("finish"), st.integers(0, 40)),
)
_PROGRAMS = st.lists(st.recursive(
    _LEAVES,
    lambda nodes: st.tuples(st.just("use"), _PARENTS,
                            st.lists(nodes, max_size=4), st.booleans()),
    max_leaves=12), max_size=10)


def _run_span_program(program, recorder, start_site, record_site):
    made = []
    clock = itertools.count()

    def pick(selector, as_context=False):
        if selector is None or (selector != "dropped" and not made):
            return None
        span = (DROPPED_SPAN if selector == "dropped"
                else made[selector % len(made)])
        return span.context if as_context else span

    def execute(nodes):
        for node in nodes:
            now = float(next(clock))
            if node[0] == "start":
                _, category, parent, as_context, finish = node
                span = start_site(recorder, f"op{now:g}", category, now,
                                  pick(parent, as_context), index=int(now),
                                  tags={"b", "a"})
                made.append(span)
                if finish:
                    recorder.finish(span, now + 0.5, status="done",
                                    latency=now / 3.0)
            elif node[0] == "record":
                _, category, parent, as_context = node
                made.append(record_site(
                    recorder, f"rec{now:g}", category, now,
                    pick(parent, as_context), "noted", index=int(now)))
            elif node[0] == "finish":
                if made:
                    recorder.finish(made[node[1] % len(made)], now)
            else:
                _, target, children, raises = node
                outer = recorder.current
                try:
                    with recorder.use(pick(target)):
                        execute(children)
                        if raises:
                            raise _Boom()
                except _Boom:
                    pass
                # Restored by return and by exception alike.
                assert recorder.current is outer

    execute(program)
    assert recorder.current is None
    sampler, meter = recorder.sampler, recorder.meter
    return {
        "spans": [span.to_dict() for span in recorder],
        "dropped": [span is DROPPED_SPAN for span in made],
        "open": sorted(span.span_id for span in recorder.open_spans),
        "open_count": recorder.open_count,
        "sampled_out": recorder.sampled_out,
        "sampler": None if sampler is None else sampler.to_dict(),
        "meter": None if meter is None else meter.spans_count,
    }


@settings(max_examples=300, deadline=None)
@given(program=_PROGRAMS,
       rate=st.sampled_from([None, 0.0, 0.02, 0.5, 1.0]),
       seed=st.integers(0, 2 ** 32), metered=st.booleans())
def test_admit_then_begin_is_the_start_it_was_cut_from(program, rate, seed,
                                                       metered):
    def recorder(cls):
        made = cls(sampler=None if rate is None else SpanSampler(rate, seed))
        if metered:
            made.meter = OverheadMeter()
        return made

    reference = _run_span_program(program, recorder(_MonolithicRecorder),
                                  _start_site, _record_site)
    assert _run_span_program(program, recorder(SpanRecorder),
                             _start_site, _record_site) == reference
    assert _run_span_program(program, recorder(SpanRecorder),
                             _admit_start_site,
                             _admit_record_site) == reference


def test_always_sampled_category_roots_a_kept_trace_under_rate_zero():
    recorder = SpanRecorder(sampler=SpanSampler(0.0, seed=1))
    assert recorder.admit("message") is None
    context = recorder.admit("injection")
    assert context is not None and context.trace_id == "t0002"
    fault = recorder.begin(context, "crash", "injection", 1.0, subject="d1")
    with recorder.use(fault):
        child = recorder.admit("message")
    assert child.trace_id == "t0002" and child.parent_id == fault.span_id
    assert recorder.admit("message", parent=DROPPED_SPAN) is None
    assert recorder.admit("injection", parent=DROPPED_SPAN.context) is None
    assert recorder.sampled_out == 3
    # Only the two root decisions the sampler was asked about.
    assert recorder.sampler.decisions == 1


def test_begin_keeps_every_keyword_as_an_attr():
    recorder = SpanRecorder()
    span = recorder.start("op", "test", 0.0, context="c", name_="n")
    assert span.attrs == {"context": "c", "name_": "n"}


# --------------------------------------------------------------------------- #
# (b) LatencyModel.sample == sample_loss() then sample_latency()
# --------------------------------------------------------------------------- #
@st.composite
def _profiles(draw):
    base = draw(st.floats(0.0, 0.5, allow_nan=False))
    return LinkProfile(
        "drawn", base_latency=base,
        jitter=draw(st.floats(0.0, base, allow_nan=False)),
        loss_rate=draw(st.one_of(st.just(0.0), st.just(1.0),
                                 st.floats(0.0, 1.0, allow_nan=False))),
        bandwidth=draw(st.floats(1.0, 1e9, allow_nan=False)))


@settings(max_examples=300, deadline=None)
@given(profile=_profiles(), seed=st.integers(0, 2 ** 32),
       degradation=st.floats(1.0, 50.0, allow_nan=False),
       sizes=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=40),
       counted=st.booleans())
def test_one_call_hop_draws_what_loss_then_latency_draw(
        profile, seed, degradation, sizes, counted):
    make = CountedRandom if counted else random.Random
    one_call, two_calls = (LatencyModel(profile, make(seed)) for _ in "ab")
    one_call.degradation = two_calls.degradation = degradation
    for size in sizes:
        before = two_calls._rng.getstate()
        lost = two_calls.sample_loss()
        if lost:
            # A lost hop draws no jitter: one draw at most, none at rate 0.
            after_loss = two_calls._rng.getstate()
        expected = None if lost else two_calls.sample_latency(size)
        got = one_call.sample(size)
        assert got == expected and type(got) is type(expected)
        assert one_call._rng.getstate() == two_calls._rng.getstate()
        if lost:
            assert two_calls._rng.getstate() == after_loss != before
    if counted:
        assert (one_call._rng.moves, one_call._rng.words) == (
            two_calls._rng.moves, two_calls._rng.words)


def test_jitter_free_lossless_link_still_draws_its_jitter():
    """``uniform(-0.0, 0.0)`` draws; so does the spelled-out expression."""
    profile = LinkProfile("local", base_latency=0.0001)
    model, rng = LatencyModel(profile, random.Random(5)), random.Random(5)
    assert model.sample(256) == 0.0001 + 256 / 1e9
    rng.random()
    assert model._rng.getstate() == rng.getstate()


# --------------------------------------------------------------------------- #
# (c) run(until) fires what a next_event_time() + step() loop fires
# --------------------------------------------------------------------------- #
_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.5])
_ACTIONS = st.one_of(
    st.just(("noop",)),
    st.just(("stop",)),
    st.just(("instrument",)),
    st.just(("observer",)),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(st.just("hook"), st.integers(0, 4)),
    st.tuples(st.just("spawn"), _DELAYS, st.integers(-1, 1)),
)
_EVENTS = st.lists(st.tuples(_DELAYS, st.integers(-1, 1), _ACTIONS),
                   min_size=1, max_size=14)
_UNTILS = st.lists(st.one_of(st.none(), st.sampled_from(
    [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 3.5, 5.0, 9.0])), min_size=1,
    max_size=4)


class _Kernel:
    """One simulator loaded with a generated program, and what it did."""

    def __init__(self, events, cancelled):
        self.sim = Simulator()
        self.log = []
        self.handles = []
        self.stopped = False
        for index, (delay, priority, action) in enumerate(events):
            self._schedule(delay, priority, action, f"e{index}")
        for index in cancelled:
            self.sim.cancel(self.handles[index % len(self.handles)])

    def _schedule(self, delay, priority, action, label):
        self.handles.append(self.sim.schedule(
            delay, lambda sim: self._fire(label, action), priority=priority,
            label=label))

    def _fire(self, label, action):
        sim = self.sim
        self.log.append(("fire", label, sim.now, sim.fired_count,
                         sim.pending_count))
        kind = action[0]
        if kind == "stop":
            self.stopped = True
            sim.stop()
        elif kind == "instrument":
            sim.instrument = Instrument()
        elif kind == "observer":
            sim.on_event = lambda event: self.log.append(
                ("observed", event.label, event.fired, sim.fired_count))
        elif kind == "cancel":
            self.log.append(("cancel", sim.cancel(
                self.handles[action[1] % len(self.handles)])))
        elif kind == "hook":
            sim.at_fired(sim.fired_count + action[1],
                         lambda s: self.log.append(("hook", s.fired_count)))
        elif kind == "spawn":
            self._schedule(action[1], action[2], ("noop",), f"{label}+")

    def run(self, until):
        self.stopped = False
        self.sim.run(until)

    def step_loop(self, until):
        """``run`` as it read when it was built on the two public calls."""
        sim = self.sim
        self.stopped = False
        while not self.stopped:
            next_time = sim.next_event_time()
            if next_time is None or (until is not None and next_time > until):
                break
            if not sim.step():
                break
        if until is not None and sim.now < until and not self.stopped:
            sim.advance_to(until)

    def state(self):
        sim = self.sim
        instrument = sim.instrument
        return (self.log, sim.now, sim.fired_count, sim.pending_count,
                sim.next_event_time(), sim.pending_events(),
                None if instrument is None else
                (instrument.events,
                 {label: stats.count
                  for label, stats in instrument.labels.items()}))


@settings(max_examples=300, deadline=None)
@given(events=_EVENTS, cancelled=st.lists(st.integers(0, 30), max_size=3),
       untils=_UNTILS)
def test_run_fires_what_a_step_loop_fires(events, cancelled, untils):
    ran, stepped = _Kernel(events, cancelled), _Kernel(events, cancelled)
    for until in untils + [None]:
        ran.run(until)
        stepped.step_loop(until)
        assert ran.state() == stepped.state()


def test_run_skips_a_cancelled_head_and_stops_at_until():
    sim, fired = Simulator(), []
    head = sim.schedule(1.0, lambda s: fired.append("head"))
    sim.schedule(2.0, lambda s: fired.append("second"))
    sim.cancel(head)
    sim.run(until=1.5)
    assert fired == [] and sim.now == 1.5 and sim.pending_count == 1
    sim.run(until=2.0)          # an event *at* until fires
    assert fired == ["second"] and sim.now == 2.0


# --------------------------------------------------------------------------- #
# (d) one encoder per file == json.dumps per record
# --------------------------------------------------------------------------- #
class _Opaque:
    def __init__(self, tag):
        self.tag = tag

    def __repr__(self):
        return f"<opaque {self.tag}>"


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


def _reference_default(obj):
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    return repr(obj)


_SCALAR_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10 ** 12, 10 ** 12),
    st.floats(allow_nan=False), st.text(max_size=12),
    st.sampled_from(["température", "温度", 'quo"te', "a\nb"]),
    st.sampled_from(list(_Level)))
_VALUES = st.recursive(
    st.one_of(
        _SCALAR_VALUES,
        st.sets(st.integers(0, 99), max_size=4),
        st.frozensets(st.text(max_size=3), max_size=3),
        st.builds(_Opaque, st.integers(0, 9))),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=6)
_ATTRS = st.dictionaries(
    st.one_of(st.text(max_size=6),
              st.sampled_from(["subject", "trace_id", "status", "clé"])),
    _VALUES, max_size=5)


@st.composite
def _span_lists(draw):
    spans = []
    for index in range(draw(st.integers(0, 6))):
        parent = f"s{index:06d}" if draw(st.booleans()) else None
        start = draw(st.floats(0, 1e4, allow_nan=False))
        spans.append(Span(
            name=draw(st.text(max_size=8)),
            category=draw(st.sampled_from(["message", "mape", "réseau"])),
            context=SpanContext(f"t{index:04d}", f"s{index + 1:06d}", parent),
            start=start,
            end=draw(st.one_of(st.none(),
                               st.floats(0, 1e4, allow_nan=False))),
            status=draw(st.sampled_from(["ok", "delivered", "dropped:loss"])),
            attrs=draw(_ATTRS)))
    return spans


_TRACE_EVENTS = st.lists(st.builds(
    TraceEvent, time=st.floats(0, 1e4, allow_nan=False),
    category=st.sampled_from(["message", "traffic", "défaut"]),
    name=st.text(max_size=8), subject=st.text(max_size=8), attrs=_ATTRS),
    max_size=6)

_PLAIN = (int, float, str, bool, type(None))


def _reference_chrome_args(base, attrs):
    """The builder's ``args`` as one comprehension of ``isinstance`` calls."""
    base.update({k: repr(v) if not isinstance(v, _PLAIN) else v
                 for k, v in attrs.items()})
    return base


@settings(max_examples=200, deadline=None)
@given(spans=_span_lists(), events=_TRACE_EVENTS)
def test_exporters_write_what_dumps_per_record_writes(
        spans, events, tmp_path_factory):
    out = tmp_path_factory.mktemp("export")

    def read(name):
        return (out / name).read_text(encoding="utf-8")

    assert write_spans_jsonl(spans, str(out / "spans.jsonl")) == len(spans)
    assert read("spans.jsonl") == "".join(
        json.dumps(span.to_dict(), default=_reference_default) + "\n"
        for span in spans)

    assert write_events_jsonl(events, str(out / "events.jsonl")) == len(events)
    assert read("events.jsonl") == "".join(
        json.dumps({"time": event.time, "category": event.category,
                    "name": event.name, "subject": event.subject,
                    "attrs": event.attrs}, default=_reference_default) + "\n"
        for event in events)

    records = list(chrome_trace_events(spans=spans, events=events))
    slices = [record for record in records if record["ph"] == "X"]
    instants = [record for record in records if record["ph"] == "i"]
    assert len(slices) == len(spans) and len(instants) == len(events)
    for span, record in zip(spans, slices):
        base = {"trace_id": span.trace_id, "span_id": span.span_id,
                "status": span.status}
        if span.parent_id is not None:
            base["parent_id"] = span.parent_id
        expected = _reference_chrome_args(base, span.attrs)
        assert record["args"] == expected
        assert list(record["args"]) == list(expected)
    for event, record in zip(events, instants):
        expected = _reference_chrome_args({"subject": event.subject},
                                          event.attrs)
        assert record["args"] == expected
        assert list(record["args"]) == list(expected)

    assert write_chrome_trace(str(out / "trace.json"), spans=spans,
                              events=events) == len(records)
    assert read("trace.json") == json.dumps(
        {"traceEvents": records, "displayTimeUnit": "ms"},
        default=_reference_default)


def _reference_plane_trace(recorder, clock):
    """The per-plane Chrome document as it was built: the whole record
    list, then one ``json.dumps``."""
    records = [{"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
                "args": {"name": "repro profile (planes)"}}]
    tids = {}
    for span in recorder:
        plane = "transport" if span.category == "message" else "workload"
        if plane not in tids:
            tids[plane] = len(tids) + 1
            records.append({"ph": "M", "name": "thread_name", "pid": 1,
                            "tid": tids[plane], "args": {"name": plane}})
        end = span.end if span.end is not None else clock
        records.append({
            "ph": "X", "name": span.name, "cat": plane,
            "ts": span.start * 1e6,
            "dur": max((end - span.start) * 1e6, 1.0),
            "pid": 1, "tid": tids[plane],
            "args": {"trace_id": span.trace_id, "status": span.status,
                     "category": span.category}})
    return json.dumps({"traceEvents": records, "displayTimeUnit": "ms"})


@pytest.mark.parametrize("count", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                                   2 * _CHUNK + 1])
def test_exporters_join_chunks_as_dumps_joins_records(count, tmp_path):
    """Record counts on each side of a chunk boundary: the JSONL files
    have ``count`` lines and the Chrome documents ``count`` records
    (``count - 2`` spans on one thread, after the process and thread
    names; ``count == 1`` is the process name alone)."""
    spans = [Span(name=f"send{index}", category="message",
                  context=SpanContext(f"t{index:04d}", f"s{index + 1:06d}"),
                  start=index * 0.5,
                  end=None if index % 3 else index * 0.5 + 0.1,
                  attrs={"n": index, "tags": {index % 2}})
             for index in range(count)]
    events = [TraceEvent(index * 0.5, "message", "drop", f"d{index}",
                         {"why": "loss", "ids": frozenset({"a"})})
              for index in range(count)]

    assert write_spans_jsonl(spans, tmp_path / "spans.jsonl") == count
    assert (tmp_path / "spans.jsonl").read_text(encoding="utf-8") == "".join(
        json.dumps(span.to_dict(), default=_reference_default) + "\n"
        for span in spans)
    assert write_events_jsonl(events, tmp_path / "events.jsonl") == count
    assert (tmp_path / "events.jsonl").read_text(encoding="utf-8") == "".join(
        json.dumps({"time": event.time, "category": event.category,
                    "name": event.name, "subject": event.subject,
                    "attrs": event.attrs}, default=_reference_default) + "\n"
        for event in events)

    if not count:
        return      # every Chrome document names its process
    slices = spans[:max(0, count - 2)]
    records = list(chrome_trace_events(spans=slices))
    assert len(records) == count
    assert write_chrome_trace(tmp_path / "trace.json", spans=slices) == count
    assert (tmp_path / "trace.json").read_text(encoding="utf-8") == json.dumps(
        {"traceEvents": records, "displayTimeUnit": "ms"},
        default=_reference_default)
    assert write_profile_chrome_trace(tmp_path / "planes.json", slices,
                                      now=1e4) == count
    assert ((tmp_path / "planes.json").read_text(encoding="utf-8")
            == _reference_plane_trace(slices, 1e4))


# --------------------------------------------------------------------------- #
# (e) Message and TraceEvent keep the dataclass contract they replace
# --------------------------------------------------------------------------- #
@dataclasses.dataclass
class _DataclassMessage:
    """``Message`` as it was: a mutable dataclass, the reference."""

    src: str
    dst: str
    kind: str
    payload: Any = None
    size_bytes: int = 256
    msg_id: int = dataclasses.field(default=-1)
    sent_at: float = dataclasses.field(default=0.0)
    span: Optional[SpanContext] = dataclasses.field(default=None,
                                                    compare=False)
    auth: Optional[str] = dataclasses.field(default=None, compare=False)


@dataclasses.dataclass(frozen=True)
class _DataclassTraceEvent:
    """``TraceEvent`` as it was: a frozen dataclass, the reference."""

    time: float
    category: str
    name: str
    subject: str = ""
    attrs: Dict[str, Any] = dataclasses.field(default_factory=dict)


_MESSAGE_FIELDS = [f.name for f in dataclasses.fields(_DataclassMessage)]
_EVENT_FIELDS = [f.name for f in dataclasses.fields(_DataclassTraceEvent)]


def _field_values(obj, names):
    return tuple(getattr(obj, name) for name in names)


def _split_args(draw, names, values):
    """The same values as positional args, keywords, or left to default
    (the first three fields of both classes have no default)."""
    positional = draw(st.integers(3, len(names)))
    kwargs = {name: value for name, value in zip(names[positional:],
                                                  values[positional:])
              if draw(st.booleans())}
    return values[:positional], kwargs


# Few distinct values per field, so generated pairs are often equal.
_MESSAGE_VALUES = st.tuples(
    st.sampled_from(["edge0", "cloud"]), st.sampled_from(["d0.0", "edge1"]),
    st.sampled_from(["gossip", "traffic.request"]),
    st.one_of(st.none(), st.sampled_from([{"v": 1}, [1, 2]]), _VALUES),
    st.sampled_from([256, 128, 0]), st.integers(-1, 2),
    st.sampled_from([0.0, 1.5, -0.0]),
    st.one_of(st.none(), st.builds(SpanContext, st.sampled_from(["t0001"]),
                                   st.sampled_from(["s000001", "s000002"]))),
    st.one_of(st.none(), st.sampled_from(["tag-a", "tag-b"])))


@st.composite
def _message_pairs(draw):
    """One set of field values, the same values split into positional /
    keyword / default in two ways, and a second set sharing some fields."""
    values = draw(_MESSAGE_VALUES)
    other = draw(_MESSAGE_VALUES)
    mixed = tuple(b if draw(st.booleans()) else a
                  for a, b in zip(values, other))
    return [_split_args(draw, _MESSAGE_FIELDS, list(v))
            for v in (values, mixed)]


@settings(max_examples=300, deadline=None)
@given(pair=_message_pairs())
def test_message_is_built_and_compared_like_the_dataclass(pair):
    made = [Message(*args, **kwargs) for args, kwargs in pair]
    reference = [_DataclassMessage(*args, **kwargs) for args, kwargs in pair]
    for new, old in zip(made, reference):
        assert _field_values(new, _MESSAGE_FIELDS) == _field_values(
            old, _MESSAGE_FIELDS)
        assert repr(new) == repr(old).replace("_DataclassMessage", "Message")
        # Mutable, and unhashable as the eq-without-frozen dataclass was.
        with pytest.raises(TypeError):
            hash(new)
        new.payload, new.auth = {"replaced": True}, "signed"
        assert (new.payload, new.auth) == ({"replaced": True}, "signed")
        new.payload, new.auth = old.payload, old.auth
        assert new != old and not new == old   # another class: not equal
    a, b = made
    ref_a, ref_b = reference
    assert (a == b) is (ref_a == ref_b)
    assert (a != b) is (ref_a != ref_b)
    # span and auth never take part in equality.
    twin = Message(a.src, a.dst, a.kind, a.payload, a.size_bytes, a.msg_id,
                   a.sent_at, span=None if a.span else SpanContext("t", "s"),
                   auth=None if a.auth else "other")
    assert a == twin


def test_message_slots_refuse_unknown_attributes():
    message = Message("a", "b", "k")
    with pytest.raises(AttributeError):
        message.hops = 3
    assert (message.payload, message.size_bytes, message.msg_id,
            message.sent_at, message.span, message.auth) == (
        None, 256, -1, 0.0, None, None)


_EVENT_VALUES = st.tuples(
    st.floats(0, 1e4, allow_nan=False),
    st.sampled_from(["message", "traffic", "défaut"]),
    st.text(max_size=8), st.text(max_size=8), _ATTRS)


@st.composite
def _event_builds(draw):
    return [_split_args(draw, _EVENT_FIELDS, list(draw(_EVENT_VALUES)))
            for _ in range(draw(st.integers(0, 6)))]


@settings(max_examples=200, deadline=None)
@given(builds=_event_builds(), value=st.one_of(st.none(), st.integers()))
def test_trace_event_is_built_like_the_frozen_dataclass(
        builds, value, tmp_path_factory):
    made = [TraceEvent(*args, **kwargs) for args, kwargs in builds]
    reference = [_DataclassTraceEvent(*args, **kwargs)
                 for args, kwargs in builds]
    for new, old in zip(made, reference):
        assert _field_values(new, _EVENT_FIELDS) == _field_values(
            old, _EVENT_FIELDS)
        assert repr(new) == repr(old).replace("_DataclassTraceEvent",
                                              "TraceEvent")
        for name in _EVENT_FIELDS + ["extra"]:
            with pytest.raises(AttributeError):
                setattr(new, name, value)
            with pytest.raises(AttributeError):
                setattr(old, name, value)
        assert _field_values(new, _EVENT_FIELDS) == _field_values(
            old, _EVENT_FIELDS)
    out = tmp_path_factory.mktemp("events")
    assert write_events_jsonl(made, str(out / "new.jsonl")) == len(made)
    write_events_jsonl(reference, str(out / "old.jsonl"))
    assert (out / "new.jsonl").read_bytes() == (out / "old.jsonl").read_bytes()


def test_each_trace_event_gets_its_own_default_attrs():
    first, second = TraceEvent(1.0, "c", "n"), TraceEvent(1.0, "c", "n",
                                                          subject="s")
    assert first.attrs == second.attrs == {} and first.attrs is not second.attrs
    first.attrs["k"] = 1
    assert second.attrs == {} and TraceEvent(2.0, "c", "n").attrs == {}
    assert TraceEvent(time=0.0, category="c", name="n").subject == ""


# --------------------------------------------------------------------------- #
# (f) StreamingHistogram.observe's comparisons == folding min() / max()
# --------------------------------------------------------------------------- #
@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan"), math.inf, -math.inf, 1.0])),
    max_size=12))
def test_histogram_bounds_are_what_min_and_max_keep(values):
    hist = StreamingHistogram()
    low, high = math.inf, -math.inf
    for value in values:
        hist.observe(value)
        low, high = min(low, value), max(high, value)
        # repr tells -0.0 from 0.0 and shows a NaN: the same winner, ties
        # and NaNs included, not just an equal number.
        assert (repr(hist._min), repr(hist._max)) == (repr(low), repr(high))
