"""Unit tests for the trace log and RNG registry."""

import copy
import hashlib
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulation.rng import RngRegistry, rng_state_digest
from repro.simulation.trace import TraceEvent, TraceLog


class TestTraceLog:
    def test_emit_and_select(self, trace):
        trace.emit(1.0, "fault", "crash", subject="d1")
        trace.emit(2.0, "recovery", "device-recover", subject="d1")
        trace.emit(3.0, "fault", "crash", subject="d2")
        assert trace.count(category="fault") == 2
        assert [e.subject for e in trace.select(category="fault", name="crash")] == ["d1", "d2"]

    def test_select_time_window_is_half_open(self, trace):
        for t in range(5):
            trace.emit(float(t), "c", "n")
        assert len(trace.select(start=1.0, end=3.0)) == 2

    def test_time_going_backwards_raises(self, trace):
        trace.emit(5.0, "c", "n")
        with pytest.raises(ValueError):
            trace.emit(4.0, "c", "n")

    def test_subscribers_receive_live_events(self, trace):
        got = []
        unsubscribe = trace.subscribe(got.append)
        trace.emit(1.0, "c", "x")
        unsubscribe()
        trace.emit(2.0, "c", "y")
        assert [e.name for e in got] == ["x"]

    def test_attrs_carried(self, trace):
        event = trace.emit(1.0, "c", "n", subject="s", extra=42)
        assert event.attrs["extra"] == 42

    def test_matches_filters(self):
        event = TraceEvent(1.0, "cat", "name", "subj")
        assert event.matches(category="cat")
        assert not event.matches(category="other")
        assert event.matches(name="name", subject="subj")
        assert not event.matches(subject="other")


class TestTraceLogRingBuffer:
    def test_maxlen_bounds_memory_and_counts_drops(self):
        trace = TraceLog(maxlen=3)
        for t in range(5):
            trace.emit(float(t), "c", f"e{t}")
        assert len(trace) == 3
        assert [e.name for e in trace] == ["e2", "e3", "e4"]
        assert trace.dropped == 2

    def test_unbounded_by_default(self, trace):
        for t in range(100):
            trace.emit(float(t), "c", "n")
        assert len(trace) == 100
        assert trace.dropped == 0
        assert trace.maxlen is None

    def test_invalid_maxlen_rejected(self):
        with pytest.raises(ValueError):
            TraceLog(maxlen=0)
        with pytest.raises(ValueError):
            TraceLog(maxlen=-5)

    def test_queries_work_on_truncated_log(self):
        trace = TraceLog(maxlen=2)
        trace.emit(1.0, "fault", "partition-start", subject="p")
        trace.emit(5.0, "recovery", "partition-heal", subject="p")
        trace.emit(8.0, "fault", "partition-start", subject="p")
        # Oldest event evicted; queries see only the surviving window.
        assert [e.time for e in trace.select(subject="p")] == [5.0, 8.0]
        assert trace.count(category="fault") == 1


class TestTraceLogClear:
    def test_clear_drops_events_and_subscribers_and_counts_them(self):
        trace = TraceLog(maxlen=3)
        seen = []
        trace.subscribe(seen.append)
        for t in range(5):
            trace.emit(float(t), "c", f"e{t}")
        trace.clear()
        assert len(trace) == 0 and trace.events == []
        # Two evicted by the ring, three by the clear.
        assert trace.dropped == 5
        trace.emit(9.0, "c", "after")
        assert [e.name for e in seen] == ["e0", "e1", "e2", "e3", "e4"]
        assert [e.name for e in trace] == ["after"]


class TestTraceLogSubscriberHardening:
    def test_raising_subscriber_does_not_hide_event(self, trace):
        first_got, second_got = [], []

        def boom(event):
            first_got.append(event)
            raise RuntimeError("subscriber exploded")

        trace.subscribe(boom)
        trace.subscribe(second_got.append)
        with pytest.raises(RuntimeError, match="exploded"):
            trace.emit(1.0, "c", "x")
        # The log kept the event and the later subscriber still saw it.
        assert len(trace) == 1
        assert [e.name for e in second_got] == ["x"]
        assert trace.subscriber_errors == 1

    def test_first_error_reraised_all_counted(self, trace):
        trace.subscribe(lambda e: (_ for _ in ()).throw(ValueError("first")))
        trace.subscribe(lambda e: (_ for _ in ()).throw(KeyError("second")))
        with pytest.raises(ValueError, match="first"):
            trace.emit(1.0, "c", "x")
        assert trace.subscriber_errors == 2

    def test_log_still_usable_after_subscriber_error(self, trace):
        bad = trace.subscribe(
            lambda e: (_ for _ in ()).throw(RuntimeError("boom")))
        with pytest.raises(RuntimeError):
            trace.emit(1.0, "c", "x")
        bad()
        trace.emit(2.0, "c", "y")
        assert [e.name for e in trace] == ["x", "y"]


class TestRngRegistry:
    def test_same_name_same_stream_object(self, rngs):
        assert rngs.stream("a") is rngs.stream("a")

    def test_different_names_independent(self):
        registry = RngRegistry(seed=1)
        a_draws = [registry.stream("a").random() for _ in range(5)]
        registry2 = RngRegistry(seed=1)
        # Drawing from "b" first must not perturb "a".
        registry2.stream("b").random()
        a_draws2 = [registry2.stream("a").random() for _ in range(5)]
        assert a_draws == a_draws2

    def test_deterministic_across_instances(self):
        first = RngRegistry(seed=99).stream("x").random()
        second = RngRegistry(seed=99).stream("x").random()
        assert first == second

    def test_different_seeds_differ(self):
        assert RngRegistry(seed=1).stream("x").random() != RngRegistry(seed=2).stream("x").random()

    def test_stream_names_tracked(self, rngs):
        rngs.stream("zeta")
        rngs.stream("alpha")
        assert rngs.stream_names == ["alpha", "zeta"]


class TestRngDigestMemo:
    """``stream_digests`` is a memo keyed on each stream's ``(moves,
    gauss_next)``; it must always equal the digest of the freshly
    serialized state."""

    @staticmethod
    def fresh(registry):
        from repro.persistence.snapshot import state_digest
        from repro.simulation.rng import serialize_rng_state

        return {name: state_digest(serialize_rng_state(registry.stream(name)))
                for name in registry.stream_names}

    def test_memo_tracks_every_way_a_stream_moves(self):
        registry = RngRegistry(seed=11)
        a, b = registry.stream("a"), registry.stream("b")
        assert registry.stream_digests() == self.fresh(registry)
        assert (registry.streams_reencoded, registry.prefix_rebuilds) == (2, 2)
        # No draw: answered from the memo, still right.
        assert registry.stream_digests() == self.fresh(registry)
        before = registry.stream_digests()
        assert (registry.streams_reencoded, registry.prefix_rebuilds) == (2, 2)
        a.random()
        after = registry.stream_digests()
        assert after == self.fresh(registry)
        assert after["a"] != before["a"] and after["b"] == before["b"]
        # A fresh generator twists on its first draw (new state words)...
        assert (registry.streams_reencoded, registry.prefix_rebuilds) == (3, 3)
        a.random()
        assert registry.stream_digests() == self.fresh(registry)
        # ...and after that only the position moves: the tail alone is hashed.
        assert (registry.streams_reencoded, registry.prefix_rebuilds) == (4, 3)
        b.gauss(0.0, 1.0)
        assert registry.stream_digests() == self.fresh(registry)

    def test_gauss_next_alone_changes_the_digest(self):
        registry = RngRegistry(seed=3)
        rng = registry.stream("g")
        rng.gauss(0.0, 1.0)  # leaves a cached second variate
        version, internal, gauss_next = rng.getstate()
        assert gauss_next is not None
        with_cached = registry.stream_digests()["g"]
        rng.setstate((version, internal, None))
        assert registry.stream_digests() == self.fresh(registry)
        assert registry.stream_digests()["g"] != with_cached
        # gauss() hands out its cached variate without drawing: the move
        # counter stays put and only gauss_next tells the states apart.
        rng.gauss(0.0, 1.0)
        moves = rng.moves
        assert registry.stream_digests() == self.fresh(registry)
        rng.gauss(0.0, 1.0)
        assert rng.moves == moves and rng.gauss_next is None
        assert registry.stream_digests() == self.fresh(registry)

    def test_restore_state_and_late_streams(self):
        registry = RngRegistry(seed=7)
        registry.stream("a").random()
        saved = registry.stream("a").getstate()
        at_save = registry.stream_digests()
        registry.stream("a").random()
        registry.stream("late").random()  # created after the first digest
        moved = registry.stream_digests()
        assert moved == self.fresh(registry)
        assert sorted(moved) == ["a", "late"]
        registry.stream("a").setstate(saved)  # rewind to the saved state
        assert registry.stream_digests()["a"] == at_save["a"]
        assert registry.stream_digests() == self.fresh(registry)


# --------------------------------------------------------------------------- #
# The counting stream draws exactly what a plain random.Random draws
# --------------------------------------------------------------------------- #
_POPULATION = list(range(37))

#: One call per public draw method of ``random.Random``.
_DRAWS = {
    "random": lambda r: r.random(),
    "uniform": lambda r: r.uniform(-3.0, 9.0),
    "triangular": lambda r: r.triangular(0.0, 10.0, 2.5),
    "randint": lambda r: r.randint(-5, 10**12),
    "randrange": lambda r: r.randrange(3, 10**6, 7),
    "choice": lambda r: r.choice(_POPULATION),
    "choices": lambda r: r.choices(_POPULATION, k=5),
    "shuffle": lambda r: (lambda xs: (r.shuffle(xs), xs)[1])(_POPULATION[:]),
    "sample": lambda r: r.sample(_POPULATION, 9),
    "getrandbits": lambda r: (r.getrandbits(7), r.getrandbits(32),
                              r.getrandbits(100)),
    "randbytes": lambda r: r.randbytes(11),
    "expovariate": lambda r: r.expovariate(2.5),
    "gauss": lambda r: r.gauss(1.0, 2.0),
    "normalvariate": lambda r: r.normalvariate(1.0, 2.0),
    "lognormvariate": lambda r: r.lognormvariate(0.0, 0.25),
    "vonmisesvariate": lambda r: r.vonmisesvariate(1.0, 4.0),
    "gammavariate": lambda r: r.gammavariate(0.7, 2.0),
    "betavariate": lambda r: r.betavariate(2.0, 5.0),
    "paretovariate": lambda r: r.paretovariate(3.0),
    "weibullvariate": lambda r: r.weibullvariate(1.0, 1.5),
    "binomialvariate": lambda r: r.binomialvariate(40, 0.3),
}


class TestStreamDrawsLikePlainRandom:
    """Guard for the ``_randbelow`` trap: a ``Random`` subclass overriding
    ``random`` but not ``getrandbits`` silently changes every integer
    draw (``choice``/``shuffle``/``sample``/``randrange``)."""

    def test_every_public_draw_method_is_covered(self):
        public = {name for name in dir(random.Random)
                  if not name.startswith("_")
                  and callable(getattr(random.Random, name))}
        assert public - {"seed", "getstate", "setstate"} <= set(_DRAWS)

    @pytest.mark.parametrize("method", sorted(_DRAWS))
    def test_same_seed_same_sequence(self, method):
        if not hasattr(random.Random, method):
            pytest.skip(f"random.Random.{method} is not in this Python")
        registry = RngRegistry(seed=21)
        stream = registry.stream("s")
        plain = random.Random(registry._derive("s"))
        draw = _DRAWS[method]
        # 400 calls is > 624 words for most methods: a twist lands inside.
        assert ([draw(stream) for _ in range(400)]
                == [draw(plain) for _ in range(400)])
        assert stream.getstate() == plain.getstate()

    def test_mixed_methods_and_reseed(self):
        stream = RngRegistry(seed=4).stream("mix")
        plain = random.Random()
        for seed in (7, "text", b"bytes", 2**70):
            stream.seed(seed)
            plain.seed(seed)
            for method, draw in sorted(_DRAWS.items()):
                if hasattr(random.Random, method):
                    assert draw(stream) == draw(plain), (seed, method)
        assert stream.getstate() == plain.getstate()


# --------------------------------------------------------------------------- #
# Property: the memo never disagrees with the reference digest
# --------------------------------------------------------------------------- #
_NAMES = ("a", "b", "c")
_STEP = st.one_of(
    st.tuples(st.sampled_from(("random", "gauss", "choice", "shuffle",
                               "expovariate", "randbytes", "sample",
                               "choices", "randint", "randrange",
                               "getrandbits")),
              st.sampled_from(_NAMES)),
    st.tuples(st.just("words"), st.sampled_from(_NAMES),
              st.sampled_from((1, 5, 623, 624, 700, 1300))),
    # Draw sizes around the 32-bit word boundary, and two that twist more
    # than once in a single call (19937 bits is one whole state).
    st.tuples(st.just("bits"), st.sampled_from(_NAMES),
              st.sampled_from((0, 1, 31, 32, 33, 64, 65, 19937, 20000))),
    st.tuples(st.just("bytes"), st.sampled_from(_NAMES),
              st.sampled_from((0, 1, 4, 5, 2496, 2500))),
    st.tuples(st.just("big-randrange"), st.sampled_from(_NAMES)),
    # Stop exactly on the last word, one short of it, and one past a twist.
    st.tuples(st.just("land-on"), st.sampled_from(_NAMES),
              st.sampled_from((623, 624, 625))),
    st.tuples(st.just("drop-gauss"), st.sampled_from(_NAMES)),
    st.tuples(st.just("seed"), st.sampled_from(_NAMES), st.integers(0, 3)),
    st.tuples(st.just("setstate"), st.sampled_from(_NAMES),
              st.sampled_from(_NAMES)),
    st.tuples(st.sampled_from(("save", "rewind", "late-stream",
                               "pickle-registry", "deepcopy-registry",
                               "digest")),),
    st.tuples(st.sampled_from(("copy-stream", "pickle-stream")),
              st.sampled_from(_NAMES)),
)


def _reference(registry):
    return {name: rng_state_digest(registry.stream(name))
            for name in registry.stream_names}


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 5), steps=st.lists(_STEP, max_size=40),
       digest_every_step=st.booleans())
def test_stream_digests_equal_the_reference_after_any_interleaving(
        seed, steps, digest_every_step):
    registry = RngRegistry(seed=seed)
    registry.stream("a")
    registry.stream("b")
    saved = {}
    for op, *args in steps:
        if op in _DRAWS:
            _DRAWS[op](registry.stream(args[0]))
        elif op == "words":
            rng = registry.stream(args[0])
            for _ in range(args[1]):
                rng.getrandbits(32)
        elif op == "bits":
            registry.stream(args[0]).getrandbits(args[1])
        elif op == "bytes":
            registry.stream(args[0]).randbytes(args[1])
        elif op == "big-randrange":
            registry.stream(args[0]).randrange(2 ** 32 + 1, 2 ** 80)
        elif op == "land-on":
            rng = registry.stream(args[0])
            position = rng.getstate()[1][-1]
            for _ in range((args[1] - position) % 624):
                rng.getrandbits(32)
            assert rng.getstate()[1][-1] == (args[1] - 1) % 624 + 1
        elif op == "drop-gauss":
            rng = registry.stream(args[0])
            version, internal, _gauss_next = rng.getstate()
            rng.setstate((version, internal, None))
        elif op == "seed":
            registry.stream(args[0]).seed(args[1])
        elif op == "setstate":
            registry.stream(args[0]).setstate(
                registry.stream(args[1]).getstate())
        elif op == "save":
            saved = {name: registry.stream(name).getstate()
                     for name in registry.stream_names}
        elif op == "rewind":
            for name, state in saved.items():
                registry.stream(name).setstate(state)
        elif op == "late-stream":
            registry.stream(f"late{len(registry.stream_names)}").random()
        elif op == "pickle-registry":
            registry = pickle.loads(pickle.dumps(registry))
        elif op == "deepcopy-registry":
            registry = copy.deepcopy(registry)
        elif op in ("copy-stream", "pickle-stream"):
            rng = registry.stream(args[0])
            clone = (copy.copy(rng) if op == "copy-stream"
                     else pickle.loads(pickle.dumps(rng)))
            # A clone carries the state but never the memo...
            assert clone._digest_key is None
            assert clone.getstate() == rng.getstate()
            # ...and drawing from it leaves the original's digest alone.
            clone.random()
        if op == "digest" or digest_every_step:
            assert registry.stream_digests() == _reference(registry)
    assert registry.stream_digests() == _reference(registry)
    assert registry.stream_digests() == _reference(registry)


def test_twist_mid_sequence_rebuilds_the_prefix_once():
    registry = RngRegistry(seed=9)
    rng = registry.stream("t")
    registry.stream_digests()
    rebuilds = registry.prefix_rebuilds
    for drawn in range(1, 701):
        rng.getrandbits(32)
        assert registry.stream_digests() == _reference(registry), drawn
    # A fresh generator twists on draws 1 and 625; the other 698 digests
    # hashed the tail only.
    assert registry.prefix_rebuilds - rebuilds == 2
    assert registry.streams_reencoded == 701


# --------------------------------------------------------------------------- #
# The position comes from the words drawn; getstate() is read once per twist
# --------------------------------------------------------------------------- #
@pytest.fixture
def state_reads(monkeypatch):
    """Counts ``getstate()`` calls on registry streams: ``reads()``."""
    from repro.simulation.rng import CountedRandom

    calls = []
    plain = CountedRandom.getstate

    def counted(self):
        calls.append(self)
        return plain(self)

    monkeypatch.setattr(CountedRandom, "getstate", counted)
    return lambda: len(calls)


class TestDigestFromWordsDrawn:
    def test_a_fresh_stream_twists_on_its_first_draw(self, state_reads):
        registry = RngRegistry(seed=2)
        rng = registry.stream("f")
        assert rng.getstate()[1][-1] == 624
        before = state_reads()
        registry.stream_digests()                     # first sight
        assert state_reads() - before == 1
        registry.stream_digests()                     # idle
        rng.getrandbits(0)                            # a call, zero words
        registry.stream_digests()
        assert state_reads() - before == 1
        rng.random()                                  # 624 + 2: twists
        digests = registry.stream_digests()
        assert state_reads() - before == 2
        assert digests == _reference(registry)
        assert rng.getstate()[1][-1] == 2

    @pytest.mark.parametrize("bad,error", [(-1, ValueError), (-40, ValueError),
                                           ("x", TypeError), (2.0, TypeError)])
    def test_a_raising_draw_counts_no_words(self, bad, error):
        registry = RngRegistry(seed=2)
        rng = registry.stream("r")
        rng.getrandbits(32 * 600)
        registry.stream_digests()
        words = rng.words
        with pytest.raises(error):
            rng.getrandbits(bad)
        assert rng.words == words
        assert registry.stream_digests() == _reference(registry)
        # Through the next twist, where the count is checked against the
        # real position.
        for _ in range(700):
            rng.getrandbits(32)
            assert registry.stream_digests() == _reference(registry)

    def test_words_are_counted_per_draw(self):
        rng = RngRegistry(seed=2).stream("w")
        for draw, words in ((lambda: rng.random(), 2),
                            (lambda: rng.getrandbits(0), 0),
                            (lambda: rng.getrandbits(1), 1),
                            (lambda: rng.getrandbits(32), 1),
                            (lambda: rng.getrandbits(33), 2),
                            (lambda: rng.getrandbits(19937), 624),
                            (lambda: rng.randbytes(5), 2)):
            before, position = rng.words, rng.getstate()[1][-1]
            draw()
            assert rng.words - before == words
            assert rng.getstate()[1][-1] == (position + words - 1) % 624 + 1

    @pytest.mark.parametrize("reset", ["seed", "setstate", "copy", "pickle"])
    def test_a_reset_stream_is_read_not_counted(self, reset, state_reads):
        registry = RngRegistry(seed=6)
        rng = registry.stream("s")
        rng.random()
        other = random.Random(99)
        other.getrandbits(32 * 100)
        registry.stream_digests()
        if reset == "seed":
            rng.seed(99)
        elif reset == "setstate":
            rng.setstate(other.getstate())
        elif reset == "copy":
            rng = registry._streams["s"] = copy.copy(rng)
        else:
            rng = registry._streams["s"] = pickle.loads(pickle.dumps(rng))
        rng.random()
        before = state_reads()
        digests = registry.stream_digests()
        assert state_reads() - before == 1
        assert digests == _reference(registry)

    def test_a_draw_that_bypasses_the_counters_is_caught(self):
        registry = RngRegistry(seed=8)
        rng = registry.stream("b")
        rng.random()
        registry.stream_digests()
        random.Random.random(rng)          # moves the state, counts nothing
        with pytest.raises(RuntimeError, match="without going through"):
            for _ in range(624):
                rng.getrandbits(32)
                registry.stream_digests()

    def test_state_is_read_once_per_twist_not_once_per_digest(self,
                                                              state_reads):
        registry = RngRegistry(seed=9)
        rng = registry.stream("t")
        before = state_reads()
        for _ in range(3000):
            rng.getrandbits(32)
            registry.stream_digests()
        # First sight (which is also the fresh stream's first twist), then
        # the twists at words 625, 1249, 1873 and 2497.
        assert state_reads() - before == 5
        assert registry.prefix_rebuilds == 5
        assert registry.streams_reencoded == 3000
        assert registry.stream_digests() == _reference(registry)


# --------------------------------------------------------------------------- #
# Byte-identity pins: journals recorded before the stream class changed
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("scenario,quick,sha256", [
    ("control-outage", False,
     "15bb9a07ef500ac15410a4b6629369d577e87f13101f336a9f2147e4367af1bd"),
    ("traffic-overload", True,
     "482311949ee8ae627318c067e874725031c3a7580051e351e3d845aac3dae20f"),
    ("security-byzantine-gossip", False,
     "e645b89c3d5831fef76d2b3924568bb4312fa178a87a1097306cd09a3c39a393"),
], ids=["control-outage", "traffic-overload-quick",
        "security-byzantine-gossip"])
def test_journal_bytes_are_pinned(tmp_path, scenario, quick, sha256):
    from repro.persistence import run_scenario
    from repro.scenarios import describe_scenario

    path = str(tmp_path / "journal.jsonl")
    run_scenario(describe_scenario(scenario).spec(quick), journal_path=path)
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == sha256
