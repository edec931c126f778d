"""Unit tests for the persistence primitives.

Covers the snapshot helpers (canonical digests), the kernel's checkpoint
capture (pending-event metadata honoring lazy cancellation, ``advance_to``),
the JSONL journal (append, torn-line recovery, truncation), and the
versioned integrity-hashed checkpoint file.
"""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.persistence.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    default_paths,
)
from repro.persistence.journal import (
    JOURNAL_VERSION,
    JournalError,
    JournalWriter,
    read_journal,
    truncate,
)
from repro.persistence.snapshot import canonical_json, state_digest
from repro.simulation.kernel import SimulationError, Simulator


# --------------------------------------------------------------------------- #
# digests
# --------------------------------------------------------------------------- #
class TestDigests:
    def test_canonical_json_is_order_insensitive(self):
        assert (canonical_json({"b": 1, "a": [1, 2]})
                == canonical_json({"a": [1, 2], "b": 1}))

    def test_canonical_json_handles_sets_and_tuples(self):
        assert (canonical_json({"s": {3, 1, 2}, "t": (1, 2)})
                == canonical_json({"s": [1, 2, 3], "t": [1, 2]}))

    def test_state_digest_is_deterministic_and_sensitive(self):
        state = {"clock": 12.5, "streams": ["a", "b"]}
        assert state_digest(state) == state_digest(dict(state))
        changed = dict(state, clock=12.6)
        assert state_digest(state) != state_digest(changed)


# --------------------------------------------------------------------------- #
# kernel
# --------------------------------------------------------------------------- #
class TestKernelSnapshot:
    def test_snapshot_excludes_lazily_cancelled_events(self):
        sim = Simulator()
        fired = []
        drop = sim.schedule(1.0, lambda s: fired.append("drop"), label="drop")
        sim.schedule(2.0, lambda s: fired.append("keep"), label="keep")
        sim.cancel(drop)
        # The cancelled head stays in the heap, but no view counts it.
        assert sim.pending_count == 1
        assert sim.next_event_time() == 2.0
        sim.run()
        assert fired == ["keep"]

    def test_advance_to_moves_clock_without_firing(self):
        sim = Simulator()
        sim.schedule(10.0, lambda s: None)
        sim.advance_to(4.0)
        assert sim.now == 4.0
        assert sim.fired_count == 0
        with pytest.raises(SimulationError):
            sim.advance_to(3.0)          # backwards
        with pytest.raises(SimulationError):
            sim.advance_to(11.0)         # past the pending event


# --------------------------------------------------------------------------- #
# journal
# --------------------------------------------------------------------------- #
class TestJournal:
    def test_write_read_round_trip(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        writer = JournalWriter(path, scenario={"name": "t", "seed": 1},
                               digest_every=2)
        writer.append_event(1, 0.5, "a")
        writer.append_event(2, 1.0, "b")
        writer.append_digest(2, 1.0, "deadbeef")
        writer.close(2, 1.0, "deadbeef")

        journal = read_journal(path)
        assert journal.header["version"] == JOURNAL_VERSION
        assert journal.scenario == {"name": "t", "seed": 1}
        assert journal.digest_every == 2
        assert journal.complete
        assert [e["label"] for e in journal.events()] == ["a", "b"]
        assert len(journal.digests()) == 2   # digest + end

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        writer = JournalWriter(path, scenario={"name": "t"})
        writer.append_event(1, 0.5, "a")
        writer.abandon()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "event", "i": 2, "t"')   # mid-write crash
        journal = read_journal(path)
        assert len(journal.events()) == 1
        assert not journal.complete

    @pytest.mark.parametrize("version", ["true", "1.0"])
    def test_a_header_version_that_is_not_an_integer_is_rejected(
            self, tmp_path, version):
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f'{{"type":"header","version":{version}}}\n')
        with pytest.raises(JournalError,
                           match="unsupported journal version"):
            read_journal(path)

    def test_headerless_journal_is_rejected(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"type": "event", "i": 1, "t": 0.5, "label": "a"}\n')
        with pytest.raises(JournalError):
            read_journal(path)

    def test_truncate_drops_past_barrier_and_end(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        writer = JournalWriter(path, scenario={"name": "t"})
        for i in range(1, 6):
            writer.append_event(i, float(i), f"e{i}")
        writer.close(5, 5.0, "final")

        kept = truncate(path, fired=3)
        assert kept == 3
        journal = read_journal(path)
        assert [e["i"] for e in journal.events()] == [1, 2, 3]
        assert not journal.complete

        # A resumed writer continues where the truncated journal ends.
        resumed = JournalWriter(path, append=True)
        resumed.append_event(4, 4.0, "e4-again")
        resumed.abandon()
        assert [e["label"] for e in read_journal(path).events()] == \
            ["e1", "e2", "e3", "e4-again"]

    def test_every_event_is_on_disk_when_append_returns(self, tmp_path):
        """The WAL contract: one complete record per ``append_event``,
        visible through another handle before the next one is written."""
        path = str(tmp_path / "journal.jsonl")
        writer = JournalWriter(path, scenario={"name": "t"})
        for i in range(1, 40):
            writer.append_event(i, i * 0.25, f"e{i % 3}")
            with open(path, encoding="utf-8") as reader:
                lines = reader.read().split("\n")
            assert lines[-1] == "" and len(lines) == i + 2
            assert lines[-2] == _oracle(i, i * 0.25, f"e{i % 3}")[:-1]
        assert writer.records_written == 39
        writer.abandon()

    def test_label_memo_is_bounded(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        writer = JournalWriter(path)
        labels = [f"deliver:{i}" for i in range(3000)] + ["a", "a", "b\"\n"]
        for i, label in enumerate(labels):
            writer.append_event(i, float(i), label)
            assert len(writer._labels) <= 1024
        writer.abandon()
        with open(path, encoding="utf-8") as fh:
            assert fh.readlines()[1:] == [
                _oracle(i, float(i), label) for i, label in enumerate(labels)]

    @pytest.mark.parametrize("line,problem", [
        ('{"i":"x","label":"a","t":0.5,"type":"event"}', "'i' is not"),
        ('{"i":true,"label":"a","t":0.5,"type":"event"}', "'i' is not"),
        ('{"i":1.0,"label":"a","t":0.5,"type":"event"}', "'i' is not"),
        ('{"label":"a","t":0.5,"type":"event"}', "'i' is not"),
        ('{"i":1,"label":"a","t":null,"type":"event"}', "'t' is not"),
        ('{"i":1,"label":"a","type":"event"}', "'t' is not"),
        ('{"i":1,"label":"a","t":0.5}', "unknown record type None"),
        ('{"i":1,"label":"a","t":0.5,"type":"header"}',
         "unknown record type 'header'"),
        ('{"i":1,"label":"a","t":0.5,"type":["event"]}',
         "unknown record type"),
    ], ids=["i-str", "i-bool", "i-float", "i-missing", "t-null", "t-missing",
            "type-missing", "type-unknown", "type-list"])
    def test_wrong_typed_record_field_is_rejected(self, line, problem,
                                                  tmp_path):
        path = str(tmp_path / "journal.jsonl")
        JournalWriter(path, scenario={"name": "t"}).abandon()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(JournalError, match=f"line 2: {problem}"):
            read_journal(path)
        with pytest.raises(JournalError, match="line 2"):
            truncate(path, fired=10)

    def test_every_record_type_the_writer_emits_is_readable(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        writer = JournalWriter(path, scenario={"name": "t"})
        writer.append_event(1, 0, "int-time")
        writer.append_digest(1, 0.5, "d")
        writer.append_reconfig(1, 0.5, {"kind": "fault-schedule"})
        writer.close(1, 0.5, "d")
        assert [r["type"] for r in read_journal(path).records] == [
            "event", "digest", "reconfig", "end"]


def _oracle(index, time, label):
    """What the journal wrote for an event before it formatted the line."""
    return json.dumps({"type": "event", "i": index, "t": time,
                       "label": label},
                      sort_keys=True, separators=(",", ":")) + "\n"


_INDEX = st.one_of(st.integers(), st.booleans(),
                   st.integers(min_value=10 ** 30), st.integers(max_value=-1))
_TIME = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e-7, 1e22, 1e16, 5e-324, 2.2250738585072014e-308,
                     float("nan"), float("inf"), float("-inf"), 0.1 + 0.2]),
    st.integers(), st.booleans())
# st.text() draws from every code point but surrogates; the journal's
# encoder has to escape those too.
_LABEL = st.one_of(
    st.text(),
    st.text(alphabet=st.one_of(st.characters(),
                               st.integers(0xD800, 0xDFFF).map(chr))),
    st.sampled_from(['"', "\\", "a\"b\\c", "\x00\x1f\x7f", "\n\r\t",
                     "\U0001f600", "\ud800", "\udfff tail", "\u2028"]),
    # Not what the kernel passes, but whatever arrives is encoded as the
    # whole record would have encoded it.
    st.none(), st.integers(), st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=3))


@settings(max_examples=150, deadline=None)
@given(records=st.lists(st.tuples(_INDEX, _TIME, _LABEL), min_size=1,
                        max_size=12))
def test_event_lines_equal_the_serialised_record(records):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "journal.jsonl")
        writer = JournalWriter(path)
        for index, time, label in records:
            writer.append_event(index, time, label)
        writer.abandon()
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\n")[1:-1]
    assert [line + "\n" for line in lines] == [
        _oracle(*record) for record in records]
    for line in lines:
        # NaN != NaN, so the round trip is judged on the re-encoded bytes.
        assert json.dumps(json.loads(line), sort_keys=True,
                          separators=(",", ":")) == line


# --------------------------------------------------------------------------- #
# checkpoint file
# --------------------------------------------------------------------------- #
class TestCheckpointFile:
    def _checkpoint(self):
        return Checkpoint(scenario={"name": "t", "seed": 3, "params": {}},
                          time=45.0, fired=226, digest="abc123",
                          digest_every=25, state={"kernel": {"now": 45.0}})

    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "checkpoint.json")
        size = self._checkpoint().save(path)
        assert size == os.path.getsize(path) > 0
        loaded = Checkpoint.load(path)
        assert loaded.time == 45.0
        assert loaded.fired == 226
        assert loaded.digest == "abc123"
        assert loaded.state == {"kernel": {"now": 45.0}}
        assert loaded.version == CHECKPOINT_VERSION

    def test_tampered_payload_is_rejected(self, tmp_path):
        path = str(tmp_path / "checkpoint.json")
        self._checkpoint().save(path)
        document = json.load(open(path))
        document["payload"]["fired"] = 9999
        json.dump(document, open(path, "w"))
        with pytest.raises(CheckpointError, match="integrity"):
            Checkpoint.load(path)

    def test_unsupported_version_is_rejected(self, tmp_path):
        path = str(tmp_path / "checkpoint.json")
        checkpoint = self._checkpoint()
        checkpoint.version = 99
        checkpoint.save(path)
        with pytest.raises(CheckpointError, match="version"):
            Checkpoint.load(path)

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_a_version_that_is_not_an_integer_is_rejected(self, tmp_path,
                                                          version):
        """A bool is never a number, and a version is an integer: a
        resealed payload with ``version`` ``true`` or ``1.0`` is refused."""
        path = str(tmp_path / "checkpoint.json")
        checkpoint = self._checkpoint()
        checkpoint.version = version
        checkpoint.save(path)
        with pytest.raises(CheckpointError,
                           match="unsupported checkpoint version"):
            Checkpoint.load(path)

    def test_non_checkpoint_file_is_rejected(self, tmp_path):
        path = str(tmp_path / "checkpoint.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"something": "else"}')
        with pytest.raises(CheckpointError):
            Checkpoint.load(path)

    def test_default_paths_layout(self, tmp_path):
        paths = default_paths(str(tmp_path))
        assert paths["checkpoint"].endswith("checkpoint.json")
        assert paths["journal"].endswith("journal.jsonl")
        assert paths["divergence"].endswith("divergence.json")
