"""The streaming journal readers against the list-based ones they replaced.

``truncate`` and replay stream the journal: one validating pass each, no
record list, and replay holds every line its re-run formats against the
recorded one, parsing a pair only when the bytes differ.  The
implementations they replaced are kept below as oracles, verbatim in
behaviour: the list-building ``read_journal``, the re-encoding
``truncate``, the in-memory recorder and the list-based diff.  Hypothesis
mutates real journals and holds the two sides to the same reports,
refusals and truncated records, and to the same bytes for any journal
:class:`JournalWriter` wrote.  The last section holds the readers to
constant memory.
"""

import gc
import json
import os
import shutil
import tempfile
import tracemalloc
from typing import Any, Dict, List, Optional

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.persistence import (
    Divergence,
    JournalError,
    JournalRecords,
    JournalWriter,
    ReplayReport,
    Run,
    ScenarioSpec,
    describe_scenario,
    prepare,
    replay_journal,
    run_scenario,
    run_to_checkpoint,
    truncate,
)
from repro.persistence.journal import _RECORD as RECORD_SHAPE
from repro.persistence.journal import JOURNAL_VERSION, _encode, read_journal
from repro.persistence.replay import _COMPARED_FIELDS
from repro.schema import flat_problem


# --------------------------------------------------------------------------- #
# oracles: the list-based readers, as they were
# --------------------------------------------------------------------------- #
def oracle_read_journal(path: str) -> JournalRecords:
    header: Optional[Dict[str, Any]] = None
    records: List[Dict[str, Any]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break
            if not isinstance(record, dict):
                raise JournalError(
                    f"{path}: line {lineno + 1} is not a journal record")
            if lineno == 0:
                if record.get("type") != "header":
                    raise JournalError(f"{path}: first record is not a header")
                if record.get("version") != JOURNAL_VERSION:
                    raise JournalError(
                        f"{path}: unsupported journal version "
                        f"{record.get('version')!r} (want {JOURNAL_VERSION})")
                header = record
            else:
                problem = flat_problem(record, RECORD_SHAPE)
                if problem:
                    raise JournalError(
                        f"{path}: line {lineno + 1}: {problem}")
                records.append(record)
    if header is None:
        raise JournalError(f"{path}: empty or headerless journal")
    return JournalRecords(header=header, records=records)


def oracle_truncate(path: str, fired: int) -> int:
    journal = oracle_read_journal(path)
    kept = [r for r in journal.records
            if r["type"] != "end" and r["i"] <= fired]
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(_encode(journal.header) + "\n")
        for record in kept:
            fh.write(_encode(record) + "\n")
    os.replace(tmp, path)
    return len(kept)


class MemoryJournal:
    """A JournalWriter look-alike that keeps records in memory."""

    def __init__(self, digest_every: int) -> None:
        self.digest_every = digest_every
        self.records: List[Dict[str, Any]] = []

    def append_event(self, index: int, time: float, label: str) -> None:
        self.records.append({"type": "event", "i": index, "t": time,
                             "label": label})

    def append_digest(self, index: int, time: float, digest: str) -> None:
        self.records.append({"type": "digest", "i": index, "t": time,
                             "digest": digest})

    def close(self, index: int, time: float, digest: str) -> None:
        self.records.append({"type": "end", "i": index, "t": time,
                             "digest": digest})

    def abandon(self) -> None:
        pass


def oracle_first_divergence(recorded: List[Dict[str, Any]],
                            replayed: List[Dict[str, Any]],
                            complete: bool) -> Optional[Divergence]:
    for index, want in enumerate(recorded):
        kind = want.get("type", "?")
        if index >= len(replayed):
            return Divergence(index=index, fired=want["i"],
                              time=want.get("t"), field="type",
                              recorded=kind,
                              replayed="<journal longer than replay>")
        got = replayed[index]
        if got.get("type") != kind:
            return Divergence(index=index, fired=want["i"],
                              time=want.get("t"), field="type",
                              recorded=kind, replayed=got.get("type"))
        for fld in _COMPARED_FIELDS.get(kind, ()):
            if want.get(fld) != got.get(fld):
                return Divergence(index=index, fired=want["i"],
                                  time=want.get("t"), field=fld,
                                  recorded=want.get(fld),
                                  replayed=got.get(fld))
    if complete and len(replayed) > len(recorded):
        extra = replayed[len(recorded)]
        return Divergence(index=len(recorded), fired=extra["i"],
                          time=extra.get("t"), field="type",
                          recorded="<journal ends>",
                          replayed=extra.get("type"))
    return None


def oracle_replay_journal(path: str) -> ReplayReport:
    journal = oracle_read_journal(path)
    scenario = journal.scenario
    try:
        spec = ScenarioSpec.from_dict(scenario)
    except ValueError as exc:
        raise JournalError("journal header has no scenario spec; "
                           "this journal cannot be replayed") from exc
    memory = MemoryJournal(int(journal.header.get("digest_every", 0)) or 25)
    # What ``Run.start(spec, journal=memory)`` did before it took a sink.
    run = Run(spec, prepare(spec))._record(memory, memory.digest_every, None)
    reconfigs = journal.reconfigs()
    if reconfigs:
        from repro.live.reconfigure import register_live_loads

        register_live_loads(run.system,
                            [{"fired": r.get("i", 0), "time": r.get("t", 0.0),
                              "payload": r.get("payload", {})}
                             for r in reconfigs])
    compared = [r for r in journal.records if r.get("type") != "reconfig"]
    try:
        run.drive(None)
    finally:
        if journal.complete:
            run.finish()
        else:
            run.abandon()
    return ReplayReport(
        scenario=scenario,
        records_checked=len(compared),
        events_replayed=run.system.sim.fired_count,
        journal_complete=journal.complete,
        divergence=oracle_first_divergence(compared, memory.records,
                                           journal.complete),
        extra={"reconfigs_applied": len(reconfigs)} if reconfigs else {},
    )


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def _outcome(call, path: str, *args) -> str:
    """What ``call(path, *args)`` returned or raised, as canonical JSON:
    NaN-safe, and the same for two copies of one journal."""
    try:
        value = call(path, *args)
    except Exception as exc:   # the two sides must refuse alike
        return f"raised {type(exc).__name__}: " + str(exc).replace(
            path, "<journal>")
    if isinstance(value, ReplayReport):
        value = value.to_dict()
    elif isinstance(value, JournalRecords):
        value = {"header": value.header, "records": value.records}
    return json.dumps(value, sort_keys=True)


def _write_lines(path: str, lines: List[str], tail: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines) + tail)


_SPEC = describe_scenario("control-outage").spec(quick=True)
_FAULT = {"kind": "fault-schedule",
          "faults": [{"kind": "crash", "at": 0.5, "duration": 2.0,
                      "target": "edge0"}]}


class _Journals(dict):
    """Journal lines by name; short in a falsifying example's repr."""

    def __repr__(self) -> str:
        return f"<journals {sorted(self)}>"


@pytest.fixture(scope="module")
def journals(tmp_path_factory):
    """``control-outage`` journals: a finished run and one cut at t=45."""
    directory = tmp_path_factory.mktemp("journals")
    complete = str(directory / "complete.jsonl")
    run_scenario(_SPEC, journal_path=complete)
    run_to_checkpoint(_SPEC, str(directory / "cut"), at=45.0)
    lines = _Journals()
    for name, path in (("complete", complete),
                       ("cut", str(directory / "cut" / "journal.jsonl"))):
        with open(path, encoding="utf-8") as fh:
            lines[name] = fh.read().splitlines()
    return lines


# --------------------------------------------------------------------------- #
# mutations
# --------------------------------------------------------------------------- #
def _escaped(text: str) -> str:
    return '"' + "".join(f"\\u{ord(c):04x}" for c in text) + '"'


def _reencoded(record: Dict[str, Any], keys, sep=(",", ":"),
               escape=False) -> str:
    """``record`` as another valid encoding of the same JSON object."""
    return "{" + sep[0].join(
        json.dumps(key) + sep[1]
        + (_escaped(record[key]) if escape and isinstance(record[key], str)
           else json.dumps(record[key]))
        for key in keys) + "}"


def _record(line: str) -> Optional[Dict[str, Any]]:
    try:
        record = json.loads(line)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


_EDITS = ["field", "time", "reformat", "duplicate-key", "delete", "copy",
          "append"]
_INSERTS = ["blank", "torn", "reconfig", "end"]


@st.composite
def mutated(draw, journals):
    """A recorded journal's lines after up to four edits, and its tail."""
    lines = list(journals[draw(st.sampled_from(["complete", "cut"]))])
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(_EDITS + _INSERTS))
        if op in _EDITS:
            records = [k for k in range(1, len(lines)) if _record(lines[k])]
            if not records:
                continue
            at = draw(st.sampled_from(records))
            record = _record(lines[at])
        else:
            at = draw(st.integers(0 if op == "blank" else 1, len(lines)))
        if op == "field":
            fld = draw(st.sampled_from(["label", "i", "type", "digest"]))
            record[fld] = draw({
                "label": st.sampled_from(["tampered", "", "é"]),
                # "x" and "evnt" make the journal malformed: both sides
                # must refuse it with the same line.
                "i": st.one_of(st.integers(-1, 600), st.just("x")),
                "type": st.sampled_from(["event", "digest", "end", "evnt"]),
                "digest": st.sampled_from(["0" * 64, "x"]),
            }[fld])
            lines[at] = _encode(record)
        elif op == "time":
            how = draw(st.sampled_from(
                ["-0.0", "0.0", "0", "NaN", "int", "shift"]))
            if type(record.get("t")) is not float:   # the header, "bogus"
                continue
            if how == "int":
                if record["t"] != record["t"]:   # NaN has no int
                    continue
                record["t"] = int(record["t"])
            else:
                record["t"] = {"-0.0": -0.0, "0.0": 0.0, "0": 0,
                               "NaN": float("nan"),
                               "shift": record["t"] + 0.25}[how]
            lines[at] = _encode(record)
        elif op == "reformat":
            lines[at] = _reencoded(
                record, draw(st.permutations(sorted(record))),
                draw(st.sampled_from([(",", ":"), (", ", ": "),
                                      (" ,", " : ")])),
                draw(st.booleans()))
        elif op == "duplicate-key":
            bogus = json.dumps({draw(st.sampled_from(sorted(record))):
                                "bogus"})[1:-1]
            body = lines[at][1:-1]
            lines[at] = "{" + (bogus + "," + body if draw(st.booleans())
                               else body + "," + bogus) + "}"
        elif op == "delete":
            del lines[at]
        elif op == "copy":
            lines.insert(at, lines[at])
        elif op == "append":   # an extra record after the last one
            lines.append(lines[at])
        elif op == "blank":
            lines.insert(at, draw(st.sampled_from(["", "   ", "\t"])))
        elif op == "torn":
            whole = lines[min(at, len(lines) - 1)]
            lines.insert(at, whole[:draw(st.integers(1, max(1, len(whole)
                                                             - 1)))])
        else:   # reconfig / end: at the barrier of the record before
            before = next((r for r in map(_record, reversed(lines[1:at]))
                           if r and type(r.get("i")) is int), {})
            fired, time = before.get("i", 0), before.get("t", 0.0)
            lines.insert(at, _encode(
                {"type": "reconfig", "i": fired, "t": time,
                 "payload": _FAULT} if op == "reconfig"
                else {"type": "end", "i": fired, "t": time,
                      "digest": "0" * 64}))
    tail = draw(st.sampled_from(["", "", '{"i":9', "   "]))
    return lines, tail


# --------------------------------------------------------------------------- #
# replay and truncate against the oracles
# --------------------------------------------------------------------------- #
_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture,
                                            HealthCheck.too_slow])


@_SETTINGS
@given(data=st.data())
def test_replay_reports_equal_the_oracle(journals, tmp_path, data):
    lines, tail = data.draw(mutated(journals))
    path = str(tmp_path / "journal.jsonl")
    _write_lines(path, lines, tail)
    assert _outcome(replay_journal, path) == _outcome(
        oracle_replay_journal, path)


@_SETTINGS
@given(data=st.data(), fired=st.integers(-1, 520))
def test_truncate_keeps_what_the_oracle_keeps(journals, tmp_path, data,
                                              fired):
    lines, tail = data.draw(mutated(journals))
    streamed, encoded = (str(tmp_path / name) for name in ("a", "b"))
    for path in (streamed, encoded):
        _write_lines(path, lines, tail)
    with open(streamed, "rb") as fh:
        before = fh.read()
    kept = _outcome(truncate, streamed, fired)
    assert kept == _outcome(oracle_truncate, encoded, fired)
    assert not os.path.exists(streamed + ".tmp")
    if kept.startswith("raised"):
        with open(streamed, "rb") as fh:
            assert fh.read() == before     # a refused journal is untouched
    else:
        assert (_outcome(read_journal, streamed)
                == _outcome(read_journal, encoded))
        # Kept lines are the input's, byte for byte and in order.
        with open(streamed, encoding="utf-8") as fh:
            survivors = fh.read().splitlines()
        source = iter(line.strip() for line in lines)
        assert all(line in source for line in survivors)


@_SETTINGS
@given(which=st.sampled_from(["complete", "cut"]),
       fired=st.integers(0, 520))
def test_truncate_of_a_recorded_run_is_byte_identical(journals, tmp_path,
                                                      which, fired):
    streamed, encoded = (str(tmp_path / name) for name in ("a", "b"))
    for path in (streamed, encoded):
        _write_lines(path, journals[which])
    assert truncate(streamed, fired) == oracle_truncate(encoded, fired)
    with open(streamed, "rb") as a_fh, open(encoded, "rb") as b_fh:
        assert a_fh.read() == b_fh.read()


_INDEX = st.one_of(st.integers(0, 10 ** 6), st.integers(min_value=10 ** 30),
                   st.booleans())
_TIME = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(),
    st.sampled_from([-0.0, 0.0, 1e22, 5e-324, float("nan"), 0.1 + 0.2]))
_TEXT = st.text(alphabet=st.one_of(st.characters(),
                                   st.integers(0xD800, 0xDFFF).map(chr)),
                max_size=8)
# Keys without surrogates: two lone ones escaped side by side parse back
# as one astral character, which sorts elsewhere, so re-encoding such a
# key moves it -- a quirk of the oracle that keeping the bytes does not have.
_KEY = st.text(max_size=8)
_RECORD = st.one_of(
    st.tuples(st.just("event"), _INDEX, _TIME, _TEXT),
    st.tuples(st.just("digest"), _INDEX, _TIME, _TEXT),
    st.tuples(st.just("reconfig"), _INDEX, _TIME,
              st.dictionaries(_KEY, st.one_of(st.integers(), _TEXT),
                              max_size=3)))


@settings(max_examples=150, deadline=None)
@given(records=st.lists(_RECORD, max_size=12), closed=st.booleans(),
       fired=st.integers(-1, 10 ** 6), header=st.dictionaries(
           _KEY, st.one_of(st.integers(), _TIME, _TEXT), max_size=3))
def test_truncate_of_any_written_journal_is_byte_identical(records, closed,
                                                           fired, header):
    with tempfile.TemporaryDirectory() as directory:
        streamed, encoded = (os.path.join(directory, name)
                             for name in ("a", "b"))
        writer = JournalWriter(streamed, scenario=header, digest_every=3)
        for kind, index, time, value in records:
            {"event": writer.append_event, "digest": writer.append_digest,
             "reconfig": writer.append_reconfig}[kind](index, time, value)
        if closed:
            writer.close(len(records), 1.5, "end")
        else:
            writer.abandon()
        shutil.copyfile(streamed, encoded)
        outcome = _outcome(truncate, streamed, fired)
        assert outcome == _outcome(oracle_truncate, encoded, fired)
        with open(streamed, "rb") as a_fh, open(encoded, "rb") as b_fh:
            assert a_fh.read() == b_fh.read()


def test_a_record_encoded_differently_still_matches(journals, tmp_path):
    """Every line re-encoded -- keys reversed, spaced, strings as ``\\u``
    escapes, an integral ``t`` as an int -- plus blank lines and a torn
    tail: the replay matches, and a changed label after that diverges."""
    path = str(tmp_path / "journal.jsonl")
    lines = list(journals["complete"])
    integral = 0
    for at in range(1, len(lines)):
        record = json.loads(lines[at])
        if record["t"] == int(record["t"]):
            record["t"], integral = int(record["t"]), integral + 1
        lines[at] = _reencoded(record, sorted(record, reverse=True),
                               (", ", " : "), escape=True)
    assert integral > 0
    lines[3:3] = ["", "  \t"]
    _write_lines(path, lines, '{"type":"event","i":')
    report = replay_journal(path)
    assert report.ok and report.journal_complete
    assert report.records_checked == len(journals["complete"]) - 1

    tampered = json.loads(lines[20])
    tampered["label" if tampered["type"] == "event" else "digest"] = "x"
    lines[20] = _encode(tampered)
    _write_lines(path, lines)
    assert not replay_journal(path).ok
    assert (_outcome(replay_journal, path)
            == _outcome(oracle_replay_journal, path))


def test_records_past_the_replay_are_a_divergence(journals, tmp_path):
    """An event after ``end`` leaves the journal open-ended, so the replay
    writes no ``end``: the recorded one is where the journal is longer."""
    path = str(tmp_path / "journal.jsonl")
    lines = journals["complete"]
    _write_lines(path, lines + lines[1:2])
    divergence = replay_journal(path).divergence
    assert divergence.replayed == "<journal longer than replay>"
    assert (divergence.index, divergence.recorded) == (len(lines) - 2, "end")
    assert (_outcome(replay_journal, path)
            == _outcome(oracle_replay_journal, path))


# --------------------------------------------------------------------------- #
# constant memory
# --------------------------------------------------------------------------- #
def _extra_peak_kib(call, *args) -> float:
    """Peak traced allocation above what was live when ``call`` started."""
    gc.collect()
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        call(*args)
        return (tracemalloc.get_traced_memory()[1] - live) / 1024
    finally:
        tracemalloc.stop()


class TestConstantMemory:
    """A reader's extra peak does not grow with the journal: N vs 4N."""

    SLACK_KIB = 32   # the list readers grow by ~0.7 MiB over these sizes

    def test_truncate(self, tmp_path):
        peaks = []
        for records in (2_000, 8_000):
            path = str(tmp_path / f"{records}.jsonl")
            writer = JournalWriter(path, scenario={"name": "t"})
            for index in range(1, records + 1):
                writer.append_event(index, index * 0.5, f"e{index % 7}")
            writer.close(records, records * 0.5, "d" * 64)
            peaks.append(_extra_peak_kib(truncate, path, records // 2))
        assert peaks[1] <= peaks[0] + self.SLACK_KIB, peaks

    def test_replay(self, tmp_path):
        """What a replay holds beyond the same run unjournaled."""
        records, extras = [], []
        for until in (60.0, 240.0):
            path = str(tmp_path / f"{until:g}.jsonl")
            run_scenario(_SPEC, journal_path=path, until=until)
            records.append(replay_journal(path, until=until).records_checked)
            extras.append(
                _extra_peak_kib(replay_journal, path, until)
                - _extra_peak_kib(run_scenario, _SPEC, None, 25, until))
        assert records[1] >= 3.5 * records[0] > 1_000, records
        assert extras[1] <= extras[0] + self.SLACK_KIB, extras
