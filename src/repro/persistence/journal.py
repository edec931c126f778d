"""Append-only JSONL event journal (write-ahead log).

One line per record, flushed as written so a crashed run leaves a valid
prefix on disk.  Record shapes:

* ``{"type": "header", "version": 1, "scenario": {...}, "digest_every": N}``
  -- exactly one, first line.
* ``{"type": "event", "i": <fired index>, "t": <sim time>, "label": ...}``
  -- one per fired kernel event.
* ``{"type": "digest", "i": ..., "t": ..., "digest": "<sha256>"}``
  -- the whole-system digest, every ``digest_every`` events.
* ``{"type": "reconfig", "i": ..., "t": ..., "payload": {...}}`` -- a
  reconfiguration hot-loaded into a live run at fired-count barrier
  ``i`` (between events ``i`` and ``i+1``).  Replay re-applies it at
  the same barrier; it is an instruction, not a compared record.
* ``{"type": "end", "i": ..., "t": ..., "digest": ...}`` -- written by a
  clean close; its absence marks an interrupted run.

The journal is both the recovery log (``truncate`` drops records past a
checkpoint barrier so a resumed run appends from exactly there) and the
replay oracle (:mod:`repro.persistence.replay` re-runs the scenario and
compares record-by-record); both stream it through :func:`scan_journal`,
which reads an event or digest line in the writer's own template without
decoding it.
"""

from __future__ import annotations

import json
import re
from contextlib import closing
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from math import isfinite
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

from repro.schema import (Field, atomic_file, check, check_version,
                          flat_problem, flat_table)

JOURNAL_VERSION = 1

_HEADER = Field("object", fields={
    "digest_every": Field("integer", required=False, low=0),
    "scenario": Field("object", required=False),
})

#: Every record after the header; a wrong value of the right kind is a
#: replay divergence, not a malformed file.
_RECORD = flat_table(Field("object", fields={
    "i": Field("integer"), "t": Field("number"),
    "type": Field("string", choices=("event", "digest", "reconfig", "end"),
                  label="record type")}))

#: The writer's event and digest lines: sorted keys, no whitespace, and
#: each value's own JSON text in its slot.
_EVENT_LINE = '{"i":%s,"label":%s,"t":%s,"type":"event"}\n'
_DIGEST_LINE = '{"digest":%s,"i":%s,"t":%s,"type":"digest"}\n'

#: Each slot's value as the writer prints it: an ``int`` (its group named
#: after the record type), a finite ``float`` by its ``repr``, a label that
#: needs no escape, a SHA-256 hex digest.
_INT = r"(?P<%s>0|-?[1-9][0-9]*)"
_FLOAT = r"-?(?:(?:0|[1-9][0-9]*)\.[0-9]+|[1-9](?:\.[0-9]+)?e[-+][0-9]+)"
_PLAIN_STRING = r'"[ !#-\[\]-~]*"'
_SHA256 = r'"[0-9a-f]{64}"'


def _line_pattern(template: str, *values: str) -> str:
    """A regular expression for ``template``'s lines, ``values`` per slot."""
    return re.escape(template[:-1]) % values


#: A whole line formatted from a template: a valid record by construction.
_TEMPLATE_LINE = re.compile(
    _line_pattern(_EVENT_LINE, _INT % "event", _PLAIN_STRING, _FLOAT) + "|"
    + _line_pattern(_DIGEST_LINE, _SHA256, _INT % "digest", _FLOAT)).fullmatch

#: Encoded event labels kept per writer.  A run has a few dozen distinct
#: labels; a run that mints one per event starts over at this many.
_LABEL_MEMO_SIZE = 1024


def _encode(value: Any) -> str:
    """The journal's JSON: sorted keys, no whitespace."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def journal_line(record: Dict[str, Any]) -> str:
    """``record`` as one line of a line log (a journal or an inbox)."""
    return _encode(record) + "\n"


def _position(index: Any, time: Any) -> Tuple[Any, Any]:
    """``index`` and ``time`` for a template slot: an ``int`` and a finite
    ``float`` print as their ``repr``, as ``json`` prints them; any other
    value is encoded on its own."""
    return (index if type(index) is int else _encode(index),
            time if type(time) is float and isfinite(time) else _encode(time))


class JournalError(ValueError):
    """Raised for malformed, incompatible or misused journals."""


@dataclass
class JournalRecords:
    """A fully parsed journal."""

    header: Dict[str, Any]
    records: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """True when the run closed cleanly (trailing ``end`` record)."""
        return bool(self.records) and self.records[-1].get("type") == "end"

    @property
    def scenario(self) -> Dict[str, Any]:
        return self.header.get("scenario", {})

    @property
    def digest_every(self) -> int:
        return self.header.get("digest_every", 0)

    def digests(self) -> List[Dict[str, Any]]:
        return [r for r in self.records if r.get("type") in ("digest", "end")]

    def events(self) -> List[Dict[str, Any]]:
        return [r for r in self.records if r.get("type") == "event"]

    def reconfigs(self) -> List[Dict[str, Any]]:
        """Hot-loaded reconfiguration records, in application order."""
        return [r for r in self.records if r.get("type") == "reconfig"]


class JournalWriter:
    """Flushing JSONL writer bound to one run.

    ``append=True`` (the resume path) continues a journal that
    :func:`truncate` has just cut back to the checkpoint barrier.  It does
    not parse the file again: ``digest_every`` is the checkpoint's and
    ``records_written`` the count ``truncate`` returned.

    ``sink`` takes the lines instead of a file, with no header: each record
    is one ``write`` of one line, which replay compares with the recorded.
    """

    def __init__(self, path: Optional[str],
                 scenario: Optional[Dict[str, Any]] = None,
                 digest_every: int = 25, append: bool = False,
                 records_written: int = 0, sink: Any = None) -> None:
        self.path = path
        self.digest_every = digest_every
        self.records_written = records_written
        self._labels: Dict[str, str] = {}
        if sink is not None:
            self._fh = sink
        elif append:
            self._fh = open(path, "a", encoding="utf-8")
        else:
            self._fh = open(path, "w", encoding="utf-8")
            self._write({"type": "header", "version": JOURNAL_VERSION,
                         "scenario": scenario or {},
                         "digest_every": digest_every})

    def _write(self, record: Dict[str, Any]) -> None:
        self._fh.write(journal_line(record))
        self._fh.flush()

    # -- records ------------------------------------------------------------ #
    def append_event(self, index: int, time: float, label: str) -> None:
        """Write one event record: formatted, not serialised.

        An event record's sorted key order is a constant and ``json`` prints
        an ``int`` and a finite ``float`` with their own ``repr``, so the
        line is a template.  Any other value (a ``bool`` index, an ``int``
        or non-finite time, a non-``str`` label) is encoded on its own, so
        the bytes are always those of encoding the whole record.
        """
        if type(label) is str:
            encoded = self._labels.get(label)
            if encoded is None:
                if len(self._labels) >= _LABEL_MEMO_SIZE:
                    self._labels.clear()
                encoded = self._labels[label] = _encode(label)
            label = encoded
        else:
            label = _encode(label)
        index, time = _position(index, time)
        self._fh.write(_EVENT_LINE % (index, label, time))
        self._fh.flush()
        self.records_written += 1

    def append_digest(self, index: int, time: float, digest: str) -> None:
        """Write one digest record from its template, as
        :meth:`append_event` writes an event; a non-``str`` digest is
        encoded on its own."""
        index, time = _position(index, time)
        digest = (encode_basestring_ascii(digest) if type(digest) is str
                  else _encode(digest))
        self._fh.write(_DIGEST_LINE % (digest, index, time))
        self._fh.flush()
        self.records_written += 1

    def append_reconfig(self, index: int, time: float,
                        payload: Dict[str, Any]) -> None:
        """Journal a live hot-load applied at fired-count barrier ``index``.

        Written *before* the payload is applied (WAL discipline): a crash
        between the write and the next checkpoint truncates the record
        away together with any events it influenced.
        """
        self._write({"type": "reconfig", "i": index, "t": time,
                     "payload": payload})
        self.records_written += 1

    def close(self, index: int, time: float, digest: str) -> None:
        """Mark a clean end of run and close the file."""
        self._write({"type": "end", "i": index, "t": time, "digest": digest})
        self._fh.close()

    def abandon(self) -> None:
        """Close the file handle without an ``end`` record (crash path)."""
        if not self._fh.closed:
            self._fh.close()


# --------------------------------------------------------------------------- #
# Reading and recovery
# --------------------------------------------------------------------------- #
def journal_lines(path: str) -> Iterator[Tuple[int, str]]:
    """``(line number, stripped line)`` of each non-blank line: the raw
    layer under :func:`scan_journal`, which replay walks again unparsed.

    The writer emits ASCII, so a byte that is not UTF-8 is damage: it
    reads as U+FFFD, and the line it is in parses (a wrong value) or tears
    like any other.
    """
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                yield lineno, line


def scan_journal(path: str) -> Iterator[
        Tuple[int, str, str, Optional[int], Optional[Dict[str, Any]]]]:
    """Stream a journal as ``(line number, line, type, i, record)``, header
    first (its ``i`` is ``None``).

    The one parser, holding one line at a time.  A line after the header
    that the writer formatted from its event or digest template is valid by
    construction, so it is not decoded: its ``record`` is ``None``.  Every
    other line is decoded and checked.  A torn line ends the journal: a
    mid-write crash leaves a valid prefix before it.
    """
    headed = False
    with closing(journal_lines(path)) as lines:
        for lineno, line in lines:
            written = lineno > 1 and _TEMPLATE_LINE(line)
            if written:
                kind = written.lastgroup
                # Let the match go before yielding: the scan holds a line.
                index, written = int(written[kind]), None
                yield lineno, line, kind, index, None
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break
            if not isinstance(record, dict):
                # The writer only emits objects, and no prefix of one is
                # valid JSON: this is a foreign or edited file, not a tear.
                raise JournalError(
                    f"{path}: line {lineno} is not a journal record")
            if lineno == 1:
                if record.get("type") != "header":
                    raise JournalError(f"{path}: first record is not a header")
                check_version(record, JOURNAL_VERSION, path, "journal",
                              JournalError)
                check(record, _HEADER, f"{path}: header", JournalError)
                headed = True
            else:
                problem = flat_problem(record, _RECORD)
                if problem:
                    raise JournalError(f"{path}: line {lineno}: {problem}")
            yield lineno, line, record["type"], record.get("i"), record
    if not headed:
        raise JournalError(f"{path}: empty or headerless journal")


def read_journal(path: str) -> JournalRecords:
    """Parse a whole journal into memory (see :func:`scan_journal`)."""
    header, *records = [json.loads(line) if record is None else record
                        for _, line, _, _, record in scan_journal(path)]
    return JournalRecords(header=header, records=records)


def rewrite(path: str, rows: Iterable[Tuple[Any, ...]],
            keep: Callable[[Tuple[Any, ...], int], bool], barrier: int) -> int:
    """Replace the line log at ``path`` by the line of each of a reader's
    ``rows`` (its second item) that ``keep(row, barrier)`` accepts, holding
    one line at a time; returns how many were kept.  An exception from
    ``rows`` leaves the file as it was."""
    written = 0
    with atomic_file(path) as fh:
        for row in rows:
            if keep(row, barrier):
                fh.write(row[1] + "\n")
                written += 1
    return written


def _before(row: Tuple[Any, ...], fired: int) -> bool:
    """Whether a :func:`scan_journal` row survives a cut at ``fired``."""
    lineno, _line, kind, index, _record = row
    return lineno == 1 or (kind != "end" and index <= fired)


def truncate(path: str, fired: int) -> int:
    """Drop records past the checkpoint barrier ``fired``; returns kept count.

    Classic WAL recovery: a crashed run may have journaled events beyond
    the last durable checkpoint, and the resumed run will re-produce them.
    Also drops any ``end`` record -- a truncated run is by definition not
    cleanly closed.  Kept lines are copied as :func:`journal_lines` reads
    them: stripped, with any byte that is not UTF-8 as U+FFFD.  A refused
    journal is left as it was.
    """
    kept = rewrite(path, scan_journal(path), _before, fired)
    return kept - 1   # the header is no record
