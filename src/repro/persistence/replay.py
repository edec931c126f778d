"""Deterministic replay: re-run a journaled scenario and diff the records.

The journal is the ground truth of a run.  Replay rebuilds the scenario
from the journal header's embedded spec, re-runs it while formatting the
same record stream, and compares record-by-record.  The first
mismatch -- an event fired at a different time, under a different label,
or a digest that no longer matches -- is reported as a
:class:`Divergence` with both sides of the disagreement, which localizes
non-determinism (or journal tampering) to within ``digest_every`` events.

An *incomplete* journal (no ``end`` record: an interrupted run) is a
valid prefix; replay verifies the prefix and reports how far it got.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Dict, Optional, Tuple

from repro.persistence.journal import JournalError, journal_lines, scan_journal
from repro.persistence.runner import Run
from repro.persistence.scenarios import ScenarioSpec

_COMPARED_FIELDS = {
    "event": ("i", "t", "label"),
    "digest": ("i", "t", "digest"),
    "end": ("i", "t", "digest"),
}


@dataclass
class Divergence:
    """The first point where a replay disagrees with the journal."""

    index: int                    # position in the journal's record list
    fired: int                    # kernel fired-event count at the record
    time: Optional[float]         # simulated time of the recorded side
    field: str                    # which record field disagreed
    recorded: Any
    replayed: Any

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "fired": self.fired,
            "time": self.time,
            "field": self.field,
            "recorded": self.recorded,
            "replayed": self.replayed,
        }


@dataclass
class ReplayReport:
    """Outcome of replaying one journal."""

    scenario: Dict[str, Any]
    records_checked: int
    events_replayed: int
    journal_complete: bool
    divergence: Optional[Divergence] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "scenario": self.scenario,
            "records_checked": self.records_checked,
            "events_replayed": self.events_replayed,
            "journal_complete": self.journal_complete,
            "divergence": (self.divergence.to_dict()
                           if self.divergence else None),
            **self.extra,
        }


def _record_divergence(index: int, want: Dict[str, Any],
                       got: Dict[str, Any]) -> Optional[Divergence]:
    """Where recorded ``want`` and replayed ``got`` first disagree: ``type``,
    then its compared fields (``scan_journal`` has typed ``want``)."""
    kind = want["type"]
    if got.get("type") != kind:
        return Divergence(index=index, fired=want["i"], time=want.get("t"),
                          field="type", recorded=kind,
                          replayed=got.get("type"))
    for fld in _COMPARED_FIELDS.get(kind, ()):
        if want.get(fld) != got.get(fld):
            return Divergence(index=index, fired=want["i"],
                              time=want.get("t"), field=fld,
                              recorded=want.get(fld), replayed=got.get(fld))
    return None


class _ComparingSink:
    """Where a replay's :class:`JournalWriter` writes instead of a file.

    Each line is held against the next compared recorded line, read
    lazily.  A byte-equal line matches; any other pair is parsed and
    judged per record, so ``5`` for ``5.0``, key order or whitespace still
    match.  The first divergence is kept.
    """

    def __init__(self, path: str, skip: Collection[int], count: int,
                 complete: bool) -> None:
        self._lines = journal_lines(path)
        self._recorded = (line for lineno, line in self._lines
                          if lineno not in skip)
        self._count = count
        self._complete = complete
        self._written = 0
        self.divergence: Optional[Divergence] = None
        self.closed = False

    def write(self, text: str) -> None:
        index = self._written
        self._written += 1
        if self.divergence is not None:
            return
        if index < self._count:
            recorded = next(self._recorded)
            if recorded != text[:-1]:
                self.divergence = _record_divergence(
                    index, json.loads(recorded), json.loads(text))
        elif self._complete and index == self._count:
            extra = json.loads(text)
            self.divergence = Divergence(
                index=index, fired=extra["i"], time=extra.get("t"),
                field="type", recorded="<journal ends>",
                replayed=extra.get("type"))

    def flush(self) -> None:
        pass

    def close(self) -> None:
        if self.divergence is None and self._written < self._count:
            want = json.loads(next(self._recorded))
            self.divergence = Divergence(
                index=self._written, fired=want["i"], time=want.get("t"),
                field="type", recorded=want["type"],
                replayed="<journal longer than replay>")
        self._lines.close()
        self.closed = True


def replay_journal(journal_path: str,
                   until: Optional[float] = None) -> ReplayReport:
    """Re-run the journaled scenario and verify every record.

    Raises :class:`JournalError` if the journal cannot express a
    rebuildable run (no scenario spec in the header).
    """
    return replay_run(journal_path, lambda run: run.drive(until))[0]


def replay_run(journal_path: str,
               drive: Callable[[Run], None]) -> Tuple[ReplayReport, Run]:
    """Rebuild the journaled scenario, ``drive`` it, diff the records.

    ``drive`` advances the rebuilt :class:`Run` the way the original was
    advanced (straight to a horizon, or window by window for a federation
    shard).  Returns the report and the finished run, whose system callers
    may inspect.

    Neither pass holds the file: the first validates every line before
    anything is built and keeps the header, the record count and the
    ``reconfig`` records; in the second the re-run writes into a sink.
    """
    header: Dict[str, Any] = {}
    reconfigs: Dict[int, Dict[str, Any]] = {}
    compared, complete = 0, False
    for lineno, _line, record in scan_journal(journal_path):
        if lineno == 1:
            header = record
        elif record["type"] == "reconfig":
            reconfigs[lineno] = record
        else:
            compared += 1
        complete = record["type"] == "end"
    scenario = header.get("scenario", {})
    try:
        spec = ScenarioSpec.from_dict(scenario)
    except ValueError as exc:
        raise JournalError("journal header has no scenario spec; "
                           "this journal cannot be replayed") from exc
    sink = _ComparingSink(journal_path, {1, *reconfigs}, compared, complete)
    run = Run.start(spec, sink=sink,
                    digest_every=header.get("digest_every") or 25)

    # Reconfigurations hot-loaded into the original run re-apply at their
    # fired-count barriers; the records themselves are instructions, not
    # part of the compared stream (the replay side never emits them).
    if reconfigs:
        from repro.live.reconfigure import register_live_loads

        register_live_loads(run.system,
                            [{"fired": r.get("i", 0), "time": r.get("t", 0.0),
                              "payload": r.get("payload", {})}
                             for r in reconfigs.values()])

    try:
        drive(run)
    finally:
        if complete:
            run.finish()
        else:
            run.abandon()

    report = ReplayReport(
        scenario=scenario,
        records_checked=compared,
        events_replayed=run.system.sim.fired_count,
        journal_complete=complete,
        divergence=sink.divergence,
        extra={"reconfigs_applied": len(reconfigs)} if reconfigs else {},
    )
    return report, run


def write_divergence_report(report: ReplayReport, path: str) -> None:
    """Write the replay outcome (for CI artifacts and ``repro replay``)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
