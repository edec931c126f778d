"""Deterministic replay: re-run a journaled scenario and diff the records.

The journal is the ground truth of a run.  Replay rebuilds the scenario
from the journal header's embedded spec, re-runs it while collecting the
same record stream in memory, and compares record-by-record.  The first
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
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.persistence.journal import JournalError, JournalRecords, read_journal
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


class _MemoryJournal:
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


def _first_divergence(recorded: List[Dict[str, Any]],
                      replayed: List[Dict[str, Any]],
                      complete: bool) -> Optional[Divergence]:
    """Record-by-record diff; an incomplete journal is a valid prefix.

    :func:`read_journal` has checked that every recorded ``i`` is an int.
    """
    for index, want in enumerate(recorded):
        kind = want.get("type", "?")
        if index >= len(replayed):
            return Divergence(index=index, fired=want["i"],
                              time=want.get("t"), field="type",
                              recorded=kind, replayed="<journal longer than replay>")
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
                          recorded="<journal ends>", replayed=extra.get("type"))
    return None


def replay_journal(journal_path: str,
                   until: Optional[float] = None) -> ReplayReport:
    """Re-run the journaled scenario and verify every record.

    Raises :class:`JournalError` if the journal cannot express a
    rebuildable run (no scenario spec in the header).
    """
    journal = read_journal(journal_path)
    return replay_records(journal, until=until)


def replay_records(journal: JournalRecords,
                   until: Optional[float] = None) -> ReplayReport:
    """Replay from already-parsed records (see :func:`replay_journal`)."""
    return replay_run(journal, lambda run: run.drive(until))[0]


def replay_run(journal: JournalRecords,
               drive: Callable[[Run], None]) -> Tuple[ReplayReport, Run]:
    """Rebuild the journaled scenario, ``drive`` it, diff the records.

    ``drive`` advances the rebuilt :class:`Run` the way the original was
    advanced (straight to a horizon, or window by window for a federation
    shard).  Returns the report and the finished run, whose system callers
    may inspect.
    """
    scenario = journal.scenario
    try:
        spec = ScenarioSpec.from_dict(scenario)
    except ValueError as exc:
        raise JournalError("journal header has no scenario spec; "
                           "this journal cannot be replayed") from exc
    memory = _MemoryJournal(journal.digest_every or 25)
    run = Run.start(spec, journal=memory)

    # Reconfigurations hot-loaded into the original run re-apply at their
    # fired-count barriers; the records themselves are instructions, not
    # part of the compared stream (the replay side never emits them).
    reconfigs = journal.reconfigs()
    if reconfigs:
        from repro.live.reconfigure import register_live_loads

        register_live_loads(run.system,
                            [{"fired": r.get("i", 0), "time": r.get("t", 0.0),
                              "payload": r.get("payload", {})}
                             for r in reconfigs])
    compared = [r for r in journal.records if r.get("type") != "reconfig"]

    try:
        drive(run)
    finally:
        if journal.complete:
            run.finish()
        else:
            run.abandon()

    report = ReplayReport(
        scenario=scenario,
        records_checked=len(compared),
        events_replayed=run.system.sim.fired_count,
        journal_complete=journal.complete,
        divergence=_first_divergence(compared, memory.records,
                                     journal.complete),
        extra={"reconfigs_applied": len(reconfigs)} if reconfigs else {},
    )
    return report, run


def write_divergence_report(report: ReplayReport, path: str) -> None:
    """Write the replay outcome (for CI artifacts and ``repro replay``)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
