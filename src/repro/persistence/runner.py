"""The run session: one lifecycle for every journaled, resumable run.

:class:`Run` owns ``(spec, prepared, system, horizon, journal, recorder)``
and is the *only* place that opens a journal, attaches a
:class:`RunRecorder`, performs WAL recovery or loops past kernel stops:

``Run.start(spec, ...)`` / ``Run.resume(checkpoint, ...)``
    Build the scenario and arm journaling -- fresh, or fast-forwarded to a
    checkpoint barrier (digest-verified) with the journal truncated to it.
``run.drive(until)``
    Run to ``until``, ignoring kernel stops (a pacer such as the live
    executor may step the kernel itself instead).
``run.checkpoint(path)``
    Snapshot at the current barrier.
``run.finish()`` / ``run.abandon()``
    Close the journal with its ``end`` record, or leave it open-ended --
    exactly what a crashed experiment leaves behind.

Every public driver is a thin caller: :func:`run_scenario`,
:func:`run_to_checkpoint` and :func:`resume_run` here, replay
(:mod:`repro.persistence.replay`), the live service (``Run`` + pacer +
HTTP), a federation shard (``Run`` + inbox, via :meth:`Run.window`) and
the flight-armed gate runs.  A resumed run's journal is byte-identical to
an uninterrupted run's.

Checkpoints are taken *between* kernel events (the driver calls
``drive(T)`` and then saves), never as scheduled events, so the act of
checkpointing cannot perturb the journaled event stream.

Persistence telemetry (save/restore latency, checkpoint size) is recorded
as metric *sample series* and spans only -- never counters or trace
events, because those feed the system digest and would make a resumed run
diverge from the uninterrupted reference by construction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.persistence.checkpoint import Checkpoint, CheckpointError, default_paths
from repro.persistence.journal import JournalWriter, truncate
from repro.persistence.scenarios import PreparedRun, ScenarioSpec, prepare
from repro.persistence.snapshot import (
    canonical_json,
    state_digest,
    system_digest,
    system_digest_state,
)
from repro.simulation.kernel import SimulationError


class RunRecorder:
    """Observes a live system and journals its event stream.

    Attaches to ``sim.on_event`` (called after each event's callback
    returns, so digests see the post-event state).  The digest taken every
    ``digest_every`` events (the journal's cadence, if it has one) is
    journal content; with no journal it is computed and dropped.  Detach
    with :meth:`finish` (clean close, writes the ``end`` record) or
    :meth:`abandon` (interrupted run, leaves the journal open-ended).
    """

    def __init__(self, system: Any, journal: Optional[JournalWriter] = None,
                 digest_every: int = 25) -> None:
        self.system = system
        self.journal = journal
        self.digest_every = (journal.digest_every if journal is not None
                             else digest_every)
        self._prev_observer = system.sim.on_event
        system.sim.on_event = self._on_event

    def _on_event(self, event: Any) -> None:
        sim = self.system.sim
        index = sim.fired_count
        if self.journal is not None:
            self.journal.append_event(index, sim.now, event.label)
        if self.digest_every and index % self.digest_every == 0:
            digest = system_digest(self.system)
            if self.journal is not None:
                self.journal.append_digest(index, sim.now, digest)

    def detach(self) -> None:
        self.system.sim.on_event = self._prev_observer

    def finish(self) -> str:
        """Write the clean ``end`` record and detach; returns final digest."""
        sim = self.system.sim
        digest = system_digest(self.system)
        if self.journal is not None:
            self.journal.close(sim.fired_count, sim.now, digest)
        self.detach()
        return digest

    def abandon(self) -> None:
        """Detach without an ``end`` record (the interrupted-run path)."""
        if self.journal is not None:
            self.journal.abandon()
        self.detach()


# --------------------------------------------------------------------------- #
# Telemetry (digest-neutral: sample series + spans only)
# --------------------------------------------------------------------------- #
def _record_save_telemetry(system: Any, elapsed_s: float, size_bytes: int) -> None:
    now = system.sim.now
    system.metrics.record("persistence.checkpoint.save_s", now, elapsed_s)
    system.metrics.record("persistence.checkpoint.bytes", now, float(size_bytes))
    if system.spans is not None:
        system.spans.record("checkpoint:save", "persistence", now,
                            save_s=elapsed_s, bytes=size_bytes)


def _record_restore_telemetry(system: Any, elapsed_s: float, events: int) -> None:
    now = system.sim.now
    system.metrics.record("persistence.restore.fast_forward_s", now, elapsed_s)
    system.metrics.record("persistence.restore.events", now, float(events))
    if system.spans is not None:
        system.spans.record("checkpoint:restore", "persistence", now,
                            fast_forward_s=elapsed_s, events=events)


def save_checkpoint(system: Any, spec: ScenarioSpec, path: str,
                    digest_every: int = 25) -> Checkpoint:
    """Bookmark ``system`` at its current barrier and write ``path``."""
    started = perf_counter()
    fields = system_digest_state(system)
    checkpoint = Checkpoint(
        scenario=spec.to_dict(),
        time=system.sim.now,
        fired=system.sim.fired_count,
        digest=state_digest(fields),
        digest_every=digest_every,
        state={"digest_fields": fields},
    )
    size = checkpoint.save(path)
    _record_save_telemetry(system, perf_counter() - started, size)
    return checkpoint


def _drifted_fields(checkpoint: Checkpoint, system: Any) -> str:
    """The clause a digest mismatch adds to its error: which digest fields
    of the rebuilt ``system`` differ from the checkpoint's
    ``digest_fields``.  Empty when it has none (a shard's, a hand-built one).
    """
    recorded = checkpoint.state.get("digest_fields")
    if not isinstance(recorded, dict):
        return ""
    rebuilt = system_digest_state(system)
    drifted = []
    for name in sorted(set(recorded) | set(rebuilt)):
        was, now = recorded.get(name), rebuilt.get(name)
        if canonical_json(was) == canonical_json(now):
            continue
        if isinstance(was, dict) and isinstance(now, dict):
            keys = [key for key in sorted(set(was) | set(now))
                    if canonical_json(was.get(key)) != canonical_json(now.get(key))]
            name += ": " + ", ".join(keys[:5])
        drifted.append(name)
    if drifted:
        return "; differing fields -- " + "; ".join(drifted)
    return ("; the rebuilt fields equal the checkpoint's digest_fields, so "
            "the recorded digest does not match its own fields")


def fast_forward(system: Any, checkpoint: Checkpoint) -> float:
    """Deterministically replay ``system`` from t=0 to the barrier.

    Steps exactly ``checkpoint.fired`` events, advances the clock to the
    barrier time (a checkpoint may sit between events), then verifies the
    whole-system digest against the checkpoint.  Raises
    :class:`CheckpointError` if the rebuilt run diverges -- the scenario
    code, its seed or the environment has drifted since the save.
    Returns the wall-clock seconds spent.
    """
    started = perf_counter()
    sim = system.sim
    while sim.fired_count < checkpoint.fired:
        if sim.now > checkpoint.time:
            # Self-rescheduling scenarios never exhaust their queue, so an
            # impossible barrier must be caught by the clock overshooting
            # the checkpoint's time instead.
            raise CheckpointError(
                f"passed the barrier time t={checkpoint.time:g} after only "
                f"{sim.fired_count} events (checkpoint claims "
                f"{checkpoint.fired}); the scenario no longer reproduces "
                f"the checkpointed run")
        if not sim.step():
            raise CheckpointError(
                f"scenario exhausted after {sim.fired_count} events but the "
                f"checkpoint barrier is at {checkpoint.fired}; the scenario "
                f"no longer reproduces the checkpointed run")
    if checkpoint.time > sim.now:
        try:
            sim.advance_to(checkpoint.time)
        except SimulationError as exc:
            # The checkpoint undercounts its events: stepping stopped
            # short of events that fire before the barrier time.
            raise CheckpointError(
                f"cannot reach the barrier t={checkpoint.time:g} after "
                f"fired={checkpoint.fired} events ({exc}); the scenario no "
                f"longer reproduces the checkpointed run") from exc
    elapsed = perf_counter() - started
    digest = system_digest(system)
    if digest != checkpoint.digest:
        raise CheckpointError(
            f"digest mismatch at barrier (fired={checkpoint.fired}, "
            f"t={checkpoint.time:g}): checkpoint {checkpoint.digest[:12]}..., "
            f"rebuilt {digest[:12]}...; scenario code or seed has drifted "
            f"since the checkpoint was taken"
            + _drifted_fields(checkpoint, system))
    if sim.fired_count != checkpoint.fired:
        # Only reachable when the caller drove windows first: stepping
        # above stops exactly at the barrier count.
        raise CheckpointError(
            f"replayed {sim.fired_count} events to the checkpoint barrier "
            f"but the checkpoint recorded {checkpoint.fired}")
    _record_restore_telemetry(system, elapsed, checkpoint.fired)
    return elapsed


def drive(system: Any, until: float) -> None:
    """Run to ``until``, ignoring kernel stops.

    A :class:`~repro.faults.models.HarnessCrashFault` stops the kernel to
    model the experiment process dying; the *reference* driver (and a
    resumed driver, whose crash already happened) simply keeps going.  The
    crash event itself is part of the journaled stream either way, which
    is what makes crashed-and-resumed runs comparable to uninterrupted
    ones record-for-record.
    """
    system.run(until=until)
    while system.sim.now < until:
        system.run(until=until)


# --------------------------------------------------------------------------- #
# The run session
# --------------------------------------------------------------------------- #
class Run:
    """One run session: start/resume -> drive -> checkpoint -> finish/abandon.

    Build one with :meth:`start` or :meth:`resume`; both return a session
    whose recorder is attached and whose journal (if any) is open.  The
    session keeps no parsed journal records and no checkpoint state.

    ``digest_every`` is the cadence checkpoints and manifests carry.  The
    digest chain is journal content: a session with no journal (nor
    replay's sink) takes only the final digest, in :meth:`finish`.
    """

    def __init__(self, spec: ScenarioSpec, prepared: PreparedRun) -> None:
        self.spec = spec
        self.prepared = prepared
        self.system = prepared.system
        self.horizon = prepared.horizon
        self.journal: Any = None
        self.journal_path: Optional[str] = None
        self.recorder: Optional[RunRecorder] = None
        self.fast_forward_events = 0
        self.fast_forward_s = 0.0

    def _record(self, journal: Any, digest_every: int,
                journal_path: Optional[str]) -> "Run":
        self.journal = journal
        self.journal_path = journal_path
        self.digest_every = digest_every
        self.recorder = RunRecorder(self.system, journal, digest_every=0)
        return self

    @classmethod
    def start(cls, spec: ScenarioSpec, journal_path: Optional[str] = None,
              sink: Any = None, digest_every: int = 25) -> "Run":
        """Build ``spec`` at t=0 and start recording.

        ``journal_path`` opens a fresh on-disk journal; ``sink`` takes the
        journal's lines instead, with no header (replay's comparing sink).
        """
        run = cls(spec, prepare(spec))
        journal = None
        if journal_path or sink is not None:
            journal = JournalWriter(journal_path, spec.to_dict(), digest_every,
                                    sink=sink)
        return run._record(journal, digest_every, journal_path)

    @classmethod
    def resume(cls, checkpoint: Checkpoint,
               journal_path: Optional[str] = None,
               windows: Optional[Iterable[Tuple[float, List[dict]]]] = None
               ) -> "Run":
        """Rebuild the checkpointed scenario at its barrier and record on.

        Fast-forwards deterministically and unrecorded -- a federation
        shard first re-runs its recorded ``(barrier, inbox)`` ``windows``,
        because cross-shard injections must land between the same windows
        as originally -- and verifies event count and digest against the
        checkpoint.  Then WAL recovery: the crashed run may have journaled
        past its last durable checkpoint, so the journal is truncated to
        the barrier and reopened for append.
        """
        spec = ScenarioSpec.from_dict(checkpoint.scenario)
        run = cls(spec, prepare(spec))
        started = perf_counter()
        for barrier, inbox in windows or ():
            # The regenerated outbox is discarded: the original run already
            # routed it, and the peers' recorded inboxes hold the copies.
            run.window(barrier, inbox)
        run.fast_forward_s = (perf_counter() - started
                              + fast_forward(run.system, checkpoint))
        run.fast_forward_events = checkpoint.fired
        journal = None
        if journal_path and os.path.exists(journal_path):
            kept = truncate(journal_path, checkpoint.fired)
            journal = JournalWriter(journal_path,
                                    digest_every=checkpoint.digest_every,
                                    append=True, records_written=kept)
        return run._record(journal, checkpoint.digest_every,
                           journal_path if journal is not None else None)

    def drive(self, until: Optional[float] = None) -> None:
        """Run to ``until`` (default: the horizon), ignoring kernel stops."""
        drive(self.system, self.horizon if until is None else until)

    def window(self, barrier: float, inbox: List[dict]) -> List[dict]:
        """One federation window: inject ``inbox`` at the current barrier,
        drive to ``barrier``, return the envelopes sent to other domains."""
        gateway = self.prepared.aux["federation"]
        gateway.inject(inbox)
        self.drive(barrier)
        return gateway.drain_outbox()

    def checkpoint(self, path: str) -> Checkpoint:
        """Save a checkpoint at the current barrier (between events)."""
        return save_checkpoint(self.system, self.spec, path,
                               self.digest_every)

    def finish(self) -> str:
        """Close the journal with its ``end`` record; returns final digest."""
        return self.recorder.finish()

    def abandon(self) -> None:
        """Stop recording and leave the journal open-ended (crash path)."""
        self.recorder.abandon()


# --------------------------------------------------------------------------- #
# Batch drivers
# --------------------------------------------------------------------------- #
@dataclass
class RunResult:
    """Outcome of a journaled run (uninterrupted, interrupted or resumed)."""

    spec: ScenarioSpec
    prepared: PreparedRun
    journal_path: Optional[str] = None
    checkpoint: Optional[Checkpoint] = None
    final_digest: Optional[str] = None
    fast_forward_events: int = 0
    fast_forward_s: float = 0.0
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def system(self) -> Any:
        return self.prepared.system


def _complete(run: Run, until: Optional[float],
              checkpoint: Optional[Checkpoint] = None) -> RunResult:
    """Drive ``run`` to ``until`` and close it (abandoned on any error)."""
    try:
        run.drive(until)
    except BaseException:
        run.abandon()
        raise
    final = run.finish()
    return RunResult(spec=run.spec, prepared=run.prepared,
                     journal_path=run.journal_path, checkpoint=checkpoint,
                     final_digest=final,
                     fast_forward_events=run.fast_forward_events,
                     fast_forward_s=run.fast_forward_s)


def run_scenario(spec: ScenarioSpec, journal_path: Optional[str] = None,
                 digest_every: int = 25,
                 until: Optional[float] = None) -> RunResult:
    """Uninterrupted reference run, optionally journaled."""
    return _complete(Run.start(spec, journal_path, digest_every=digest_every),
                     until)


def run_to_checkpoint(spec: ScenarioSpec, directory: str,
                      at: Optional[float] = None,
                      digest_every: int = 25) -> RunResult:
    """Run until ``at`` (or the first kernel stop) and save a checkpoint.

    Emulates an experiment that died mid-run: the journal holds a valid
    prefix with no ``end`` record, and ``checkpoint.json`` captures the
    barrier.  With no ``at``, the run lasts until a fault (e.g.
    ``harness-crash``) stops the kernel, or the horizon if none does.
    That experiment has died, so its system is closed once the checkpoint
    is saved and the journal abandoned: the result's system refuses to
    run, while its checkpoint, metrics and counters stay readable.
    """
    os.makedirs(directory, exist_ok=True)
    paths = default_paths(directory)
    run = Run.start(spec, paths["journal"], digest_every=digest_every)
    try:
        # A single kernel run, not drive(): the first stop *is* the barrier.
        run.system.run(until=min(at, run.horizon) if at is not None
                       else run.horizon)
        checkpoint = run.checkpoint(paths["checkpoint"])
    finally:
        run.abandon()
        run.system.close()
    return RunResult(spec=spec, prepared=run.prepared,
                     journal_path=paths["journal"], checkpoint=checkpoint)


def resume_run(directory: Optional[str] = None,
               checkpoint_path: Optional[str] = None,
               journal_path: Optional[str] = None,
               until: Optional[float] = None) -> RunResult:
    """Resume a checkpointed run and complete its horizon.

    Loads the checkpoint and hands it to :meth:`Run.resume` (rebuild,
    digest-verified fast-forward, journal truncated to the barrier), then
    continues to the horizon appending to the same journal.  The result's
    journal is byte-identical to an uninterrupted run of the same spec.
    """
    if directory is not None:
        paths = default_paths(directory)
        checkpoint_path = checkpoint_path or paths["checkpoint"]
        journal_path = journal_path or paths["journal"]
    if checkpoint_path is None:
        raise CheckpointError("resume_run needs a directory or checkpoint_path")
    checkpoint = Checkpoint.load(checkpoint_path)
    return _complete(Run.resume(checkpoint, journal_path), until, checkpoint)
