"""Flight recorder: the always-on black box behind every gated run.

When a CLI gate, SLO monitor or determinism check fails, the boolean
exit code used to be all that survived -- the spans, series and journal
tail that explain the failure died with the process.  A
:class:`FlightRecorder` fixes that: armed on a live system, it watches
the trace for trigger events (SLO breaches, harness crashes), samples queue
depth from the kernel's fired-count barriers, chains into the kernel's
``on_event`` observer while a trigger waits, to pin evidence to an
exact inter-event barrier, and on demand dumps a self-contained
*incident bundle*:

``manifest.json``
    Trigger(s), barrier (time / fired / digest), scenario spec, the
    ranked causal chain from :mod:`~repro.observability.diagnosis`, a
    telemetry-health snapshot and an evidence inventory.
``checkpoint.json``
    A standard persistence checkpoint at the barrier, so ``python -m
    repro incident replay <bundle>`` deterministically reproduces the
    triggering window with :func:`~repro.persistence.runner.fast_forward`
    and verifies the whole-system digest bit-for-bit.
``events.jsonl`` / ``spans.jsonl`` / ``metrics.json`` /
``queue_depth.json`` / ``knowledge.json`` / ``trust.json``
    Bounded telemetry tails: recent trace events, recent spans, the last
    points of every metric series plus all counters, a kernel
    queue-depth ring, per-loop MAPE knowledge snapshots and the security
    plane's trust scores.
``journal.jsonl``
    The run's event journal (copied, or written in place by the gate
    helpers), replayable with the existing persistence machinery.

Digest discipline: the recorder NEVER emits trace events or increments
counters -- both feed :func:`~repro.persistence.snapshot.system_digest`,
and an armed flight recorder must not make a journaled run diverge from
an unarmed one.  Everything it captures is read-only observation.
"""

from __future__ import annotations

import json
import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.observability.diagnosis import DIAGNOSIS, Diagnosis, diagnose
from repro.observability.export import _default, _write_jsonl, event_to_dict
from repro.observability.overhead import telemetry_health
from repro.persistence.checkpoint import Checkpoint
from repro.persistence.runner import Run
from repro.persistence.scenarios import ScenarioSpec, prepare
from repro.persistence.snapshot import state_digest, system_digest_state
from repro.schema import Field, check_version, load_document

MANIFEST_NAME = "manifest.json"
BUNDLE_VERSION = 1

#: Trigger classes a bundle's manifest may carry.
TRIGGER_REASONS = ("slo-breach", "gate-failure", "harness-crash",
                   "replay-divergence", "exception")


class FlightError(RuntimeError):
    """Raised for misuse (capturing without a trigger) or bad bundles."""


@dataclass
class IncidentTrigger:
    """One reason the flight recorder decided this run is an incident."""

    reason: str
    time: float
    fired: int
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"reason": self.reason, "time": self.time,
                "fired": self.fired, "detail": dict(self.detail)}


def _write_json(path: str, payload: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True,
                  default=_default)
        fh.write("\n")


class FlightRecorder:
    """Bounded black box over one live :class:`~repro.core.system.IoTSystem`.

    Parameters
    ----------
    system:
        The live system to observe.
    spec:
        The run's :class:`~repro.persistence.scenarios.ScenarioSpec`, when
        known.  Required for the bundle to carry a replayable checkpoint;
        without it the bundle still holds telemetry tails and a diagnosis.
    loops:
        MAPE loops whose knowledge bases should be snapshotted.
    window:
        Diagnosis lookback in simulated seconds.
    max_events / max_spans / series_tail:
        Evidence bounds: recent trace events, recent spans, and trailing
        points per metric series kept in the bundle.
    queue_sample_every / queue_samples:
        Kernel queue depth is sampled every Nth fired event, counted from
        the fired count at :meth:`arm`, into a ring of the given size.
    """

    def __init__(self, system: Any, spec: Optional[ScenarioSpec] = None,
                 loops: Optional[List[Any]] = None, window: float = 30.0,
                 max_events: int = 512, max_spans: int = 512,
                 series_tail: int = 50, queue_sample_every: int = 16,
                 queue_samples: int = 256) -> None:
        self.system = system
        self.spec = spec
        self.loops = list(loops or [])
        self.window = float(window)
        self.max_events = int(max_events)
        self.max_spans = int(max_spans)
        self.series_tail = int(series_tail)
        self.queue_sample_every = max(1, int(queue_sample_every))
        self.queue_samples = int(queue_samples)
        self.triggers: List[IncidentTrigger] = []
        self.armed = False
        self._pending = False
        self._evidence: Optional[Dict[str, Any]] = None
        # Fired count of the next queue-depth sample (see _sample_queue).
        self._next_sample = 0
        self._queue_ring: List[List[float]] = []
        self._prev_observer: Optional[Callable[[Any], None]] = None
        self._unsubscribe: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------ #
    # Arming and trigger detection
    # ------------------------------------------------------------------ #
    def arm(self) -> "FlightRecorder":
        """Hook the trace log and start sampling queue depth.

        A run with no incident costs the kernel nothing per event: the
        queue-depth samples are fired-count barriers
        (:meth:`~repro.simulation.kernel.Simulator.at_fired`), and the
        recorder joins the ``on_event`` observer chain only while a
        trigger waits for its evidence barrier (:meth:`_observe`).
        """
        if self.armed:
            return self
        self.armed = True
        self._unsubscribe = self.system.trace.subscribe(self._on_trace)
        sim = self.system.sim
        self._next_sample = sim.fired_count + self.queue_sample_every
        sim.at_fired(self._next_sample, self._sample_queue, first=True)
        if self._pending and self._evidence is None:
            self._observe()
        return self

    def disarm(self) -> None:
        """Stop sampling; restore the observer chain and trace subscription."""
        if not self.armed:
            return
        self.armed = False
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        self._unobserve()

    def close(self) -> None:
        """Disarm and let go of the system, which holds this recorder;
        triggers and captured evidence stay readable."""
        self.disarm()
        self.system = None

    def _on_trace(self, event: Any) -> None:
        if event.category == "alert" and event.name == "slo-breach":
            self.trigger("slo-breach", detail={
                "subject": event.subject,
                "slo": event.attrs.get("slo"),
                "measured": event.attrs.get("measured"),
                "burn_rate": event.attrs.get("burn_rate"),
            }, time=event.time)
        elif event.category == "fault" and event.name == "harness-crash":
            self.trigger("harness-crash",
                         detail={"subject": event.subject}, time=event.time)

    def _sample_queue(self, sim: Any) -> None:
        """Record queue depth at this barrier and book the next sample.

        Runs first among the barrier's callbacks, so it reads the state
        right after the event, as the ``on_event`` observer does.  A
        barrier that is not the next sample does nothing: the chain of a
        disarmed recorder, or one the evidence observer already took.
        """
        if not self.armed or sim.fired_count != self._next_sample:
            return
        if len(self._queue_ring) >= self.queue_samples:
            self._queue_ring.pop(0)
        self._queue_ring.append(
            [sim.now, float(sim.fired_count), float(sim.pending_count)])
        self._next_sample += self.queue_sample_every
        sim.at_fired(self._next_sample, self._sample_queue, first=True)

    def _observe(self) -> None:
        """Chain into ``on_event`` until the evidence barrier is pinned."""
        sim = self.system.sim
        self._prev_observer = sim.on_event
        sim.on_event = self._on_event

    def _unobserve(self) -> None:
        sim = self.system.sim
        if sim.on_event == self._on_event:
            sim.on_event = self._prev_observer
            self._prev_observer = None

    def _on_event(self, event: Any) -> None:
        # The previous observer (typically a journaling RunRecorder) runs
        # first, so the journal sees exactly the stream it would without a
        # flight recorder attached.
        prev = self._prev_observer
        if prev is not None:
            prev(event)
        if self._pending and self._evidence is None:
            # First post-event boundary after the trigger: the exact
            # barrier fast_forward can reproduce (between events, digest
            # over post-event state).  A sample due here is in the ring.
            self._sample_queue(self.system.sim)
            self._capture_evidence(exact=True)
            self._unobserve()

    def trigger(self, reason: str, detail: Optional[Dict[str, Any]] = None,
                time: Optional[float] = None) -> IncidentTrigger:
        """Record a trigger; the first one pins the evidence barrier."""
        sim = self.system.sim
        trig = IncidentTrigger(
            reason=reason,
            time=sim.now if time is None else float(time),
            fired=sim.fired_count,
            detail=dict(detail or {}))
        self.triggers.append(trig)
        if len(self.triggers) == 1:
            self._pending = True
            if self.armed:
                self._observe()
        return trig

    @property
    def triggered(self) -> bool:
        return bool(self.triggers)

    @property
    def diagnosis(self) -> Optional[Diagnosis]:
        """The captured causal chain, once evidence exists."""
        if self._evidence is None:
            return None
        return self._evidence["diagnosis"]

    @contextmanager
    def guard(self) -> Iterator["FlightRecorder"]:
        """Convert an unhandled exception into an ``exception`` trigger.

        The exception is re-raised; the caller decides where (and
        whether) to :meth:`capture` the bundle.
        """
        try:
            yield self
        except Exception as exc:
            self.trigger("exception", detail={
                "type": type(exc).__name__, "message": str(exc)})
            raise

    # ------------------------------------------------------------------ #
    # Evidence capture
    # ------------------------------------------------------------------ #
    def finalize(self) -> None:
        """Capture evidence at the current (post-run) barrier if pending.

        Called after the run returns -- the kernel sits between events,
        so the barrier is exact; a post-run ``advance_to`` inside
        ``fast_forward`` reproduces a clock past the last fired event.
        """
        if self._pending and self._evidence is None:
            self._capture_evidence(exact=not self.system.sim._running)
            self._unobserve()

    def _capture_evidence(self, exact: bool) -> None:
        system = self.system
        sim = system.sim
        trigger = self.triggers[0]
        fields = system_digest_state(system)
        barrier = {"time": sim.now, "fired": sim.fired_count,
                   "digest": state_digest(fields), "exact": bool(exact)}
        checkpoint = None
        if self.spec is not None:
            checkpoint = Checkpoint(
                scenario=self.spec.to_dict(), time=sim.now,
                fired=sim.fired_count, digest=barrier["digest"],
                state={"digest_fields": fields})
        events_tail = [event_to_dict(e)
                       for e in system.trace.tail(self.max_events)]
        spans_tail = []
        if system.spans is not None:
            spans_tail = [s.to_dict()
                          for s in system.spans.tail(self.max_spans)]
        series: Dict[str, Any] = {}
        for name in system.metrics.series_names:
            ts = system.metrics.series(name)
            tail = list(zip(ts.times[-self.series_tail:],
                            ts.values[-self.series_tail:]))
            series[name] = {"kind": ts.kind, "total": len(ts),
                            "tail": [[t, v] for t, v in tail]}
        metrics = {
            "series": series,
            "counters": {name: system.metrics.counter(name)
                         for name in system.metrics.counter_names},
        }
        knowledge = {}
        for loop in self.loops:
            base = getattr(loop, "knowledge", None)
            if base is not None:
                knowledge[getattr(loop, "host", f"loop{len(knowledge)}")] = \
                    base.snapshot_state()
        trust = self._trust_snapshot()
        diagnosis = diagnose(system, trigger_time=trigger.time,
                             trigger_reason=trigger.reason,
                             window=self.window)
        self._evidence = {
            "barrier": barrier,
            "checkpoint": checkpoint,
            "events": events_tail,
            "spans": spans_tail,
            "metrics": metrics,
            "queue_depth": list(self._queue_ring),
            "knowledge": knowledge,
            "trust": trust,
            "diagnosis": diagnosis,
            "telemetry": telemetry_health(system),
        }

    def _trust_snapshot(self) -> Dict[str, Any]:
        plane = self.system.sim.context.get("security")
        if plane is None:
            return {}
        trust = getattr(plane, "trust", None)
        out: Dict[str, Any] = {
            "quarantined": list(getattr(plane, "quarantined", [])),
            "key_rotations": getattr(plane, "key_rotations", 0),
        }
        if trust is not None:
            # TrustRegistry exposes ``registered``/``flagged`` as
            # properties and ``distrusted``/``aggregate`` as methods.
            subjects = sorted(trust.registered)
            out["aggregate"] = {s: trust.aggregate(s) for s in subjects}
            out["distrusted"] = trust.distrusted()
            out["flagged"] = trust.flagged
        return out

    # ------------------------------------------------------------------ #
    # Bundle writing
    # ------------------------------------------------------------------ #
    def capture(self, directory: str,
                journal_path: Optional[str] = None) -> str:
        """Write the incident bundle into ``directory``; returns its path.

        ``journal_path`` (if given and outside ``directory``) is copied
        in as ``journal.jsonl`` so the bundle is self-contained.
        """
        if not self.triggered:
            raise FlightError("no trigger recorded; nothing to capture")
        if self._evidence is None:
            self.finalize()
        evidence = self._evidence
        if evidence is None:  # pragma: no cover - finalize always captures
            raise FlightError("evidence capture failed")
        os.makedirs(directory, exist_ok=True)
        bundle_journal = os.path.join(directory, "journal.jsonl")
        if journal_path and os.path.exists(journal_path):
            if os.path.abspath(journal_path) != os.path.abspath(bundle_journal):
                shutil.copyfile(journal_path, bundle_journal)
        checkpoint = evidence["checkpoint"]
        if checkpoint is not None:
            checkpoint.save(os.path.join(directory, "checkpoint.json"))
        for tail in ("events", "spans"):
            _write_jsonl(evidence[tail],
                         os.path.join(directory, f"{tail}.jsonl"))
        _write_json(os.path.join(directory, "metrics.json"),
                    evidence["metrics"])
        _write_json(os.path.join(directory, "queue_depth.json"),
                    evidence["queue_depth"])
        _write_json(os.path.join(directory, "knowledge.json"),
                    evidence["knowledge"])
        _write_json(os.path.join(directory, "trust.json"),
                    evidence["trust"])
        diagnosis: Diagnosis = evidence["diagnosis"]
        manifest = {
            "version": BUNDLE_VERSION,
            "trigger": self.triggers[0].to_dict(),
            "additional_triggers": [t.to_dict() for t in self.triggers[1:]],
            "barrier": evidence["barrier"],
            "scenario": self.spec.to_dict() if self.spec else None,
            "diagnosis": diagnosis.to_dict(),
            "telemetry": evidence["telemetry"],
            "evidence": {
                "events": len(evidence["events"]),
                "spans": len(evidence["spans"]),
                "series": len(evidence["metrics"]["series"]),
                "queue_samples": len(evidence["queue_depth"]),
                "knowledge_bases": len(evidence["knowledge"]),
                "trust": bool(evidence["trust"]),
                "checkpoint": checkpoint is not None,
                "journal": os.path.exists(bundle_journal),
            },
        }
        _write_json(os.path.join(directory, MANIFEST_NAME), manifest)
        return directory


# --------------------------------------------------------------------------- #
# Bundle reading / replay
# --------------------------------------------------------------------------- #
_TRIGGER = Field("object", fields={
    "reason": Field("string", choices=TRIGGER_REASONS, label="trigger reason"),
    "time": Field("number")})

#: What ``incident show`` and ``incident replay`` read of a manifest.
_MANIFEST = Field("object", fields={
    "trigger": _TRIGGER,
    "barrier": Field("object", fields={"time": Field("number"),
                                       "fired": Field("integer", low=0),
                                       "digest": Field("string")}),
    "scenario": Field("object", required=False, null=True),
    "additional_triggers": Field("list", required=False, items=_TRIGGER),
    "diagnosis": DIAGNOSIS,
    "evidence": Field("object", required=False),
})


def load_manifest(bundle: str) -> Dict[str, Any]:
    """Read a bundle's manifest; anything not of its shape fails closed."""
    path = os.path.join(bundle, MANIFEST_NAME)
    manifest = load_document(path, _MANIFEST, FlightError,
                             f"{bundle}: not an incident bundle",
                             f"{bundle}: malformed manifest")
    check_version(manifest, BUNDLE_VERSION, path, "incident bundle",
                  FlightError)
    return manifest


def replay_incident(bundle: str) -> Dict[str, Any]:
    """Deterministically reproduce a bundle's triggering window.

    Loads the bundle's checkpoint, rebuilds the scenario from its
    embedded spec and :func:`~repro.persistence.runner.fast_forward`\\ s
    to the barrier -- stepping exactly ``fired`` events and verifying
    the whole-system digest bit-for-bit.  Returns a result dict; raises
    :class:`~repro.persistence.checkpoint.CheckpointError` on divergence
    and :class:`FlightError` when the bundle carries no checkpoint.
    """
    manifest = load_manifest(bundle)
    checkpoint_path = os.path.join(bundle, "checkpoint.json")
    if not os.path.exists(checkpoint_path):
        raise FlightError(
            f"{bundle}: no checkpoint (captured without a scenario spec); "
            "the triggering window cannot be replayed")
    checkpoint = Checkpoint.load(checkpoint_path)
    run = Run.resume(checkpoint)
    run.abandon()   # the window is reproduced; nothing records past it
    return {
        "manifest": manifest,
        "spec": run.spec,
        "system": run.system,
        "barrier_time": checkpoint.time,
        "barrier_fired": checkpoint.fired,
        "digest": checkpoint.digest,
        "replay_wall_s": run.fast_forward_s,
    }


# --------------------------------------------------------------------------- #
# Flight-armed runs: the monitor verb and the gate-incident captures
# --------------------------------------------------------------------------- #
@contextmanager
def flight_armed_run(spec: ScenarioSpec, directory: Optional[str] = None,
                     until: Optional[float] = None,
                     armed: Optional[List[Tuple[Any, ...]]] = None
                     ) -> Iterator[Tuple[Run, FlightRecorder]]:
    """Drive ``spec`` to its horizon journaled and flight-armed.

    With ``directory`` the event stream is journaled to its
    ``journal.jsonl``, where a later :meth:`FlightRecorder.capture` into
    the same directory finds it.  The ``with`` body runs at the final
    barrier, *before* evidence is pinned and the journal closes -- the
    place for an end-of-run SLO evaluation or a ``gate-failure`` trigger.
    An exception mid-drive becomes an ``exception`` trigger, is captured
    into ``directory`` and re-raised, the journal left open-ended.
    ``armed`` is a caller-owned list holding ``(flight, directory,
    journal_path)`` for the length of the drive, so a harness that turns
    signals into exceptions can flush the interrupted recorder.
    """
    journal_path = None
    if directory is not None:
        os.makedirs(directory, exist_ok=True)
        journal_path = os.path.join(directory, "journal.jsonl")
    run = Run.start(spec, journal_path)
    flight = FlightRecorder(run.system, spec=spec,
                            loops=run.prepared.aux.get("loops"))
    flight.arm()   # chains after the journaling observer
    registration = (flight, directory, journal_path)
    armed = [] if armed is None else armed
    armed.append(registration)
    try:
        with flight.guard():
            run.drive(until)
    except BaseException as exc:
        # A signal-turned-exception (not an ``Exception``) stays in
        # ``armed``: the harness flushes it as a harness-crash incident.
        if isinstance(exc, Exception):
            armed.remove(registration)
        flight.finalize()
        flight.disarm()
        run.abandon()
        if directory is not None and flight.triggered:
            flight.capture(directory, journal_path=journal_path)
        raise
    armed.remove(registration)
    yield run, flight
    flight.finalize()
    flight.disarm()
    run.finish()


def capture_gate_incident(spec: ScenarioSpec, directory: str,
                          reason: str = "gate-failure",
                          detail: Optional[Dict[str, Any]] = None,
                          until: Optional[float] = None) -> str:
    """Re-run a failing gated scenario with the flight recorder armed.

    The traffic/security gates aggregate several variant runs and only
    know about a failure after the fact; this helper deterministically
    re-runs the *failing* variant's spec with journaling and a flight
    recorder attached, triggers at the horizon, and writes the bundle
    (journal included) into ``directory``.
    """
    with flight_armed_run(spec, directory, until) as (run, flight):
        flight.trigger(reason, detail=detail)
    return flight.capture(directory, journal_path=run.journal_path)


def capture_divergence_incident(journal_path: str, report: Any,
                                directory: str) -> str:
    """Capture an incident bundle for a replay divergence.

    Rebuilds the journaled scenario, re-runs it to the divergence point
    (the recorded side's event count) with a flight recorder armed, and
    captures at that barrier with a ``replay-divergence`` trigger whose
    detail embeds both sides of the disagreement.  ``report`` is the
    :class:`~repro.persistence.replay.ReplayReport` the replay produced.
    """
    divergence = report.divergence
    if divergence is None:
        raise FlightError("replay report has no divergence to capture")
    spec = ScenarioSpec.from_dict(report.scenario)
    prepared = prepare(spec)
    system = prepared.system
    flight = FlightRecorder(system, spec=spec,
                            loops=prepared.aux.get("loops"))
    flight.arm()
    # A damaged journal's ``i`` may lie past the horizon: stop there.
    target = max(0, divergence.fired)
    while (system.sim.fired_count < target
           and system.sim.now <= prepared.horizon):
        if not system.sim.step():
            break
    flight.trigger("replay-divergence", detail=divergence.to_dict())
    flight.finalize()
    flight.disarm()
    return flight.capture(directory, journal_path=journal_path)
