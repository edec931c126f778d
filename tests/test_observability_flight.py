"""Acceptance tests for the flight recorder and incident bundles.

The headline guarantees:

* every trigger class -- SLO breach, scenario-gate failure, harness
  crash, replay divergence, unhandled exception -- produces a captured
  incident with a ranked causal chain;
* a bundle's checkpoint deterministically reproduces the triggering
  window: ``replay_incident`` fast-forwards the rebuilt scenario and
  verifies the whole-system digest bit-for-bit (and refuses a tampered
  bundle);
* an armed flight recorder is digest- and journal-neutral: a journaled
  run records identical bytes with and without the black box attached.
"""

import json
import os

import pytest

from repro.cli import main
from repro.observability.diagnosis import Diagnosis
from repro.observability.flight import (
    FlightError,
    FlightRecorder,
    capture_divergence_incident,
    capture_gate_incident,
    load_manifest,
    replay_incident,
)
from repro.persistence import (
    CheckpointError,
    JournalWriter,
    ScenarioSpec,
    prepare,
    replay_journal,
    run_scenario,
)
from repro.persistence.runner import RunRecorder, drive


STRICT_CITY = ScenarioSpec(
    name="smart-city-partition",
    params={"quick": True, "monitored": True, "strict": True})


def _run_flight_armed(spec, journal_path=None):
    """Drive ``spec`` to its horizon with a flight recorder armed."""
    prepared = prepare(spec)
    system = prepared.system
    recorder = None
    if journal_path is not None:
        recorder = RunRecorder(system,
                               JournalWriter(journal_path, spec.to_dict()))
    flight = FlightRecorder(system, spec=spec,
                            loops=prepared.aux.get("loops"))
    flight.arm()
    drive(system, prepared.horizon)
    monitor = prepared.aux.get("monitor")
    if monitor is not None:
        monitor.evaluate_now()
    flight.finalize()
    flight.disarm()
    if recorder is not None:
        recorder.finish()
    return prepared, flight


class TestSloBreachIncident:
    @pytest.fixture(scope="class")
    def bundle(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("incident")
        journal_path = str(directory / "journal.jsonl")
        prepared, flight = _run_flight_armed(STRICT_CITY, journal_path)
        assert flight.triggered
        return flight.capture(str(directory / "bundle"),
                              journal_path=journal_path)

    def test_strict_run_triggers_slo_breach(self, bundle):
        manifest = load_manifest(bundle)
        assert manifest["trigger"]["reason"] == "slo-breach"
        assert manifest["trigger"]["detail"]["slo"] == "cloud-reachability"
        assert manifest["barrier"]["exact"] is True
        assert manifest["barrier"]["fired"] > 0

    def test_bundle_is_self_contained(self, bundle):
        for name in ("manifest.json", "checkpoint.json", "journal.jsonl",
                     "events.jsonl", "spans.jsonl", "metrics.json",
                     "queue_depth.json", "knowledge.json", "trust.json"):
            assert os.path.exists(os.path.join(bundle, name)), name
        manifest = load_manifest(bundle)
        assert manifest["evidence"]["checkpoint"] is True
        assert manifest["evidence"]["journal"] is True
        assert manifest["evidence"]["events"] > 0
        assert manifest["evidence"]["queue_samples"] > 0

    def test_diagnosis_chains_fault_to_breach(self, bundle):
        manifest = load_manifest(bundle)
        diagnosis = Diagnosis.from_dict(manifest["diagnosis"])
        kinds = [link.kind for link in diagnosis.chain]
        assert "fault" in kinds
        assert "breach" in kinds
        subjects = [link.subject for link in diagnosis.chain]
        assert any("cloud" in s for s in subjects)
        # Ranked within each causal stage: among links of one kind the
        # highest score leads (the chain itself stays in causal order,
        # fault -> degraded -> breach).
        for kind in set(kinds):
            scores = [l.score for l in diagnosis.chain if l.kind == kind]
            assert scores == sorted(scores, reverse=True)
        rows = diagnosis.table_rows()
        assert [row[0] for row in rows] == list(range(1, len(rows) + 1))

    def test_replay_reproduces_triggering_window_bitwise(self, bundle):
        result = replay_incident(bundle)
        manifest = load_manifest(bundle)
        assert result["barrier_fired"] == manifest["barrier"]["fired"]
        assert result["digest"] == manifest["barrier"]["digest"]
        assert result["system"].sim.fired_count == result["barrier_fired"]

    def test_tampered_checkpoint_is_refused(self, bundle, tmp_path):
        import shutil

        tampered = str(tmp_path / "tampered")
        shutil.copytree(bundle, tampered)
        path = os.path.join(tampered, "checkpoint.json")
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
        digest = document["payload"]["digest"]
        document["payload"]["digest"] = "0" * len(digest)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
        with pytest.raises(CheckpointError):
            replay_incident(tampered)


class TestOtherTriggerClasses:
    def test_gate_failure_capture_is_replayable(self, tmp_path):
        spec = ScenarioSpec(name="mape-outage")
        bundle = capture_gate_incident(
            spec, str(tmp_path / "gate"),
            detail={"gate": "unit-test", "metric": 0.0})
        manifest = load_manifest(bundle)
        assert manifest["trigger"]["reason"] == "gate-failure"
        assert manifest["trigger"]["detail"]["gate"] == "unit-test"
        result = replay_incident(bundle)
        assert result["digest"] == manifest["barrier"]["digest"]

    def test_harness_crash_fault_triggers(self):
        spec = ScenarioSpec(name="harness-crash",
                            params={"crash_at": 10.0, "horizon": 20.0})
        prepared = prepare(spec)
        flight = FlightRecorder(prepared.system, spec=spec).arm()
        drive(prepared.system, prepared.horizon)
        flight.finalize()
        flight.disarm()
        assert flight.triggered
        assert flight.triggers[0].reason == "harness-crash"
        assert flight.diagnosis is not None

    def test_replay_divergence_capture(self, tmp_path):
        journal_path = str(tmp_path / "run.jsonl")
        run_scenario(ScenarioSpec(name="control-outage"),
                     journal_path=journal_path)
        # Corrupt one mid-journal digest so the replay diverges there.
        with open(journal_path, encoding="utf-8") as fh:
            lines = fh.readlines()
        target = next(i for i, line in enumerate(lines)
                      if i > len(lines) // 2 and '"digest"' in line)
        record = json.loads(lines[target])
        record["digest"] = "f" * len(record["digest"])
        lines[target] = json.dumps(record) + "\n"
        with open(journal_path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        report = replay_journal(journal_path)
        assert report.divergence is not None
        bundle = capture_divergence_incident(
            journal_path, report, str(tmp_path / "divergence"))
        manifest = load_manifest(bundle)
        assert manifest["trigger"]["reason"] == "replay-divergence"
        assert manifest["trigger"]["detail"]["field"] == \
            report.divergence.field
        # The capture re-runs the *correct* side, so the bundle itself
        # replays clean at the divergence barrier.
        result = replay_incident(bundle)
        assert result["barrier_fired"] == manifest["barrier"]["fired"]

    def test_guard_converts_exception_to_trigger(self):
        prepared = prepare(ScenarioSpec(name="mape-outage"))
        flight = FlightRecorder(prepared.system).arm()
        with pytest.raises(ValueError):
            with flight.guard():
                raise ValueError("boom")
        flight.disarm()
        assert flight.triggers[0].reason == "exception"
        assert flight.triggers[0].detail["type"] == "ValueError"

    def test_capture_without_trigger_is_refused(self, tmp_path):
        prepared = prepare(ScenarioSpec(name="mape-outage"))
        flight = FlightRecorder(prepared.system).arm()
        flight.disarm()
        with pytest.raises(FlightError):
            flight.capture(str(tmp_path / "nothing"))


class TestFlightNeutrality:
    def test_armed_recorder_is_journal_neutral(self, tmp_path):
        spec = ScenarioSpec(name="mape-outage")
        reference = str(tmp_path / "reference.jsonl")
        run_scenario(spec, journal_path=reference)
        armed = str(tmp_path / "armed.jsonl")
        _run_flight_armed(spec, armed)
        with open(reference, "rb") as fh:
            ref_bytes = fh.read()
        with open(armed, "rb") as fh:
            armed_bytes = fh.read()
        assert ref_bytes == armed_bytes

    def test_disarm_restores_observer_chain(self):
        prepared = prepare(ScenarioSpec(name="mape-outage"))
        sim = prepared.system.sim
        before = sim.on_event
        flight = FlightRecorder(prepared.system).arm()
        # Armed and idle, the recorder is not on the per-event path; a
        # trigger chains it in until its evidence barrier is pinned.
        assert sim.on_event is before
        flight.trigger("gate-failure")
        assert sim.on_event is not before
        flight.disarm()
        assert sim.on_event is before


class TestIncidentCli:
    @pytest.fixture(scope="class")
    def strict_out(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("monitor-out")
        code = main(["monitor", "smart-city-partition", "--quick",
                     "--strict", "--out", str(out)])
        return code, str(out)

    def test_strict_monitor_emits_bundle(self, strict_out, capsys):
        code, out = strict_out
        assert code == 1
        bundle = os.path.join(out, "incidents", "smart-city-partition")
        assert os.path.exists(os.path.join(bundle, "manifest.json"))

    def test_incident_show_prints_causal_chain(self, strict_out, capsys):
        _, out = strict_out
        bundle = os.path.join(out, "incidents", "smart-city-partition")
        assert main(["incident", "show", bundle]) == 0
        printed = capsys.readouterr().out
        assert "causal chain" in printed
        assert "slo-breach" in printed

    def test_incident_replay_matches(self, strict_out, capsys):
        _, out = strict_out
        bundle = os.path.join(out, "incidents", "smart-city-partition")
        assert main(["incident", "replay", bundle]) == 0
        assert "INCIDENT REPLAY: MATCH" in capsys.readouterr().out

    def test_show_rejects_non_bundle(self, tmp_path):
        assert main(["incident", "show", str(tmp_path)]) == 2

    def test_passing_monitor_leaves_no_bundle(self, tmp_path, capsys):
        assert main(["monitor", "smart-city-partition", "--quick",
                     "--out", str(tmp_path)]) == 0
        assert not os.path.exists(
            os.path.join(str(tmp_path), "incidents", "smart-city-partition"))


class _PerEventFlightRecorder(FlightRecorder):
    """The recorder as it sampled before: a kernel ``on_event`` observer
    for every event from arm to disarm, counting events since arm.  The
    reference, kept here only."""

    def arm(self):
        if self.armed:
            return self
        self.armed = True
        self._events_seen = 0
        self._unsubscribe = self.system.trace.subscribe(self._on_trace)
        self._prev_observer = self.system.sim.on_event
        self.system.sim.on_event = self._on_event
        return self

    def disarm(self):
        if not self.armed:
            return
        self.armed = False
        self._unsubscribe()
        self._unsubscribe = None
        if self.system.sim.on_event == self._on_event:
            self.system.sim.on_event = self._prev_observer
        self._prev_observer = None

    def _observe(self):
        pass

    def _on_event(self, event):
        prev = self._prev_observer
        if prev is not None:
            prev(event)
        self._events_seen += 1
        if self._events_seen % self.queue_sample_every == 0:
            sim = self.system.sim
            if len(self._queue_ring) >= self.queue_samples:
                self._queue_ring.pop(0)
            self._queue_ring.append(
                [sim.now, float(sim.fired_count), float(sim.pending_count)])
        if self._pending and self._evidence is None:
            self._capture_evidence(exact=True)


class TestBarrierSampling:
    """Queue depth sampled from fired-count barriers, and the observer
    chained in only while a trigger waits, against the per-event
    observer: same ring, same evidence barrier."""

    SPEC = ScenarioSpec(name="mape-outage")

    def _drive(self, cls, before_arm=0, breach_at=None, trigger_at=None,
               queue_samples=256):
        prepared = prepare(self.SPEC)
        system, sim = prepared.system, prepared.system.sim
        for _ in range(before_arm):
            sim.step()
        if breach_at is not None:
            # An SLO breach emitted from inside an event's callback.
            sim.schedule_at(breach_at, lambda s: system.trace.emit(
                s.now, "alert", "slo-breach", subject="svc", slo="p99"))
        flight = cls(system, queue_samples=queue_samples).arm()
        if trigger_at is not None:
            sim.run(until=trigger_at)
            # Between events: the next event's boundary pins the barrier.
            flight.trigger("gate-failure")
        sim.run(until=prepared.horizon)
        flight.finalize()
        evidence = flight._evidence
        return {
            "fired": sim.fired_count,
            "ring": list(flight._queue_ring),
            "barrier": None if evidence is None else evidence["barrier"],
            "evidence_ring": None if evidence is None
            else evidence["queue_depth"],
            "observer_left": sim.on_event is not None,
        }

    @pytest.mark.parametrize("case", [
        {"breach_at": 20.0},
        {"trigger_at": 20.0},
        {"before_arm": 5, "breach_at": 20.0},
        {"before_arm": 37, "trigger_at": 12.5, "queue_samples": 8},
        {"before_arm": 3},
    ])
    def test_ring_and_barrier_match_the_per_event_observer(self, case):
        reference = self._drive(_PerEventFlightRecorder, **case)
        barriers = self._drive(FlightRecorder, **case)
        assert barriers["fired"] == reference["fired"]
        assert barriers["ring"] == reference["ring"]
        assert barriers["barrier"] == reference["barrier"]
        assert barriers["evidence_ring"] == reference["evidence_ring"]
        assert barriers["ring"], "the run is long enough to sample"
        # Once the barrier is pinned the recorder leaves the kernel's
        # per-event path again.
        assert not barriers["observer_left"]
        if case.get("breach_at") or case.get("trigger_at"):
            assert barriers["barrier"]["exact"] is True

    def test_samples_count_from_the_arm_point(self):
        prepared = prepare(self.SPEC)
        sim = prepared.system.sim
        for _ in range(5):
            sim.step()
        flight = FlightRecorder(prepared.system).arm()
        sim.run(until=prepared.horizon)
        fired = [int(sample[1]) for sample in flight._queue_ring]
        assert fired and all((n - 5) % 16 == 0 for n in fired)

    def test_disarm_stops_sampling(self):
        prepared = prepare(self.SPEC)
        sim = prepared.system.sim
        flight = FlightRecorder(prepared.system).arm()
        sim.run(until=prepared.horizon / 4)
        flight.disarm()
        ring = list(flight._queue_ring)
        assert ring
        sim.run(until=prepared.horizon / 2)
        assert flight._queue_ring == ring
        # Re-armed, it samples again from the new arm point.
        flight.arm()
        armed_at = sim.fired_count
        sim.run(until=prepared.horizon)
        assert len(flight._queue_ring) > len(ring)
        assert (int(flight._queue_ring[-1][1]) - armed_at) % 16 == 0

    def test_close_drops_the_sampling_hooks(self):
        prepared = prepare(self.SPEC)
        sim = prepared.system.sim
        FlightRecorder(prepared.system).arm()
        sim.run(until=prepared.horizon / 2)
        assert sim._fired_hooks
        prepared.system.close()
        assert not sim._fired_hooks

    def test_a_sample_runs_before_other_callbacks_at_its_barrier(self):
        prepared = prepare(self.SPEC)
        sim = prepared.system.sim
        barrier = sim.fired_count + 16
        # A driver action at the same barrier, registered before the
        # recorder armed, must not show in the sample.
        sim.at_fired(barrier, lambda s: s.schedule(1.0, lambda _s: None))
        flight = FlightRecorder(prepared.system).arm()
        sim.run(until=prepared.horizon)
        first = flight._queue_ring[0]
        assert int(first[1]) == barrier
        reference = _PerEventFlightRecorder(prepare(self.SPEC).system)
        ref_sim = reference.system.sim
        ref_sim.at_fired(barrier, lambda s: s.schedule(1.0, lambda _s: None))
        reference.arm()
        ref_sim.run(until=prepared.horizon)
        assert flight._queue_ring == reference._queue_ring
