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
