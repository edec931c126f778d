"""End-to-end acceptance tests for checkpoint / resume / replay.

The headline guarantees:

* a run interrupted at an arbitrary checkpoint and resumed produces a
  journal *byte-identical* to an uninterrupted run with the same seed,
  and identical ``kpi_report()`` output;
* ``replay`` detects a deliberately corrupted journal and reports the
  first divergence point;
* the ``harness-crash`` fault scenario (an unplanned kernel stop
  mid-run) recovers through the same path with the same bytes.
"""

import json
import os

import pytest

from repro.observability.flight import capture_gate_incident
from repro.persistence import (
    CheckpointError,
    Checkpoint,
    JournalError,
    Run,
    ScenarioSpec,
    default_paths,
    describe_scenario,
    fast_forward,
    prepare,
    read_journal,
    replay_journal,
    resume_run,
    run_scenario,
    run_to_checkpoint,
    scenario_names,
    write_divergence_report,
)


def _reference(tmp_path, spec):
    journal_path = str(tmp_path / "reference.jsonl")
    result = run_scenario(spec, journal_path=journal_path)
    return result, journal_path


class TestScenarioRegistry:
    def test_builtin_scenarios_registered(self):
        names = scenario_names()
        for expected in ("control-outage", "mape-outage", "harness-crash",
                         "traffic-overload", "traffic-retry-storm"):
            assert expected in names

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            prepare(ScenarioSpec(name="no-such-scenario"))


class TestResumeBitwiseIdentity:
    @pytest.mark.parametrize("scenario", scenario_names())
    def test_interrupted_resume_matches_uninterrupted(
            self, tmp_path, scenario):
        """Every registered scenario, cut mid-horizon with whatever its
        protocols hold in flight there (timers, terms, leases, breakers,
        open requests, quarantine ACLs), resumes to the same bytes."""
        spec = describe_scenario(scenario).spec(quick=True)
        reference, ref_journal = _reference(tmp_path, spec)
        at = reference.prepared.horizon / 2

        directory = str(tmp_path / "interrupted")
        interrupted = run_to_checkpoint(spec, directory, at=at)
        assert interrupted.checkpoint.time == at
        assert interrupted.checkpoint.fired < reference.system.sim.fired_count

        resumed = resume_run(directory=directory)
        assert resumed.fast_forward_events == interrupted.checkpoint.fired
        assert resumed.final_digest == reference.final_digest

        with open(ref_journal) as fh:
            ref_bytes = fh.read()
        with open(resumed.journal_path) as fh:
            resumed_bytes = fh.read()
        assert resumed_bytes == ref_bytes

        # The flight-armed journaled run (the monitor / gate-incident
        # helper) is one more driver over the same run session.
        bundle = capture_gate_incident(spec, str(tmp_path / "armed"))
        with open(default_paths(bundle)["journal"]) as fh:
            assert fh.read() == ref_bytes

    def test_resume_parses_the_journal_once(self, tmp_path, monkeypatch):
        from repro.persistence import Run, journal

        spec = ScenarioSpec(name="control-outage", params={})
        directory = str(tmp_path / "i")
        run_to_checkpoint(spec, directory, at=45.0, digest_every=10)
        paths = default_paths(directory)
        on_disk = read_journal(paths["journal"])

        parses = []
        real = journal.scan_journal
        monkeypatch.setattr(
            journal, "scan_journal",
            lambda path: parses.append(path) or real(path))
        run = Run.resume(Checkpoint.load(paths["checkpoint"]),
                         paths["journal"])
        run.abandon()
        assert parses == [paths["journal"]]
        # The writer still knows what a second parse would have told it.
        assert run.journal.digest_every == on_disk.digest_every == 10
        assert run.journal.records_written == len(on_disk.records)

    def test_kpi_report_identical_after_resume(self, tmp_path):
        spec = ScenarioSpec(name="mape-outage")
        reference, _ = _reference(tmp_path, spec)
        run_to_checkpoint(spec, str(tmp_path / "i"), at=40.0)
        resumed = resume_run(directory=str(tmp_path / "i"))

        ref_kpis = json.dumps(reference.system.kpi_report().to_dict(),
                              sort_keys=True, default=str)
        res_kpis = json.dumps(resumed.system.kpi_report().to_dict(),
                              sort_keys=True, default=str)
        assert res_kpis == ref_kpis

    def test_harness_crash_recovery(self, tmp_path):
        """An unplanned kernel stop mid-run resumes to identical bytes."""
        spec = ScenarioSpec(name="harness-crash", seed=7,
                            params={"crash_at": 40.0})
        reference, ref_journal = _reference(tmp_path, spec)

        directory = str(tmp_path / "crashed")
        crashed = run_to_checkpoint(spec, directory)   # stops at the fault
        assert crashed.checkpoint.time == pytest.approx(40.0)

        resumed = resume_run(directory=directory)
        assert resumed.final_digest == reference.final_digest
        with open(ref_journal) as fh_a, open(resumed.journal_path) as fh_b:
            assert fh_b.read() == fh_a.read()

    def test_resume_records_restore_telemetry(self, tmp_path):
        spec = ScenarioSpec(name="control-outage")
        run_to_checkpoint(spec, str(tmp_path / "c"), at=45.0)
        resumed = resume_run(directory=str(tmp_path / "c"))
        metrics = resumed.system.metrics
        assert len(metrics.series("persistence.restore.fast_forward_s")) == 1
        assert metrics.series("persistence.restore.events").values == [226.0]
        # Telemetry must be digest-neutral: series only, no counters.
        assert not [n for n in metrics.counter_names
                    if n.startswith("persistence")]


class TestFastForwardVerification:
    def test_digest_mismatch_is_refused(self, tmp_path):
        spec = ScenarioSpec(name="control-outage")
        directory = str(tmp_path / "c")
        run_to_checkpoint(spec, directory, at=45.0)
        checkpoint = Checkpoint.load(default_paths(directory)["checkpoint"])
        drifted = Checkpoint(
            scenario=checkpoint.scenario, time=checkpoint.time,
            fired=checkpoint.fired, digest="0" * 64,
            digest_every=checkpoint.digest_every, state=checkpoint.state)
        prepared = prepare(ScenarioSpec.from_dict(checkpoint.scenario))
        with pytest.raises(CheckpointError, match="digest"):
            fast_forward(prepared.system, drifted)

    def test_digest_mismatch_names_what_drifted(self, tmp_path):
        directory = str(tmp_path / "c")
        run_to_checkpoint(ScenarioSpec(name="control-outage"), directory,
                          at=45.0)
        checkpoint = Checkpoint.load(default_paths(directory)["checkpoint"])

        def refusal(**changes):
            fields = dict(scenario=checkpoint.scenario, time=checkpoint.time,
                          fired=checkpoint.fired, digest=checkpoint.digest,
                          digest_every=checkpoint.digest_every,
                          state=checkpoint.state)
            drifted = Checkpoint(**{**fields, **changes})
            prepared = prepare(ScenarioSpec.from_dict(drifted.scenario))
            with pytest.raises(CheckpointError, match="digest mismatch") as err:
                fast_forward(prepared.system, drifted)
            return str(err.value)

        # Another seed: the draws differ, and the message says so by stream.
        reseeded = refusal(scenario={**checkpoint.scenario, "seed": 7})
        assert reseeded.endswith(
            "differing fields -- rngs: exec:edge0, exec:edge1, exec:edge2, "
            "network")
        # Dict-valued fields list their first five keys, scalars their name.
        recorded = checkpoint.state["digest_fields"]
        edited = refusal(digest="0" * 64, state={"digest_fields": {
            **recorded, "trace_len": -1,
            "fleet": {**recorded["fleet"], **{f"ghost{i}": True
                                              for i in range(6)}}}})
        assert edited.endswith("differing fields -- fleet: ghost0, ghost1, "
                               "ghost2, ghost3, ghost4; trace_len")
        # A tampered digest over fields the rebuild reproduces.
        assert "does not match its own fields" in refusal(digest="0" * 64)
        # No digest_fields (a shard's checkpoint, a hand-built one): as before.
        bare = refusal(scenario={**checkpoint.scenario, "seed": 7}, state={})
        assert bare.endswith("since the checkpoint was taken")

    def test_checkpoint_beyond_run_is_refused(self, tmp_path):
        spec = ScenarioSpec(name="control-outage")
        directory = str(tmp_path / "c")
        run_to_checkpoint(spec, directory, at=45.0)
        checkpoint = Checkpoint.load(default_paths(directory)["checkpoint"])
        impossible = Checkpoint(
            scenario=checkpoint.scenario, time=checkpoint.time,
            fired=10**6, digest=checkpoint.digest,
            digest_every=checkpoint.digest_every)
        prepared = prepare(ScenarioSpec.from_dict(checkpoint.scenario))
        with pytest.raises(CheckpointError):
            fast_forward(prepared.system, impossible)


class TestCheckpointIsABookmark:
    """What the file stores is what its reader uses: spec, barrier, digest
    and the digest's fields."""

    def test_a_checkpoint_holds_the_bookmark_and_nothing_else(self, tmp_path):
        directory = str(tmp_path / "c")
        spec = describe_scenario("control-outage").spec(quick=True)
        run_to_checkpoint(spec, directory)
        path = default_paths(directory)["checkpoint"]
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)["payload"]
        assert sorted(payload) == ["digest", "digest_every", "fired",
                                   "scenario", "state", "time", "version"]
        assert sorted(payload["state"]) == ["digest_fields"]
        assert os.path.getsize(path) < 4096

    def test_a_checkpoint_with_audit_sections_still_resumes(self, tmp_path):
        # Files written before the audit sections were dropped carry
        # ``kernel`` / ``rngs`` / ``fleet`` in ``state``; nothing reads them.
        spec = ScenarioSpec(name="control-outage")
        reference, _ = _reference(tmp_path, spec)
        directory = str(tmp_path / "old")
        run_to_checkpoint(spec, directory, at=45.0)
        path = default_paths(directory)["checkpoint"]
        checkpoint = Checkpoint.load(path)
        checkpoint.state.update(kernel={"now": -1.0, "pending": [{"t": 0}]},
                                rngs={"seed": 99, "streams": {"x": [3, [1]]}},
                                fleet={"ghost": {"up": False}})
        checkpoint.save(path)
        resumed = resume_run(directory)
        assert resumed.final_digest == reference.final_digest


class TestReplay:
    def test_intact_journal_replays_clean(self, tmp_path):
        spec = ScenarioSpec(name="control-outage")
        _, journal_path = _reference(tmp_path, spec)
        report = replay_journal(journal_path)
        assert report.ok
        assert report.divergence is None
        assert report.journal_complete
        assert report.records_checked > 0

    def test_corrupted_journal_reports_divergence_point(self, tmp_path):
        spec = ScenarioSpec(name="control-outage")
        _, journal_path = _reference(tmp_path, spec)

        lines = open(journal_path).read().splitlines()
        target = 100
        record = json.loads(lines[target])
        assert record["type"] == "event"
        record["label"] = "tampered"
        lines[target] = json.dumps(record, sort_keys=True,
                                   separators=(",", ":"))
        with open(journal_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

        report = replay_journal(journal_path)
        assert not report.ok
        divergence = report.divergence
        assert divergence.index == target - 1   # header is not a record
        assert divergence.field == "label"
        assert divergence.recorded == "tampered"
        assert divergence.replayed != "tampered"
        assert divergence.time == record["t"]

        out = str(tmp_path / "divergence.json")
        write_divergence_report(report, out)
        written = json.load(open(out))
        assert written["divergence"]["field"] == "label"

    def test_incomplete_journal_is_a_valid_prefix(self, tmp_path):
        spec = ScenarioSpec(name="control-outage")
        directory = str(tmp_path / "c")
        run_to_checkpoint(spec, directory, at=45.0)
        journal_path = default_paths(directory)["journal"]
        journal = read_journal(journal_path)
        assert not journal.complete
        report = replay_journal(journal_path)
        assert report.ok
        assert not report.journal_complete
        assert report.records_checked == len(journal.records)

    def test_replay_closes_the_run_it_rebuilt(self, tmp_path, digest_calls):
        from repro.simulation.kernel import SimulationError

        spec = ScenarioSpec(name="control-outage")
        _, journal_path = _reference(tmp_path, spec)
        del digest_calls[:]
        report = replay_journal(journal_path)
        assert report.ok
        system = digest_calls[-1]
        assert system.sim.fired_count == report.events_replayed
        assert system.sim.pending_count == 0 and len(system.trace) == 0
        with pytest.raises(SimulationError, match="closed"):
            system.sim.run()

    def test_journal_without_scenario_is_rejected(self, tmp_path):
        from repro.persistence import JournalWriter

        path = str(tmp_path / "anon.jsonl")
        writer = JournalWriter(path, scenario={})
        writer.append_event(1, 0.5, "a")
        writer.abandon()
        with pytest.raises(JournalError):
            replay_journal(path)


class TestDigestChainIsJournalContent:
    """The digest every ``digest_every`` events is what journals record and
    replay compares; a session with nothing to record it skips it."""

    def test_an_unjournaled_session_digests_once(self, digest_calls):
        run = Run.start(ScenarioSpec(name="control-outage"))
        run.drive()
        assert run.finish()
        assert run.system.sim.fired_count > 25
        assert digest_calls == [run.system]
        # The nominal cadence checkpoints carry is unchanged.
        assert run.digest_every == 25

    def test_a_journal_and_a_replay_sink_digest_every_25_events(
            self, tmp_path, digest_calls):
        spec = ScenarioSpec(name="control-outage")
        result, journal_path = _reference(tmp_path, spec)
        chain = [record["i"] for record in read_journal(journal_path).records
                 if record["type"] == "digest"]
        fired = result.system.sim.fired_count
        assert chain == list(range(25, fired + 1, 25))
        assert len(digest_calls) == len(chain) + 1   # + the end record
        del digest_calls[:]
        assert replay_journal(journal_path).ok
        assert len(digest_calls) == len(chain) + 1

    def test_a_journal_without_a_digest_chain_replays_clean(self, tmp_path):
        spec = ScenarioSpec(name="control-outage", seed=11)
        journal_path = str(tmp_path / "journal.jsonl")
        run_scenario(spec, journal_path=journal_path, digest_every=0)
        journal = read_journal(journal_path)
        assert journal.header["digest_every"] == 0
        assert all(r["type"] != "digest" for r in journal.records)
        report = replay_journal(journal_path)
        assert report.ok, report.divergence
        assert report.journal_complete


class TestCli:
    def test_checkpoint_resume_replay_verbs(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "ckpt")
        assert main(["checkpoint", "control-outage", "--at", "45",
                     "--out", out]) == 0
        assert main(["resume", "--out", out]) == 0
        capsys.readouterr()
        assert main(["replay", "--out", out, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 0
        titles = [t["title"] for t in payload["tables"]]
        assert "replay: deterministic verification" in titles

    def test_replay_verb_fails_on_tampered_journal(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "ckpt")
        assert main(["checkpoint", "control-outage", "--at", "45",
                     "--out", out]) == 0
        assert main(["resume", "--out", out]) == 0
        journal_path = default_paths(out)["journal"]
        lines = open(journal_path).read().splitlines()
        record = json.loads(lines[50])
        record["label"] = "tampered"
        lines[50] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with open(journal_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["replay", "--out", out]) == 1
        report = json.load(open(default_paths(out)["divergence"]))
        assert report["divergence"] is not None
