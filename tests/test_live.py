"""Acceptance tests for live-service mode (:mod:`repro.live`).

The headline guarantees:

* pacing is telemetry-only -- a live run's journal is *byte-identical*
  to the batch ``run_scenario`` reference at any speed factor;
* a service killed between events and restarted on the same state
  directory resumes from its last checkpoint without loss (same bytes);
* ``/metrics`` and ``/healthz`` scrape over real HTTP while the kernel
  runs, without perturbing the journal;
* fault schedules and chaos specs hot-load mid-run, are journaled as
  ``reconfig`` records, and both resume and replay reproduce them;
* SIGTERM drains cleanly: final checkpoint, open-ended journal,
  exit ``128 + signum``.
"""

import json
import os
import re
import signal
import threading
import urllib.error
import urllib.request

import pytest

from repro.live import (
    LiveLoadError,
    LiveService,
    RealTimeExecutor,
    validate_payload,
)
from repro.persistence import ScenarioSpec, read_journal, replay_journal, run_scenario
from repro.simulation.kernel import SimulationError, Simulator

SCENARIO = "traffic-retry-storm"
UNTIL = 6.0   # reduced horizon keeps the paced variants fast


class _BareSystem:
    """The minimal surface the executor drives (kernel + telemetry)."""

    def __init__(self):
        from repro.simulation.metrics import MetricsRecorder

        self.sim = Simulator()
        self.metrics = MetricsRecorder()
        self.spans = None


@pytest.fixture
def system():
    return _BareSystem()


def _batch_reference(tmp_path, spec=None, until=UNTIL):
    path = str(tmp_path / "reference.jsonl")
    run_scenario(spec or ScenarioSpec(name=SCENARIO), journal_path=path,
                 until=until)
    with open(path, "rb") as fh:
        return fh.read()


def _live_journal(out):
    with open(os.path.join(out, "journal.jsonl"), "rb") as fh:
        return fh.read()


def _service(out, **kwargs):
    kwargs.setdefault("speed", 0.0)
    kwargs.setdefault("port", None)
    kwargs.setdefault("checkpoint_every", 3600.0)
    kwargs.setdefault("until", UNTIL)
    return LiveService(ScenarioSpec(name=SCENARIO), str(out), **kwargs)


# --------------------------------------------------------------------------- #
# Kernel barrier actions
# --------------------------------------------------------------------------- #
class TestFiredBarriers:
    def test_hook_fires_after_indexed_event(self, sim: Simulator):
        order = []
        sim.schedule(1.0, lambda s: order.append("e0"))
        sim.schedule(2.0, lambda s: order.append("e1"))
        sim.at_fired(1, lambda s: order.append("barrier"))
        sim.run(until=5.0)
        assert order == ["e0", "barrier", "e1"]

    def test_current_barrier_runs_immediately(self, sim: Simulator):
        hits = []
        sim.at_fired(0, lambda s: hits.append(s.fired_count))
        assert hits == [0]

    def test_past_barrier_rejected(self, sim: Simulator):
        sim.schedule(1.0, lambda s: None)
        sim.run(until=2.0)
        with pytest.raises(SimulationError):
            sim.at_fired(0, lambda s: None)

    def test_hooks_are_not_snapshot_state(self, sim: Simulator):
        first = sim.schedule(1.0, lambda s: None)
        sim.at_fired(1, lambda s: None)
        assert [e["seq"] for e in sim.pending_events()] == [first.seq]
        sim.run(until=2.0)
        assert (sim.now, sim.fired_count, sim.pending_events()) == (2.0, 1, [])
        assert sim.schedule(1.0, lambda s: None).seq == first.seq + 1


# --------------------------------------------------------------------------- #
# Pacing: telemetry-only
# --------------------------------------------------------------------------- #
class TestPacedDigestIdentity:
    @pytest.mark.parametrize("speed", [0.0, 10.0, 1000.0])
    def test_journal_byte_identical_to_batch(self, tmp_path, speed):
        reference = _batch_reference(tmp_path)
        out = tmp_path / f"live-{speed:g}"
        service = _service(out, speed=speed)
        service.start()
        assert service.run() == "completed"
        assert _live_journal(str(out)) == reference

    def test_negative_speed_rejected(self, system):
        with pytest.raises(ValueError):
            RealTimeExecutor(system, speed=-1.0)

    def test_pacing_sleeps_toward_wall_schedule(self, system):
        clock = {"now": 0.0}
        slept = []

        def fake_clock():
            return clock["now"]

        def fake_sleep(chunk):
            slept.append(chunk)
            clock["now"] += chunk

        system.sim.schedule(1.0, lambda s: None)
        executor = RealTimeExecutor(system, speed=2.0, clock=fake_clock,
                                    sleep=fake_sleep)
        assert executor.run(2.0) == "completed"
        # 2 simulated seconds at speed 2 is one wall second, slept in
        # poll-interval chunks.
        assert abs(sum(slept) - 1.0) < 1e-9
        assert executor.stats.events == 1


# --------------------------------------------------------------------------- #
# Checkpoint / restart without loss
# --------------------------------------------------------------------------- #
class TestRestartWithoutLoss:
    def test_drain_then_restart_matches_batch_bytes(self, tmp_path):
        reference = _batch_reference(tmp_path)
        out = tmp_path / "live"
        service = _service(out)
        service.start()
        # Deterministic interruption: drain exactly at event 400 (the
        # barrier hook runs inside the kernel, the executor notices the
        # flag before the next event fires).
        service.system.sim.at_fired(400, lambda s: service.request_drain())
        assert service.run() == "drained"
        assert service.system.sim.fired_count == 400
        assert service.checkpoints_written >= 1
        assert not read_journal(str(out / "journal.jsonl")).complete

        restarted = _service(out)
        restarted.start()
        assert restarted.resumed
        assert restarted.system.sim.fired_count == 400
        assert restarted.run() == "completed"
        assert _live_journal(str(out)) == reference

    def test_periodic_checkpoints_on_wall_cadence(self, tmp_path):
        out = tmp_path / "live"
        service = _service(out, checkpoint_every=0.01, poll_interval=0.0,
                           until=2.0)
        service.start()
        assert service.run() == "completed"
        assert service.checkpoints_written >= 1
        assert os.path.exists(str(out / "checkpoint.json"))

    def test_wrong_scenario_in_state_dir_rejected(self, tmp_path):
        from repro.persistence import CheckpointError

        out = tmp_path / "live"
        service = _service(out)
        service.start()
        service.system.sim.at_fired(100, lambda s: service.request_drain())
        service.run()

        other = LiveService(ScenarioSpec(name="control-outage"), str(out),
                            speed=0.0, port=None)
        with pytest.raises(CheckpointError):
            other.start()


# --------------------------------------------------------------------------- #
# Telemetry server
# --------------------------------------------------------------------------- #
def _get(url, timeout=10):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


class TestTelemetryServer:
    def test_scrape_while_running(self, tmp_path):
        reference = _batch_reference(tmp_path)
        out = tmp_path / "live"
        service = _service(out, port=0, speed=4.0)
        service.start()
        url = service.server.url
        worker = threading.Thread(target=service.run)
        worker.start()
        try:
            code, metrics = _get(url + "/metrics")
            assert code == 200
            assert "repro_" in metrics

            code, health = _get(url + "/healthz")
            assert code == 200
            data = json.loads(health)
            assert data["status"] == "ok"
            assert "fired_events" in data

            code, status = _get(url + "/status")
            assert code == 200
            assert json.loads(status)["scenario"]["name"] == SCENARIO

            code, dashboard = _get(url + "/dashboard")
            assert code == 200
            assert "http-equiv=\"refresh\"" in dashboard

            code, _ = _get(url + "/nope")
            assert code == 404
        finally:
            service.request_drain()
            worker.join(timeout=30)
        assert not worker.is_alive()
        # Scraping is a pure read: the drained-then-restarted journal
        # still matches the batch reference byte for byte.
        restarted = _service(out)
        restarted.start()
        restarted.run()
        assert _live_journal(str(out)) == reference


    def test_dashboard_shows_the_causal_chain(self, tmp_path):
        # The dashboard's incident entry is the report's incident section:
        # from the first event boundary after a strict SLO breach the
        # flight recorder has a diagnosis, and its chain rows render.
        # Rendering mid-run is a pure read: digest and journal unchanged.
        from repro.persistence import describe_scenario
        from repro.persistence.snapshot import system_digest

        spec = describe_scenario("smart-city-partition").spec(
            True, monitored=True, strict=True)

        def run(out, render):
            service = LiveService(spec, str(out), speed=0.0, port=None,
                                  checkpoint_every=3600.0)
            service.start()
            dashboards = []
            should_stop = service._should_stop

            def boundary():
                if (render and len(dashboards) < 3
                        and service.flight.diagnosis is not None):
                    dashboards.append(service.render_dashboard())
                return should_stop()

            service._should_stop = boundary
            assert service.run() == "completed"
            return (system_digest(service.system), _live_journal(str(out)),
                    dashboards)

        digest, journal, dashboards = run(tmp_path / "rendered", True)
        assert (digest, journal) == run(tmp_path / "plain", False)[:2]
        assert len(dashboards) == 3
        for dashboard in dashboards:
            assert "<h2>Incident causal chain</h2>" in dashboard
            assert "<td>fault:cloud-outage</td>" in dashboard
            assert "Trigger: slo-breach" in dashboard


# --------------------------------------------------------------------------- #
# Hot reconfiguration
# --------------------------------------------------------------------------- #
FAULT_PAYLOAD = {
    "kind": "fault-schedule",
    "faults": [{"kind": "latency", "at": 0.5, "duration": 1.0,
                "target": "edge0:cloud"}],
}


class TestHotReload:
    def test_payload_validation(self):
        with pytest.raises(LiveLoadError):
            validate_payload({"kind": "nope"})
        with pytest.raises(LiveLoadError):
            validate_payload({"kind": "fault-schedule", "faults": []})
        with pytest.raises(LiveLoadError):
            validate_payload({"kind": "fault-schedule",
                             "faults": [{"kind": "crash", "at": -1.0,
                                         "target": "edge0"}]})
        normalized = validate_payload(FAULT_PAYLOAD)
        assert normalized["kind"] == "fault-schedule"

    @pytest.mark.parametrize("fault,problem", [
        ({"duration": -5.0}, "'faults[0].duration' is not"),
        ({"at": float("nan")}, "'faults[0].at' is not"),
        ({"target": "edge0"}, "'a:b' node pair"),
    ], ids=["negative-duration", "nan-at", "unpaired-latency-target"])
    def test_payload_fault_domain_is_the_specs(self, fault, problem):
        """A hot-loaded fault is refused wherever the same fault in a spec
        would be: both read :data:`repro.chaos.spec.FAULT`."""
        from repro.chaos import ChaosSpec

        entry = {**FAULT_PAYLOAD["faults"][0], **fault}
        with pytest.raises(LiveLoadError, match=re.escape(problem)):
            validate_payload({"kind": "fault-schedule", "faults": [entry]})
        with pytest.raises(ValueError, match=re.escape(problem)):
            ChaosSpec.from_dict({"faults": [entry]})

    def test_hot_load_journaled_and_replayable(self, tmp_path):
        out = tmp_path / "live"
        service = _service(out)
        service.start()
        service.system.sim.at_fired(
            300, lambda s: service.hot_load(FAULT_PAYLOAD))
        assert service.run() == "completed"
        assert len(service.hot_loads_applied) == 1
        assert service.hot_loads_applied[0]["fired"] == 300

        journal = read_journal(str(out / "journal.jsonl"))
        reconfigs = journal.reconfigs()
        assert len(reconfigs) == 1
        assert reconfigs[0]["i"] == 300

        report = replay_journal(str(out / "journal.jsonl"), until=UNTIL)
        assert report.ok
        assert report.extra == {"reconfigs_applied": 1}

    def test_hot_load_then_drain_then_resume(self, tmp_path):
        out = tmp_path / "live"
        service = _service(out)
        service.start()
        service.system.sim.at_fired(
            300, lambda s: service.hot_load(FAULT_PAYLOAD))
        service.system.sim.at_fired(500, lambda s: service.request_drain())
        assert service.run() == "drained"

        restarted = _service(out)
        restarted.start()
        assert restarted.resumed
        # The checkpoint spec carries the load, so the resumed run
        # replays it at the same barrier.
        assert restarted.spec.params["live_loads"][0]["fired"] == 300
        assert restarted.run() == "completed"
        report = replay_journal(str(out / "journal.jsonl"), until=UNTIL)
        assert report.ok

    def test_hot_load_changes_the_event_stream(self, tmp_path):
        reference = _batch_reference(tmp_path)
        out = tmp_path / "live"
        service = _service(out)
        service.start()
        service.system.sim.at_fired(
            300, lambda s: service.hot_load(FAULT_PAYLOAD))
        service.run()
        assert _live_journal(str(out)) != reference

    def test_reload_directory_applies_and_rejects(self, tmp_path):
        out = tmp_path / "live"
        reload_dir = tmp_path / "reload"
        reload_dir.mkdir()
        (reload_dir / "01-faults.json").write_text(json.dumps(FAULT_PAYLOAD))
        (reload_dir / "02-broken.json").write_text("{\"kind\": \"nope\"}")

        service = _service(out, reload_dir=str(reload_dir))
        service.start()
        service.system.sim.at_fired(
            300, lambda s: service.poll_reload_dir())
        assert service.run() == "completed"
        assert len(service.hot_loads_applied) == 1
        assert (reload_dir / "01-faults.json.applied").exists()
        assert (reload_dir / "02-broken.json.rejected").exists()
        assert "nope" in (reload_dir / "02-broken.json.error").read_text()

    def test_chaos_spec_payload_applies(self, tmp_path):
        out = tmp_path / "live"
        service = _service(out)
        service.start()
        payload = {
            "kind": "chaos-spec",
            "spec": {"faults": [{"kind": "latency", "at": 0.5,
                                 "duration": 1.0,
                                 "target": "edge0:cloud"}]},
        }
        service.system.sim.at_fired(200, lambda s: service.hot_load(payload))
        assert service.run() == "completed"
        assert service.hot_loads_applied[0]["kind"] == "chaos-spec"
        assert replay_journal(str(out / "journal.jsonl"), until=UNTIL).ok


# --------------------------------------------------------------------------- #
# Signals
# --------------------------------------------------------------------------- #
class TestSignals:
    def test_sigterm_drains_with_final_checkpoint(self, tmp_path):
        from repro.cli import cmd_live

        out = str(tmp_path / "live")
        timer = threading.Timer(
            0.4, os.kill, args=(os.getpid(), signal.SIGTERM))
        timer.start()
        try:
            code = cmd_live(False, scenario=SCENARIO, out=out, speed=2.0,
                            port=0, checkpoint_every=3600.0, until=UNTIL)
        finally:
            timer.cancel()
        assert code == 128 + signal.SIGTERM
        assert os.path.exists(os.path.join(out, "checkpoint.json"))
        assert not read_journal(os.path.join(out, "journal.jsonl")).complete

        # Restart on the same directory completes and verifies clean.
        code = cmd_live(False, scenario=SCENARIO, out=out, speed=0.0,
                        port=None, checkpoint_every=3600.0, until=UNTIL)
        assert code == 0
        assert replay_journal(os.path.join(out, "journal.jsonl"),
                              until=UNTIL).ok

    def test_sigterm_after_completion_keeps_exit_zero(self, tmp_path):
        """A signal landing while a completed run's tables print is
        drained, not fatal: outcome ``completed``, exit 0."""
        import subprocess
        import sys
        import textwrap

        program = textwrap.dedent("""
            import os, signal, sys
            from types import SimpleNamespace
            import repro.live
            from repro.cli import cmd_live

            class _Stats:
                wall_s = slept_s = max_lag_s = 0.0
                def to_dict(self):
                    return {}

            class _Completed:
                horizon = 1.0
                resumed = False
                checkpoints_written = 0
                def __init__(self, spec, out, **kwargs):
                    self.executor = SimpleNamespace(stats=_Stats())
                    self.system = SimpleNamespace(
                        sim=SimpleNamespace(now=1.0, fired_count=0))
                def start(self, log):
                    pass
                def run(self):
                    return "completed"
                def request_drain(self):
                    pass
                @property
                def hot_loads_applied(self):
                    os.kill(os.getpid(), signal.SIGTERM)
                    return []

            repro.live.LiveService = _Completed
            sys.exit(cmd_live(scenario="traffic-retry-storm",
                              out=sys.argv[1], port=None))
        """)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", program, str(tmp_path / "live")],
            capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "completed" in done.stdout

    def test_batch_signal_flushes_harness_crash_incident(self, tmp_path,
                                                         monkeypatch):
        import repro.cli as cli
        import repro.persistence.runner as runner

        def interrupted(system, horizon):
            system.run(until=min(2.0, horizon))
            os.kill(os.getpid(), signal.SIGINT)
            system.run(until=horizon)   # unreachable: handler raises

        monkeypatch.setattr(runner, "drive", interrupted)
        out = str(tmp_path / "out")
        code = cli.main(["monitor", "smart-city-partition", "--quick",
                         "--out", out])
        assert code == 130
        manifest = os.path.join(out, "incidents", "smart-city-partition",
                                "manifest.json")
        assert os.path.exists(manifest)
        with open(manifest, encoding="utf-8") as fh:
            data = json.load(fh)
        assert data["diagnosis"]["trigger_reason"] == "harness-crash"
