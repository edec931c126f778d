"""Smoke tests for the CLI front-end."""

import json
import re
import shutil

import pytest

from repro import cli
from repro.cli import main
from repro.persistence import resume_run, state_digest


class TestCli:
    def test_verify_command(self, capsys):
        assert main(["verify", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out
        assert "analytic availability" in out

    def test_maturity_quick(self, capsys):
        assert main(["maturity", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "resilience score" in out
        assert "ML4" in out

    def test_landscape_quick(self, capsys):
        assert main(["landscape", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "edge vs cloud" in out
        assert "during" in out

    @pytest.mark.parametrize("command,title", [
        ("ablations", "removing one ML4 mechanism at a time"),
        ("sweep", "vs disruption intensity"),
        ("mechanisms", "Gossip convergence time"),
    ])
    def test_paper_artifact_gated(self, command, title, capsys):
        assert main([command]) == 0
        out = capsys.readouterr().out
        assert title in out
        assert "PAPER GATE: OK" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["warp-drive"])


class TestTraceCommand:
    def test_trace_writes_artifacts(self, tmp_path, capsys):
        assert main(["trace", "smart-city-partition", "--quick",
                     "--out", str(tmp_path)]) == 0
        for artifact in ("spans.jsonl", "events.jsonl", "trace.chrome.json",
                         "metrics.json", "profile.json"):
            assert (tmp_path / artifact).exists(), artifact
        out = capsys.readouterr().out
        assert "spans (JSONL)" in out
        assert "causal summary" in out

    def test_recovery_spans_join_injection_traces(self, tmp_path, capsys):
        main(["trace", "smart-city-partition", "--quick",
              "--out", str(tmp_path)])
        spans = [json.loads(line)
                 for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
        injected = {s["trace_id"] for s in spans if s["category"] == "injection"}
        recoveries = [s for s in spans if s["category"] == "recovery"]
        assert injected and recoveries
        for span in recoveries:
            assert span["trace_id"] in injected

    def test_chrome_trace_is_loadable_json(self, tmp_path, capsys):
        main(["trace", "smart-city-partition", "--quick",
              "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "trace.chrome.json").read_text())
        phases = {r["ph"] for r in doc["traceEvents"]}
        assert {"M", "X"} <= phases

    def test_trace_mape_outage_scenario(self, tmp_path, capsys):
        assert main(["trace", "mape-outage", "--quick",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "spans.jsonl").stat().st_size > 0

    def test_unknown_scenario_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "warp-core-breach", "--out", str(tmp_path)])

    def test_json_output_mode(self, capsys):
        assert main(["verify", "--quick", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tables"]
        table = doc["tables"][0]
        assert set(table) == {"title", "headers", "rows"}

    def test_json_mode_trace(self, tmp_path, capsys):
        assert main(["trace", "smart-city-partition", "--quick", "--json",
                     "--out", str(tmp_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        titles = " ".join(t["title"] for t in doc["tables"])
        assert "smart-city-partition" in titles
        assert "causal summary" in titles


class TestMonitorCommand:
    def test_monitor_passes_nonstrict_gate(self, capsys):
        assert main(["monitor", "smart-city-partition", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "resilience KPIs by disruption vector" in out
        assert "SLO GATE: OK" in out

    def test_monitor_strict_breaches_and_exits_nonzero(self, capsys):
        assert main(["monitor", "smart-city-partition", "--quick",
                     "--strict"]) == 1
        out = capsys.readouterr().out
        assert "cloud-reachability" in out
        assert "BREACH" in out
        assert "SLO GATE: FAIL" in out

    def test_monitor_json_emits_kpis_per_vector(self, capsys):
        assert main(["--json", "monitor", "smart-city-partition",
                     "--quick"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["exit_code"] == 0
        kpis = next(t["data"] for t in doc["tables"]
                    if t.get("title") == "monitor: kpis")
        vectors = kpis["vectors"]
        assert "pervasiveness" in vectors and "services" in vectors
        arc = vectors["pervasiveness"]
        assert arc["mttd_mean"] is not None
        assert arc["mttr_mean"] is not None
        assert kpis["availability"] is not None
        assert "convergence" in kpis
        slos = next(t["data"] for t in doc["tables"]
                    if t.get("title") == "monitor: slos")
        assert slos["evaluations"] > 0

    def test_monitor_json_strict_reports_breach_exit(self, capsys):
        assert main(["--json", "monitor", "smart-city-partition", "--quick",
                     "--strict"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["exit_code"] == 1

    def test_monitor_mape_outage_scenario(self, capsys):
        assert main(["monitor", "mape-outage", "--quick"]) == 0
        assert "SLO GATE: OK" in capsys.readouterr().out


class TestReportCommand:
    def test_report_writes_artifacts(self, tmp_path, capsys):
        assert main(["report", "smart-city-partition", "--quick",
                     "--out", str(tmp_path)]) == 0
        html = (tmp_path / "resilience-report.html").read_text()
        assert "<html" in html and "pervasiveness" in html
        prom = (tmp_path / "metrics.prom").read_text()
        assert "# TYPE" in prom
        kpis = json.loads((tmp_path / "kpis.json").read_text())
        assert "kpis" in kpis and "slos" in kpis


    def test_trajectory_ends_at_the_highest_numbered_baseline(
            self, tmp_path, monkeypatch):
        # By name BENCH_10 sorts before BENCH_2; the newest is the highest.
        for number in (2, 10):
            (tmp_path / f"BENCH_{number}.json").write_text(json.dumps(
                {"benches": {"kernel": {"events": float(number)}}}))
        (tmp_path / "BENCH_old.json").write_text("{}")
        monkeypatch.setattr(cli, "_BASELINE_DIR", str(tmp_path))
        assert cli._bench_trajectory_rows_if_available() == [
            ["kernel.events", 2.0, 10.0, 8.0, "+400.0%"]]


class TestTrafficCommand:
    def test_overload_gate_passes(self, capsys):
        assert main(["traffic", "overload", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "TRAFFIC GATE: OK" in out
        assert "admission" in out

    def test_retry_storm_gate_passes(self, capsys):
        assert main(["traffic", "retry-storm", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "TRAFFIC GATE: OK" in out

    def test_json_mode_reports_all_variants(self, capsys):
        assert main(["traffic", "overload", "--quick", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["exit_code"] == 0
        data = next(t for t in doc["tables"]
                    if t.get("title") == "traffic: overload")
        variants = [r["variant"] for r in data["data"]["results"]]
        assert variants == ["naive", "admission", "adaptive"]

    def test_json_output_deterministic(self, capsys):
        assert main(["traffic", "retry-storm", "--quick", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["traffic", "retry-storm", "--quick", "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_unknown_traffic_scenario_exits(self):
        with pytest.raises(SystemExit):
            main(["traffic", "mape-outage"])


class TestScenariosCommand:
    def test_list_prints_unified_registry(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("chaos", "traffic-overload", "smart-city-partition",
                     "security-sybil-flood"):
            assert name in out

    def test_list_json_carries_planes_and_variants(self, capsys):
        assert main(["scenarios", "list", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        data = next(t for t in doc["tables"]
                    if t.get("title") == "scenarios")
        rows = {row["name"]: row for row in data["data"]["scenarios"]}
        assert rows["traffic-overload"]["plane"] == "traffic"
        assert "admission" in rows["traffic-overload"]["variants"]
        assert rows["chaos"]["plane"] == "chaos"

    def test_rejects_unknown_verb(self):
        with pytest.raises(SystemExit):
            main(["scenarios", "run"])


class TestUnknownScenarioHandling:
    def _forged_journal(self, tmp_path, name="no-such-scenario"):
        header = {"type": "header", "version": 1, "digest_every": 0,
                  "scenario": {"name": name, "seed": 1, "params": {}}}
        (tmp_path / "journal.jsonl").write_text(json.dumps(header) + "\n")

    def test_replay_of_unknown_scenario_exits_2_with_listing(
            self, tmp_path, capsys):
        self._forged_journal(tmp_path)
        assert main(["replay", "--out", str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert "unknown scenario 'no-such-scenario'" in out
        assert "available scenarios" in out
        assert "smart-city-partition" in out
        assert "Traceback" not in out

    def test_json_mode_reports_available_scenarios(self, tmp_path, capsys):
        self._forged_journal(tmp_path)
        assert main(["--json", "replay", "--out", str(tmp_path)]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["exit_code"] == 2
        error = next(t for t in doc["tables"] if t.get("title") == "error")
        assert "chaos" in error["data"]["available"]


def _sealed(payload):
    """A checkpoint document whose integrity hash matches ``payload``."""
    return {"payload": payload, "integrity": state_digest(payload)}


_HEADER = ('{"type":"header","version":1,"digest_every":25,'
           '"scenario":{"name":"control-outage","seed":%s,"params":{}}}')


class TestBadRunDirectories:
    """A missing, truncated or garbled run directory fails closed."""

    def _assert_classified(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.out + captured.err
        return captured

    @pytest.mark.parametrize("verb", ["resume", "replay"])
    def test_missing_directory_exits_2(self, verb, tmp_path, capsys):
        self._assert_classified(
            [verb, "--out", str(tmp_path / "nope")], capsys)

    def test_truncated_checkpoint_exits_2(self, tmp_path, capsys):
        assert main(["checkpoint", "control-outage", "--at", "10",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        path = tmp_path / "checkpoint.json"
        path.write_text(path.read_text()[:200])
        self._assert_classified(["resume", "--out", str(tmp_path)], capsys)

    def test_headerless_journal_exits_2(self, tmp_path, capsys):
        (tmp_path / "journal.jsonl").write_text(
            '{"type":"event","i":1,"t":0.5,"label":"x"}\n')
        self._assert_classified(["replay", "--out", str(tmp_path)], capsys)

    @pytest.mark.parametrize("document", [
        [],                                       # not an object at all
        _sealed([]),                              # payload not an object
        _sealed({"version": 1}),                  # no barrier, no spec
        *(_sealed({"version": 1, "time": 1.0, "fired": 1, "digest": "d",
                   "scenario": scenario})
          for scenario in ({"name": "control-outage", "seed": "abc"},
                           {"name": "control-outage", "seed": 2.9},
                           {"name": "control-outage", "seed": True},
                           {"name": 5})),
        _sealed({"version": 1, "time": 1.0, "fired": "many", "digest": "d",
                 "scenario": {"name": "control-outage"}}),
    ], ids=["list", "payload-list", "no-barrier", "bad-seed", "seed-float",
            "seed-bool", "name-int", "bad-fired"])
    def test_wrong_shape_checkpoint_exits_2(self, document, tmp_path, capsys):
        """Well-formed JSON of the wrong shape -- valid integrity hash
        included -- is a classified error, like a truncated file."""
        (tmp_path / "checkpoint.json").write_text(json.dumps(document))
        captured = self._assert_classified(
            ["resume", "--out", str(tmp_path)], capsys)
        assert "checkpoint" in captured.err
        assert "digest mismatch" not in captured.err    # refused at load

    @pytest.mark.parametrize("lines", [
        ["[]"],                                                # header
        ["7"],
        [_HEADER % "7", "[]"],                                 # a record
        [_HEADER % "7", '{"type":"event","i":1,"t":0.5,"label":"x"}', "7",
         '{"type":"event","i":2,"t":0.6,"label":"y"}'],
        *([_HEADER % seed] for seed in ('"abc"', "2.9", "true")),
        *([_HEADER.replace(":25,", f":{every},") % "7"]
          for every in ('"x"', "1e999", "true", "-1", "null", "2.5")),
    ], ids=["header-list", "header-int", "record-list", "record-int",
            "bad-seed", "seed-float", "seed-bool", "every-str", "every-inf",
            "every-bool", "every-negative", "every-null", "every-float"])
    def test_wrong_shape_journal_exits_2(self, lines, tmp_path, capsys):
        (tmp_path / "journal.jsonl").write_text("\n".join(lines) + "\n")
        captured = self._assert_classified(
            ["replay", "--out", str(tmp_path)], capsys)
        assert "journal" in captured.err

    @pytest.mark.parametrize("params,problem", [
        ({"horizon": "x"}, "'horizon' is not a finite number > 0: 'x'"),
        ({"variant": "bogus"}, "unknown variant 'bogus'"),
        ({"users": 2.5}, "'users' is not an integer >= 1: 2.5"),
    ], ids=["horizon-str", "variant-unknown", "users-float"])
    @pytest.mark.parametrize("verb", ["resume", "replay"])
    def test_undeclared_scenario_params_exit_2(self, verb, params, problem,
                                               tmp_path, capsys):
        """A spec's params are checked against the scenario's declaration
        once, before anything is built: never a builder's traceback or a
        silent ``int()`` truncation reported as a divergence."""
        scenario = {"name": "traffic-overload", "seed": None,
                    "params": params}
        if verb == "replay":
            (tmp_path / "journal.jsonl").write_text(json.dumps(
                {"type": "header", "version": 1, "digest_every": 0,
                 "scenario": scenario}) + "\n")
        else:
            (tmp_path / "checkpoint.json").write_text(json.dumps(_sealed(
                {"version": 1, "time": 1.0, "fired": 1, "digest": "d",
                 "scenario": scenario})))
        captured = self._assert_classified([verb, "--out", str(tmp_path)],
                                           capsys)
        assert f"traffic-overload params: {problem}" in captured.err

    def test_wrong_shape_journal_fails_resume_closed(self, tmp_path, capsys):
        assert main(["checkpoint", "control-outage", "--at", "10",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        with open(tmp_path / "journal.jsonl", "a") as fh:
            fh.write("[]\n")
        self._assert_classified(["resume", "--out", str(tmp_path)], capsys)

    @pytest.fixture(scope="class")
    def checkpointed_run(self, tmp_path_factory):
        """``control-outage`` checkpointed mid-horizon; line 6 is an event."""
        out = tmp_path_factory.mktemp("checkpointed-run")
        assert main(["checkpoint", "control-outage", "--quick", "--at", "45",
                     "--out", str(out)]) == 0
        return out

    @staticmethod
    def _with_line_6_edited(run, out, pattern, replacement):
        shutil.copytree(run, out)
        lines = (out / "journal.jsonl").read_text().splitlines()
        lines[5], edits = re.subn(pattern, replacement, lines[5])
        assert edits == 1
        (out / "journal.jsonl").write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("pattern,replacement,problem", [
        (r'"i":\d+', '"i":"x"', "'i' is not an integer"),
        (r'"i":\d+', '"i":null', "'i' is not an integer"),
        (r'"i":\d+', '"i":3.5', "'i' is not an integer"),
        (r'"i":\d+', '"i":true', "'i' is not an integer"),
        (r'"t":[^,]+', '"t":"soon"', "'t' is not a number"),
        (r'"t":[^,]+', '"t":false', "'t' is not a number"),
        (r'"type":"event"', '"type":"evnt"', "unknown record type 'evnt'"),
        (r',"type":"event"', '', "unknown record type None"),
    ], ids=["i-str", "i-null", "i-float", "i-bool", "t-str", "t-bool",
            "type-unknown", "type-missing"])
    def test_wrong_typed_journal_field_exits_2(self, pattern, replacement,
                                               problem, checkpointed_run,
                                               tmp_path, capsys):
        """A well-shaped record with a wrong-typed ``i``/``t``/``type`` is
        a malformed file for both readers (``truncate`` and the replay
        diff), not an ``int()`` traceback or a silent coercion."""
        out = tmp_path / "run"
        self._with_line_6_edited(checkpointed_run, out, pattern, replacement)
        capsys.readouterr()
        for verb in ("resume", "replay"):
            captured = self._assert_classified(
                [verb, "--out", str(out)], capsys)
            assert f"journal.jsonl: line 6: {problem}" in captured.err

    @pytest.mark.parametrize("edit,problem", [
        ({"fired": float("inf")}, "'fired' is not a non-negative integer: inf"),
        ({"fired": True}, "'fired' is not a non-negative integer: True"),
        ({"fired": 2.7}, "'fired' is not a non-negative integer: 2.7"),
        ({"fired": -1}, "'fired' is not a non-negative integer: -1"),
        ({"digest_every": float("inf")}, "'digest_every' is not a"),
        ({"digest_every": True}, "'digest_every' is not a"),
        ({"time": float("nan")}, "'time' is not a finite number: nan"),
        ({"time": float("-inf")}, "'time' is not a finite number: -inf"),
        ({"time": 10 ** 400}, "malformed checkpoint payload"),
        ("undercount", "cannot reach the barrier t=45 after fired="),
    ], ids=["fired-inf", "fired-bool", "fired-float", "fired-negative",
            "every-inf", "every-bool", "time-nan", "time-inf", "time-huge",
            "fired-undercount"])
    def test_resealed_checkpoint_with_a_bad_barrier_exits_2(
            self, edit, problem, checkpointed_run, tmp_path, capsys):
        """An integrity-resealed checkpoint whose barrier is not a count
        and a finite time, or undercounts the events before its time, is
        refused at load or at fast-forward -- no traceback."""
        out = tmp_path / "run"
        shutil.copytree(checkpointed_run, out)
        path = out / "checkpoint.json"
        payload = json.loads(path.read_text())["payload"]
        if edit == "undercount":
            edit = {"fired": payload["fired"] - 5}
        path.write_text(json.dumps(_sealed({**payload, **edit})))
        capsys.readouterr()
        captured = self._assert_classified(["resume", "--out", str(out)],
                                           capsys)
        assert problem in captured.err

    def test_wrong_valued_journal_field_is_a_divergence(
            self, checkpointed_run, tmp_path, capsys):
        """A wrong *value* of the right type is for replay to find."""
        out = tmp_path / "run"
        self._with_line_6_edited(checkpointed_run, out, r'"t":', '"t":1')
        capsys.readouterr()
        assert main(["replay", "--out", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err

    def test_resume_without_a_journal_names_none(self, tmp_path, capsys):
        assert main(["checkpoint", "control-outage", "--at", "10",
                     "--out", str(tmp_path)]) == 0
        (tmp_path / "journal.jsonl").unlink()
        capsys.readouterr()
        assert main(["resume", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^journal +- *$", out, re.M)
        assert "journal.jsonl" not in out
        assert resume_run(directory=str(tmp_path)).journal_path is None

    def test_json_mode_reports_the_error(self, tmp_path, capsys):
        assert main(["--json", "resume",
                     "--out", str(tmp_path / "nope")]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["exit_code"] == 2
        error = next(t for t in doc["tables"] if t.get("title") == "error")
        assert "checkpoint.json" in error["data"]["error"]

    @pytest.mark.parametrize("argv,code,reason", [
        (["incident", "show", "/nonexistent"], 2, "not an incident bundle"),
        (["incident", "replay", "/nonexistent"], 2, "not an incident bundle"),
        (["profile", "diff", "/a", "/b"], 2, "cannot load snapshot"),
        (["chaos", "shrink", "/nonexistent"], 2, "cannot load a spec"),
    ])
    def test_json_mode_reports_every_verbs_error(self, argv, code, reason,
                                                 capsys):
        assert main(["--json", *argv]) == code
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["exit_code"] == code
        error = next(t for t in doc["tables"] if t.get("title") == "error")
        assert reason in error["data"]["error"]
        assert captured.err == f"error: {error['data']['error']}\n"

    @pytest.mark.parametrize("verb", ["show", "replay"])
    @pytest.mark.parametrize("manifest", [
        5, "trigger barrier", {"trigger": 1, "barrier": {}},
        {"trigger": {"reason": "gate-failure", "time": 1.0},
         "barrier": {"time": 1.0, "fired": 3, "digest": 7}},
    ], ids=["int", "str", "trigger-int", "digest-int"])
    def test_wrong_shape_incident_manifest_exits_2(self, verb, manifest,
                                                   tmp_path, capsys):
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        captured = self._assert_classified(
            ["incident", verb, str(tmp_path)], capsys)
        assert "incident: " in captured.err
        assert "malformed manifest" in captured.err

    def test_json_mode_reports_disjoint_profile_snapshots(self, tmp_path,
                                                          capsys):
        for name, scenario in (("a", "one"), ("b", "two")):
            (tmp_path / f"{name}.json").write_text(json.dumps(
                {"benches": {}, "profiles": {scenario: {}, "other": {}}
                 if name == "a" else {scenario: {}}}))
        assert main(["--json", "profile", "diff", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json")]) == 2
        doc = json.loads(capsys.readouterr().out)
        error = next(t for t in doc["tables"] if t.get("title") == "error")
        assert "share no profiled scenarios" in error["data"]["error"]

    @pytest.mark.parametrize("document,problem", [
        ([1, 2], "not a JSON object"),
        ({"planes": 7, "kernel": {"events": "x"}}, "'planes' is not an object"),
        ({"kernel": 3}, "'kernel' is not an object"),
    ], ids=["list", "planes-int", "kernel-int"])
    def test_wrong_shape_profile_exits_2(self, document, problem, tmp_path,
                                         capsys):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text("{}")
        bad.write_text(json.dumps(document))
        captured = self._assert_classified(
            ["profile", "diff", str(good), str(bad)], capsys)
        assert f"error: profile: cannot load snapshot: {bad}: {problem}" \
            in captured.err

    @pytest.mark.parametrize("document,problem", [
        ([], "(not a JSON object)"),
        ({"topology": 5}, "'topology' is not an object: 5"),
        ({"traffic": "x"}, "'traffic' is not an object: 'x'"),
        ({"adversary": [1]}, "'adversary' is not an object: [1]"),
        ({"faults": {"kind": "crash"}}, "'faults' is not a list"),
        ({"faults": [5]}, "'faults[0]' is not an object: 5"),
        ({"faults": [{"kind": "crash"}]}, "'faults[0].at' is missing"),
        ({"topology": {"sites": None}},
         "'topology.sites' is not an integer >= 2: None"),
        ({"horizon": "soon"}, "'horizon' is not a finite number > 0: 'soon'"),
        ({"horizon": -1}, "'horizon' is not a finite number > 0: -1"),
        ({"horizon": float("nan")}, "'horizon' is not a finite number"),
        ({"maturity": True, "seed": 2.9}, "unknown maturity True"),
        ({"seed": 2.9}, "'seed' is not an integer: 2.9"),
        ({"traffic": {"pattern": "steady", "users": "5"}},
         "'traffic.users' is not a non-negative integer: '5'"),
        ({"faults": [{"kind": "crash", "at": float("nan"), "duration": 1.0,
                      "target": "edge0"}]}, "'faults[0].at' is not"),
        ({"faults": [{"kind": "crash", "at": 1.0, "duration": float("nan"),
                      "target": "edge0"}]}, "'faults[0].duration' is not"),
    ], ids=["list", "axis-int", "axis-str", "axis-list", "faults-object",
            "fault-int", "fault-key", "null-field", "str-field",
            "out-of-domain", "horizon-nan", "maturity-bool", "seed-float",
            "users-str", "fault-at-nan", "fault-duration-nan"])
    def test_wrong_shape_chaos_spec_exits_2(self, document, problem,
                                            tmp_path, capsys):
        """A ChaosSpec of the wrong shape names its field; one that loads
        but is out of its domain is refused before shrinking starts."""
        (tmp_path / "spec.json").write_text(json.dumps(document))
        captured = self._assert_classified(
            ["chaos", "shrink", str(tmp_path / "spec.json"),
             "--out", str(tmp_path / "out")], capsys)
        assert problem in captured.err
        assert not (tmp_path / "out").exists()

    def test_wrong_shape_bundle_spec_fails_the_corpus_closed(self, tmp_path,
                                                             capsys):
        from repro.chaos import ChaosSpec, emit_bundle

        bundle = emit_bundle(ChaosSpec(horizon=2.0), str(tmp_path))
        with open(f"{bundle}/spec.json", "w") as fh:
            fh.write("[]\n")
        captured = self._assert_classified(
            ["chaos", "corpus", "--corpus", str(tmp_path)], capsys)
        assert "(not a JSON object)" in captured.err

    def test_shard_verbs_share_the_classification(self, tmp_path, capsys):
        for verb in ("resume", "verify"):
            self._assert_classified(
                ["shard", verb, "--out", str(tmp_path / "nope")], capsys)

    @pytest.fixture(scope="class")
    def killed_federation(self, tmp_path_factory):
        """A two-shard run killed at window 4, checkpointed at window 4."""
        out = tmp_path_factory.mktemp("killed-federation")
        assert main(["shard", "run", "smart-city-federated", "--quick",
                     "--shards", "2", "--workers", "1",
                     "--checkpoint-every", "2", "--stop-after", "4",
                     "--out", str(out)]) == 0
        return out

    @pytest.mark.parametrize("line", [
        "[]",
        "7",
        '{"type":"inbox","window":"five","barrier":1.0,"envelopes":[]}',
        '{"type":"inbox","window":5,"barrier":1.0,"envelopes":{}}',
        '{"type":"inbox","barrier":1.0}',
    ], ids=["list", "int", "bad-window", "bad-envelopes", "no-fields"])
    def test_malformed_inbox_record_exits_2(self, line, killed_federation,
                                            tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(killed_federation, out)
        with open(out / "shard-0" / "inbox.jsonl", "a") as fh:
            fh.write(line + "\n")
        capsys.readouterr()
        for verb in ("resume", "verify"):      # truncate_inbox, read_inbox
            captured = self._assert_classified(
                ["shard", verb, "--out", str(out)], capsys)
            assert "inbox.jsonl" in captured.err

    @pytest.mark.parametrize("edit", [
        lambda env: {k: v for k, v in env.items() if k != "dst"},
        lambda env: {**env, "arrival": "soon"},
        lambda env: 7,
        lambda env: {**env, "seq": 2.5},
    ], ids=["no-dst", "arrival-str", "int", "seq-float"])
    def test_malformed_inbox_envelope_exits_2(self, edit, killed_federation,
                                              tmp_path, capsys):
        """An envelope a driver would inject is held to the wire shape
        when its inbox is read, not at ``Envelope.from_dict``."""
        out = tmp_path / "run"
        shutil.copytree(killed_federation, out)
        inbox = out / "shard-0" / "inbox.jsonl"
        envelope = next(record["envelopes"][0] for record in map(
            json.loads, inbox.read_text().splitlines())
            if record.get("envelopes"))
        with open(inbox, "a") as fh:
            fh.write(json.dumps({"type": "inbox", "window": 5, "barrier": 1.0,
                                 "envelopes": [edit(envelope)]}) + "\n")
        capsys.readouterr()
        for verb in ("resume", "verify"):
            captured = self._assert_classified(
                ["shard", verb, "--out", str(out)], capsys)
            assert "inbox.jsonl: line" in captured.err
            assert "'envelopes[0]" in captured.err

    def test_torn_final_inbox_line_is_tolerated(self, killed_federation,
                                                tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(killed_federation, out)
        with open(out / "shard-0" / "inbox.jsonl", "a") as fh:
            fh.write('{"type":"inbox","window":5,"barr')   # crash mid-append
        assert main(["shard", "resume", "--out", str(out)]) == 0
        assert main(["shard", "verify", "--out", str(out)]) == 0
        assert "SHARD VERIFY: MATCH" in capsys.readouterr().out

    @pytest.mark.parametrize("field,literal,problem", [
        ("lookahead", '"x"', "malformed header"),
        ("lookahead", "0", "malformed header"),
        ("lookahead", "null", "malformed header"),
        ("horizon", "-1", "malformed header"),
        ("horizon", "true", "malformed header"),
        ("horizon", "1e999", "malformed header"),      # parses as infinity
        ("horizon", "NaN", "malformed header"),
        # In range, but a grid the run never had: a billion barriers.
        ("lookahead", "1e-9", "the manifest says"),
        ("horizon", "1e12", "the manifest says"),
    ], ids=["str", "zero", "null", "negative", "bool", "infinite", "nan",
            "tiny-lookahead", "huge-horizon"])
    def test_hostile_inbox_header_exits_2(self, field, literal, problem,
                                          killed_federation, tmp_path,
                                          capsys):
        """The header's window grid is validated like the manifest's and
        must agree with it, so no barrier list is built from its word."""
        out = tmp_path / "run"
        shutil.copytree(killed_federation, out)
        inbox = out / "shard-0" / "inbox.jsonl"
        header, _, records = inbox.read_text().partition("\n")
        assert json.loads(header)["type"] == "fed-header"
        hostile, edits = re.subn(rf'"{field}":[^,}}]+',
                                 f'"{field}":{literal}', header)
        assert edits == 1
        inbox.write_text(hostile + "\n" + records)
        capsys.readouterr()
        for verb in ("resume", "verify"):
            captured = self._assert_classified(
                ["shard", verb, "--out", str(out)], capsys)
            assert "inbox.jsonl" in captured.err and field in captured.err
            assert problem in captured.err

    @pytest.mark.parametrize("field,value", [
        ("shards", "two"), ("workers", [1]), ("digest_every", "often"),
        ("checkpoint_every", None), ("lookahead", "0.375"),
        ("horizon", True), ("checkpoint_window", 4.5),
    ])
    def test_wrong_typed_manifest_field_exits_2(self, field, value,
                                                killed_federation, tmp_path,
                                                capsys):
        manifest = json.loads((killed_federation / "manifest.json").read_text())
        manifest[field] = value
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        for verb in ("resume", "verify"):
            captured = self._assert_classified(
                ["shard", verb, "--out", str(tmp_path)], capsys)
            assert "manifest.json" in captured.err and field in captured.err

    @pytest.mark.parametrize("field,value", [
        ("shards", 0), ("shards", -1), ("workers", 0), ("digest_every", -5),
        ("checkpoint_every", -1), ("lookahead", 0.0), ("lookahead", -0.375),
        ("horizon", -1.0), ("horizon", 0), ("horizon", float("inf")),
        ("horizon", float("nan")), ("checkpoint_window", -1),
    ])
    def test_out_of_range_manifest_field_exits_2(self, field, value,
                                                 killed_federation, tmp_path,
                                                 capsys):
        manifest = json.loads((killed_federation / "manifest.json").read_text())
        manifest[field] = value
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        for verb in ("resume", "verify"):
            captured = self._assert_classified(
                ["shard", verb, "--out", str(tmp_path)], capsys)
            assert "manifest.json" in captured.err and field in captured.err


def _usage_error(argv, capsys):
    """``argv`` must be refused by the parser: exit 2, usage on stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


class TestCommandTable:
    """The parser is generated from the command table."""

    def test_every_command_has_help_listing_only_its_own_flags(self, capsys):
        from repro.cli import command_table

        for row in command_table():
            with pytest.raises(SystemExit) as exc:
                main([*row.name.split(), "-h"])
            assert exc.value.code == 0, row.name
            text = capsys.readouterr().out
            assert row.help.split(";")[0][:40] in " ".join(text.split())
            flags = {flag for names, _ in row.args for flag in names
                     if flag.startswith("--")}
            # Option lines of the help: "  --flag ARG   ..." / "  -h, --help".
            shown = set(re.findall(r"^  (?:-h, )?(--[a-z-]+)", text, re.M))
            assert shown == flags | {"--help", "--quick", "--json", "--out"}, (
                row.name)

    def test_group_help_lists_verbs_not_foreign_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["shard", "-h"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for verb in ("run", "verify", "resume"):
            assert verb in text
        assert "--shards" in text and "--speed" not in text

    def test_top_level_help_lists_every_command(self, capsys):
        from repro.cli import command_table

        with pytest.raises(SystemExit):
            main(["-h"])
        text = capsys.readouterr().out
        for row in command_table():
            assert f"  {row.name} " in text

    @pytest.mark.parametrize("argv", [
        ["live", "--checkpoint-every", "0"],
        ["live", "--speed", "-1"],
        ["shard", "run", "--shards", "0"],
        ["shard", "run", "--checkpoint-every", "0.5"],
        ["shard", "verify", "--workers", "0", "--out", "x"],
        ["chaos", "run", "--runs", "0"],
    ])
    def test_out_of_range_flag_is_a_usage_error(self, argv, capsys):
        assert "invalid" in _usage_error(argv, capsys)

    def test_stray_positional_is_a_usage_error(self, tmp_path, capsys):
        err = _usage_error(["resume", "control-outage",
                            "--out", str(tmp_path)], capsys)
        assert "unrecognized arguments: control-outage" in err

    @pytest.mark.parametrize("argv", [
        ["maturity", "--shards", "9"],
        ["replay", "--speed", "3"],
        ["shard", "--shards", "3", "verify"],
    ])
    def test_foreign_flag_is_a_usage_error(self, argv, capsys):
        _usage_error(argv, capsys)

    def test_global_flags_before_or_after_the_command(self, capsys):
        assert main(["--json", "--quick", "verify"]) == 0
        before = capsys.readouterr().out
        assert main(["verify", "--quick", "--json"]) == 0
        assert capsys.readouterr().out == before

    def test_verb_group_defaults_to_its_default_verb(self, tmp_path, capsys):
        assert main(["scenarios"]) == 0
        assert "scenarios: unified registry" in capsys.readouterr().out
        assert main(["chaos", "--seed", "84", "--runs", "1",
                     "--out", str(tmp_path / "out"),
                     "--corpus", str(tmp_path / "corpus")]) == 0
        assert "0/1 specs violated" in capsys.readouterr().out

    def test_quick_means_the_scenarios_own_params_under_every_verb(
            self, tmp_path, capsys):
        assert main(["checkpoint", "traffic-retry-storm", "--quick",
                     "--at", "5", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        header = json.loads(
            (tmp_path / "journal.jsonl").read_text().splitlines()[0])
        assert header["scenario"]["params"] == {"horizon": 35.0}


class TestChaosCommand:
    def test_run_clean_campaign_writes_report(self, tmp_path, capsys):
        # Seed 84 case 0 passes, so a 1-run campaign is the cheap path:
        # no shrink, no bundle, empty corpus.
        assert main(["chaos", "run", "--seed", "84", "--runs", "1",
                     "--out", str(tmp_path / "out"),
                     "--corpus", str(tmp_path / "corpus")]) == 0
        out = capsys.readouterr().out
        assert "chaos campaign: cases" in out
        assert "0/1 specs violated" in out
        html = (tmp_path / "out" / "chaos-report.html").read_text()
        assert "Chaos campaign" in html

    def test_corpus_empty_is_ok(self, tmp_path, capsys):
        assert main(["chaos", "corpus",
                     "--corpus", str(tmp_path / "corpus")]) == 0
        assert "empty" in capsys.readouterr().out

    def test_shrink_missing_spec_exits_2(self, tmp_path, capsys):
        assert main(["chaos", "shrink", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_shrink_requires_path(self):
        with pytest.raises(SystemExit):
            main(["chaos", "shrink"])

    def test_rejects_unknown_verb(self):
        with pytest.raises(SystemExit):
            main(["chaos", "diff"])
