"""The one run-file reader: every file a run is rebuilt from is held to
its version, and a report skips a baseline it cannot read.

Each file stamps the version its writer wrote; a reader that meets any
other -- another integer, or a bool or float equal to 1 -- refuses the
file with ``<path>: unsupported <file> version <v> (want 1)``: exit 2,
one ``error:`` line, no traceback.
"""

import json
import shutil

import pytest

from repro import cli
from repro.cli import main
from repro.observability.export import bench_trajectory_rows

VERSIONS = pytest.mark.parametrize("version", [2, True, 1.0],
                                   ids=["two", "true", "float"])


def _assert_refused(argv, capsys, noun):
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"unsupported {noun} version" in err
    return err


def _rewrite_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        document = json.load(fh)
    edit(document)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)


@pytest.fixture(scope="module")
def killed_federation(tmp_path_factory):
    """A two-shard run killed at window 4, checkpointed at window 4."""
    out = tmp_path_factory.mktemp("killed-federation")
    assert main(["shard", "run", "smart-city-federated", "--quick",
                 "--shards", "2", "--workers", "1", "--checkpoint-every", "2",
                 "--stop-after", "4", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def incident_bundle(tmp_path_factory):
    from repro.observability.flight import capture_gate_incident
    from repro.scenarios import describe_scenario

    return capture_gate_incident(
        describe_scenario("traffic-overload").spec(True),
        str(tmp_path_factory.mktemp("incident") / "bundle"))


class TestFederationVersions:
    @VERSIONS
    @pytest.mark.parametrize("verb", ["resume", "verify"])
    def test_a_manifest_of_another_version_exits_2(
            self, verb, version, killed_federation, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(killed_federation, out)
        _rewrite_json(out / "manifest.json",
                      lambda manifest: manifest.update(version=version))
        err = _assert_refused(["shard", verb, "--out", str(out)], capsys,
                              "manifest")
        assert "manifest.json" in err

    @VERSIONS
    @pytest.mark.parametrize("verb", ["resume", "verify"])
    def test_an_inbox_header_of_another_version_exits_2(
            self, verb, version, killed_federation, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(killed_federation, out)
        inbox = out / "shard-0" / "inbox.jsonl"
        header, *rest = inbox.read_text(encoding="utf-8").splitlines(True)
        record = json.loads(header)
        record["version"] = version
        inbox.write_text(json.dumps(record) + "\n" + "".join(rest),
                         encoding="utf-8")
        err = _assert_refused(["shard", verb, "--out", str(out)], capsys,
                              "inbox")
        assert "inbox.jsonl" in err


class TestIncidentVersions:
    @VERSIONS
    @pytest.mark.parametrize("verb", ["show", "replay"])
    def test_a_manifest_of_another_version_exits_2(
            self, verb, version, incident_bundle, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(incident_bundle, bundle)
        _rewrite_json(bundle / "manifest.json",
                      lambda manifest: manifest.update(version=version))
        err = _assert_refused(["incident", verb, str(bundle)], capsys,
                              "incident bundle")
        assert err.startswith("error: incident: ")


class TestReportBaselines:
    def test_report_skips_baselines_it_cannot_read(self, tmp_path,
                                                   monkeypatch, capsys):
        baselines = tmp_path / "baselines"
        baselines.mkdir()
        good = {"schema": 1, "quick": True, "label": "good",
                "benches": {"kernel": {"events": 7.0}}}
        (baselines / "BENCH_1.json").write_text(json.dumps(good))
        (baselines / "BENCH_2.json").write_text("[]")
        (baselines / "BENCH_3.json").write_bytes(b'{"benches": "\xff"}')
        monkeypatch.setattr(cli, "_BASELINE_DIR", str(baselines))
        rows = bench_trajectory_rows([good])
        assert cli._bench_trajectory_rows_if_available() == rows

        out = tmp_path / "report"
        assert main(["report", "--quick", "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        html = (out / "resilience-report.html").read_text(encoding="utf-8")
        assert "kernel.events" in html
