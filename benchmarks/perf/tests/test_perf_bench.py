"""Tests of the benchmark itself (not tier-1; run with
``python -m pytest benchmarks/perf/tests -q`` from the repo root)."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(PERF))
for path in (PERF, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import child  # noqa: E402
import compare  # noqa: E402
from ladder import LADDER_METRICS  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from tracing import WRAPPED_FLAG, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, *args], cwd=cwd, timeout=timeout,
                          capture_output=True, text=True)


# --------------------------------------------------------------------------- #
# BENCHMARK.json against the contract and the runner's registries
# --------------------------------------------------------------------------- #
def test_benchmark_json_contract(benchmark_json):
    doc = benchmark_json
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/perf"]
    assert doc["command"] == ["python3", "benchmarks/perf/run.py"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = ([w["name"] for w in doc["workloads"]]
             + [m["name"] for m in doc["end_to_end"] + doc["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


def test_registries_match_benchmark_json(benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in benchmark_json["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()}
    assert [(m["name"], m["unit"], m["better"])
            for m in benchmark_json["per_layer"]] == list(PER_LAYER)
    assert [m["name"] for m in benchmark_json["end_to_end"]] == [
        "setup_s", "wall_s", "cpu_s", "peak_rss_mb"]


# --------------------------------------------------------------------------- #
# Span arithmetic and wrapper hygiene
# --------------------------------------------------------------------------- #
def wrapped_leftovers(owners):
    """Names under ``owners`` (classes/modules) still holding a wrapper."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner in owners for attr, value in list(vars(owner).items())
            if hasattr(getattr(value, "__func__", value), WRAPPED_FLAG)]


def test_span_self_time_arithmetic():
    tracer = Tracer("test")

    def leaf():
        time.sleep(0.002)

    def branch():
        wrapped_leaf()
        wrapped_leaf()
        time.sleep(0.001)

    def root():
        wrapped_branch()
        wrapped_leaf()

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_branch = tracer.wrap("branch", branch)
    tracer.wrap("root", root)()

    rows = tracer.rows()
    assert {(r["name"], r["parent"]): r["count"] for r in rows} == {
        ("root", None): 1, ("branch", "root"): 1,
        ("leaf", "branch"): 2, ("leaf", "root"): 1}
    assert all(r["self_s"] >= 0 and r["self_s"] <= r["busy_s"] for r in rows)
    root_busy = tracer.busy("root")
    assert sum(r["self_s"] for r in rows) == pytest.approx(root_busy)
    # Nested repeats are counted once in a layer's inclusive time.
    assert tracer.busy("root", "branch", "leaf") == pytest.approx(root_busy)
    assert tracer.self_time("branch") >= 0.001
    # Raw spans carry the id of the span that caused them.
    by_id = {span["id"]: span for span in tracer.raw}
    assert len(by_id) == 5
    for span in tracer.raw:
        assert span["end"] >= span["start"] and span["run_id"] == "test"
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]


def test_raw_spans_are_capped_but_aggregates_are_not():
    tracer = Tracer("cap", raw_limit=3)
    tick = tracer.wrap("tick", lambda: None)
    for _ in range(10):
        tick()
    assert len(tracer.raw) == 3 and tracer.count("tick") == 10


def test_traced_run_removes_every_wrapper_and_bare_stays_bare(tmp_path):
    from repro.chaos import campaign, compiler
    from repro.network.transport import Network
    from repro.observability.spans import SpanRecorder
    from repro.persistence import (checkpoint, journal, replay, runner,
                                   scenarios, snapshot)
    from repro.security.auth import MessageAuthenticator
    from repro.shard import gateway, worker
    from repro.simulation.kernel import Simulator
    from repro.simulation.metrics import MetricsRecorder
    import repro.persistence

    send_before = Network.__dict__["send"]
    result = child.run_once("traffic_bare", 0, True, True, str(tmp_path),
                            time.monotonic())
    assert result["error"] is None and all(result["checks"].values())
    assert Network.__dict__["send"] is send_before
    assert wrapped_leftovers([
        Simulator, Network, MessageAuthenticator, journal.JournalWriter,
        checkpoint.Checkpoint, SpanRecorder, MetricsRecorder,
        gateway.FederationGateway, worker.ShardHost, campaign.SpecSampler,
        compiler.ScenarioCompiler, snapshot, runner, journal, replay,
        scenarios, gateway, campaign, worker, repro.persistence]) == []

    layers = result["layers"]
    assert set(layers) == {name for name, _, _ in PER_LAYER}
    assert layers["simulation.events"] == result["exact"]["events"] > 0
    assert layers["network.sends"] > 0 and layers["traffic.events"] > 0
    # Nothing but kernel + transport + traffic is switched on.
    for name, value in layers.items():
        if name.split(".")[0] in ("security", "persistence", "shard", "chaos"):
            assert value == 0, name
    assert os.path.getsize(result["spans_file"]) > 0


def test_a_run_that_raises_fails_all_its_checks(tmp_path, monkeypatch):
    workload = WORKLOADS["recover"]
    monkeypatch.setattr(type(workload), "run",
                        lambda self, ctx, state: 1 / 0)
    result = child.run_once("recover", 0, True, False, str(tmp_path),
                            time.monotonic())
    assert "ZeroDivisionError" in result["error"]
    assert result["checks"] == {name: False
                                for name in workload.check_names(False)}


def test_a_run_reports_one_value_per_metric(benchmark_json):
    """The best repetition of every metric, whichever entry point asked
    for the run."""
    import run

    def rep(setup, wall, cpu, rss):
        return {"checks": {"ok": True}, "error": None, "exact": {"events": 7},
                "metrics": {"setup_s": setup, "wall_s": wall, "cpu_s": cpu,
                            "peak_rss_mb": rss},
                "facts": {}, "layers": {}, "spans_file": None}

    folded = run.fold_run("traffic_bare", [
        rep(0.5, 3.0, 2.9, 50.0), rep(0.9, 2.0, 2.5, 52.0),
        rep(0.6, 2.5, 1.9, 51.0)], None, benchmark_json["end_to_end"])
    assert folded["metrics"] == {"setup_s": 0.5, "wall_s": 2.0, "cpu_s": 1.9,
                                 "peak_rss_mb": 50.0}
    assert (folded["attempted"], folded["failed"]) == (4, 0)
    summary = run.fold_set("traffic_bare", [folded, folded], None,
                           benchmark_json["end_to_end"])
    assert summary["end_to_end"]["wall_s"]["values"] == [2.0, 2.0]
    assert summary["error_rate"] == 0


# --------------------------------------------------------------------------- #
# Compare
# --------------------------------------------------------------------------- #
def test_compare_verdicts():
    steady = [10.0, 10.1, 10.2]
    assert compare.verdict(steady, [10.1, 10.2, 10.3], "lower", 0.1)[0] \
        == "unchanged"
    assert compare.verdict(steady, [12.0, 12.1, 12.2], "lower", 0.1)[0] \
        == "regressed"
    assert compare.verdict(steady, [8.0, 8.1, 8.2], "lower", 0.1)[0] \
        == "improved"
    # Ranges wider than the bound: unresolved, not unchanged ...
    assert compare.verdict([9.0, 10.0, 11.5], [9.2, 10.2, 11.0],
                           "lower", 0.1)[0] == "unresolved"
    # ... unless every run of B beats every run of A.
    assert compare.verdict([10.0, 11.0, 12.0], [9.0, 9.5, 9.9],
                           "lower", 0.1)[0] == "improved"
    assert compare.verdict(steady, [8.0, 8.1, 8.2], "higher", 0.1)[0] \
        == "regressed"


def test_compare_requires_exact_counts(benchmark_json):
    def result(events, wall, runs=3):
        return {"seed": 0, "smoke": True, "workloads": {"w": {
            "end_to_end": {m["name"]: {"values": [wall] * runs}
                           for m in benchmark_json["end_to_end"]},
            "error_rate": 0.0, "exact": {"events": events}}}}

    rows, mismatches = compare.compare(result(5, 1.0), result(5, 1.0),
                                       benchmark_json["end_to_end"])
    assert compare.passes(rows, mismatches)
    rows, mismatches = compare.compare(result(5, 1.0), result(6, 1.0),
                                       benchmark_json["end_to_end"])
    assert not compare.passes(rows, mismatches) and "events" in mismatches[0]
    # A side whose every run raised has no values: a mismatch, not a crash.
    rows, mismatches = compare.compare(result(5, 1.0), result(5, 1.0, runs=0),
                                       benchmark_json["end_to_end"])
    assert rows == [] and not compare.passes(rows, mismatches)
    assert "no setup_s measured in B" in mismatches[0]


# --------------------------------------------------------------------------- #
# The commands, end to end at smoke size
# --------------------------------------------------------------------------- #
def test_smoke_prints_every_metric_with_its_unit(benchmark_json, tmp_path):
    started = time.monotonic()
    done = _run([os.path.join(PERF, "run.py"), "--smoke",
                 "--out", str(tmp_path)])
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed <= 30.0
    lines = set(re.sub(r"= \S+", "=", line).split(" (")[0]
                for line in done.stdout.splitlines())
    for workload in benchmark_json["workloads"]:
        name = workload["name"]
        for metric in benchmark_json["end_to_end"] + benchmark_json["per_layer"]:
            assert f"{name} {metric['name']} = {metric['unit']}" in lines, \
                (name, metric["name"])
        assert f"{name} error_rate = ratio" in lines
        assert f"{name} error_rate = 0 ratio" in done.stdout
    for metric in LADDER_METRICS:
        assert f"{metric} = us" in lines
    written = [f for f in os.listdir(tmp_path) if f.startswith("result-")]
    assert len(written) == 1
    with open(tmp_path / written[0], encoding="utf-8") as fh:
        result = json.load(fh)
    assert set(result["workloads"]) == set(WORKLOADS)
    # One spec, three ways of running it, one digest.
    digests = {result["workloads"][name]["exact"]["digest"]
               for name in ("traffic_bare", "traffic_observed", "recover")}
    assert len(digests) == 1
    for name in WORKLOADS:
        assert os.path.getsize(tmp_path / f"spans-{name}.jsonl") > 0
    assert [f for f in os.listdir(tmp_path) if f.startswith("tmp-")] == []


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_contract_output(benchmark_json, trace):
    done = _run([os.path.join(PERF, "run.py"), "--workload", "fed_k4",
                 "--seed", "3", "--seconds", "1", "--trace", str(trace),
                 "--smoke"])
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    wanted = benchmark_json["per_layer" if trace else "end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        entry = last["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in last["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERF, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["benchmarks/perf/run.py", "--workload", "traffic_bare",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
