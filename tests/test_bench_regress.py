"""Tests for the benchmark regression harness (benchmarks/regress.py):
snapshot round-trip, tolerance-aware comparison, and regression
detection."""

import copy
import importlib.util
import json
import os
import sys

import pytest

_REGRESS_PATH = os.path.join(os.path.dirname(__file__), "..",
                             "benchmarks", "regress.py")


def _load_regress():
    spec = importlib.util.spec_from_file_location("repro_bench_regress",
                                                  _REGRESS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regress = _load_regress()


@pytest.fixture
def snapshot():
    return {
        "schema": regress.SCHEMA, "quick": True, "label": "test",
        "benches": {
            "smart_city": {"wall_s": 0.4, "availability": 1.0,
                           "messages_delivered": 488.0},
            "kernel": {"wall_s": 0.1, "events": 20000.0,
                       "events_per_s": 200000.0},
        },
    }


class TestTolerances:
    def test_timings_get_generous_higher_only_tolerance(self):
        tol, direction = regress.tolerance_for("kernel.wall_s")
        assert tol == 1.0 and direction == "higher"

    def test_throughput_flags_drops_only(self):
        tol, direction = regress.tolerance_for("kernel.events_per_s")
        assert direction == "lower"

    def test_everything_else_is_deterministic(self):
        tol, direction = regress.tolerance_for("smart_city.availability")
        assert tol < 1e-6 and direction == "both"

    def test_telemetry_ratio_is_a_timing_and_its_counts_are_exact(self):
        assert regress.tolerance_for("telemetry.sampled_over_bare") == (
            1.0, "higher")
        for metric in ("bare_calls_per_event", "spans_identical",
                       "sampled_extra_calls_per_event"):
            tol, direction = regress.tolerance_for(f"telemetry.{metric}")
            assert tol < 1e-6 and direction == "both"


class TestCompare:
    def test_identical_snapshots_are_clean(self, snapshot):
        assert regress.compare_snapshots(snapshot,
                                         copy.deepcopy(snapshot)) == []

    def test_deterministic_kpi_drift_is_flagged(self, snapshot):
        current = copy.deepcopy(snapshot)
        current["benches"]["smart_city"]["messages_delivered"] = 487.0
        (reg,) = regress.compare_snapshots(snapshot, current)
        assert reg["bench"] == "smart_city"
        assert reg["metric"] == "messages_delivered"
        assert reg["kind"] == "drift"

    def test_timing_regression_beyond_tolerance_is_flagged(self, snapshot):
        current = copy.deepcopy(snapshot)
        current["benches"]["kernel"]["wall_s"] = 0.25   # 2.5x slower
        regs = regress.compare_snapshots(snapshot, current)
        assert [(r["bench"], r["metric"]) for r in regs] == [("kernel",
                                                              "wall_s")]

    def test_timing_wobble_and_speedup_are_tolerated(self, snapshot):
        current = copy.deepcopy(snapshot)
        current["benches"]["kernel"]["wall_s"] = 0.15    # +50%: within 100%
        current["benches"]["smart_city"]["wall_s"] = 0.1  # faster: fine
        assert regress.compare_snapshots(snapshot, current) == []

    def test_throughput_drop_is_flagged_increase_is_not(self, snapshot):
        slower = copy.deepcopy(snapshot)
        slower["benches"]["kernel"]["events_per_s"] = 50000.0
        assert regress.compare_snapshots(snapshot, slower)
        faster = copy.deepcopy(snapshot)
        faster["benches"]["kernel"]["events_per_s"] = 900000.0
        assert regress.compare_snapshots(snapshot, faster) == []

    def test_missing_bench_and_metric_are_flagged(self, snapshot):
        current = copy.deepcopy(snapshot)
        del current["benches"]["kernel"]
        del current["benches"]["smart_city"]["availability"]
        kinds = {(r["bench"], r["kind"])
                 for r in regress.compare_snapshots(snapshot, current)}
        assert ("kernel", "missing") in kinds
        assert ("smart_city", "missing") in kinds

    def test_quick_and_full_snapshots_never_compare(self, snapshot):
        current = copy.deepcopy(snapshot)
        current["quick"] = False
        (reg,) = regress.compare_snapshots(snapshot, current)
        assert reg["kind"] == "incomparable"


class TestSnapshotIo:
    def test_write_load_round_trip(self, snapshot, tmp_path):
        path = regress.write_snapshot(snapshot, str(tmp_path), number=7)
        assert os.path.basename(path) == "BENCH_7.json"
        assert regress.load_snapshot(path) == snapshot

    def test_numbering_advances_past_existing(self, snapshot, tmp_path):
        regress.write_snapshot(snapshot, str(tmp_path), number=3)
        path = regress.write_snapshot(snapshot, str(tmp_path))
        assert os.path.basename(path) == "BENCH_4.json"

    def test_load_rejects_unknown_schema(self, snapshot, tmp_path):
        snapshot["schema"] = 999
        path = regress.write_snapshot(snapshot, str(tmp_path), number=1)
        with pytest.raises(ValueError):
            regress.load_snapshot(path)


class TestHarness:
    def test_self_test_detects_injected_regressions(self, tmp_path):
        assert regress.self_test(str(tmp_path))

    def test_micro_scenarios_are_deterministic(self):
        first = regress.bench_histogram(quick=True)
        second = regress.bench_histogram(quick=True)
        assert first["p50"] == second["p50"]
        assert first["p99"] == second["p99"]
        assert first["count"] == second["count"]

    def test_main_compare_exit_codes(self, snapshot, tmp_path):
        base = regress.write_snapshot(snapshot, str(tmp_path), number=1)
        drifted = copy.deepcopy(snapshot)
        drifted["benches"]["smart_city"]["availability"] = 0.5
        cur = regress.write_snapshot(drifted, str(tmp_path), number=2)
        assert regress.main(["--compare", base, base]) == 0
        assert regress.main(["--compare", base, cur]) == 1

    def test_seeded_baselines_are_loadable(self):
        # Older snapshots may predate newer benches (that is what the
        # trajectory view exists to show); the NEWEST baseline must
        # cover the full scenario set.
        import glob
        import re

        baselines_dir = os.path.join(os.path.dirname(_REGRESS_PATH),
                                     "baselines")
        paths = sorted(
            glob.glob(os.path.join(baselines_dir, "BENCH_*.json")),
            key=lambda p: int(re.fullmatch(
                r"BENCH_(\d+)\.json", os.path.basename(p)).group(1)))
        assert paths
        for path in paths:
            snapshot = regress.load_snapshot(path)
            assert set(snapshot["benches"]) <= set(regress.SCENARIOS)
            for metrics in snapshot["benches"].values():
                assert "wall_s" in metrics
        newest = regress.load_snapshot(paths[-1])
        assert set(newest["benches"]) == set(regress.SCENARIOS)


class TestTrajectory:
    def test_trajectory_prints_drift_and_exits_clean(self, snapshot,
                                                     tmp_path, capsys):
        regress.write_snapshot(snapshot, str(tmp_path), number=1)
        newer = copy.deepcopy(snapshot)
        newer["benches"]["kernel"]["wall_s"] = 0.2
        regress.write_snapshot(newer, str(tmp_path), number=2)
        assert regress.main(["--trajectory", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "trajectory over 2 snapshot(s)" in out
        assert "kernel.wall_s" in out
        assert "+100.0%" in out

    def test_trajectory_refuses_mixed_quick_and_full(self, snapshot,
                                                     tmp_path, capsys):
        regress.write_snapshot(snapshot, str(tmp_path), number=1)
        full = copy.deepcopy(snapshot)
        full["quick"] = False
        regress.write_snapshot(full, str(tmp_path), number=2)
        assert regress.main(["--trajectory", str(tmp_path)]) == 1
        assert "refused" in capsys.readouterr().out

    def test_trajectory_with_no_snapshots_fails(self, tmp_path, capsys):
        assert regress.main(["--trajectory", str(tmp_path)]) == 1
        assert "no BENCH_" in capsys.readouterr().out

    def test_observability_bench_is_deterministic(self):
        first = regress.bench_observability(quick=True)
        second = regress.bench_observability(quick=True)
        for metric in ("spans_full", "spans_sampled", "spans_sampled_out",
                       "metric_points_full", "metric_points_sampled",
                       "ticks_counted"):
            assert first[metric] == second[metric], metric
        assert first["ticks_counted"] == 6000.0
        assert first["spans_full"] == first["spans_sampled"] + \
            first["spans_sampled_out"]

    def test_telemetry_bench_keeps_the_traces_a_full_run_keeps(self):
        result = regress.bench_telemetry(quick=True)
        assert result["spans_identical"] == 1.0
        assert result["spans_kept"] > 0
        assert result["spans_sampled_out"] > 10 * result["spans_kept"]
        # The tripwire's point: throwing a span away costs a fraction of
        # the message path it rides on (13.2 of 47.9 before admit()).
        assert 0 < result["sampled_extra_calls_per_event"] < (
            0.25 * result["bare_calls_per_event"])
