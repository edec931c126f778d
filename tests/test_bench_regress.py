"""Tests for the benchmark regression harness (benchmarks/regress.py):
snapshot round-trip, tolerance-aware comparison, and regression
detection.

``bench_regress_golden.json`` pins what the harness says about the
committed baselines: ``tolerance_for``'s answer for every metric name in
``BENCH_1`` ... ``BENCH_<n>``, and the SHA-256 and record count of
``compare_snapshots``' output for each consecutive pair.  A refactor of
the rules leaves it green unedited; a change that means to alter a rule
regenerates it and says so::

    PYTHONPATH=src python tests/test_bench_regress.py --regen
"""

import copy
import glob
import hashlib
import importlib.util
import json
import os
import re
import sys

import pytest

_REGRESS_PATH = os.path.join(os.path.dirname(__file__), "..",
                             "benchmarks", "regress.py")
_BASELINES = os.path.join(os.path.dirname(_REGRESS_PATH), "baselines")
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "bench_regress_golden.json")


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
                       "sampled_extra_calls_per_event",
                       "observed_extra_calls_per_event"):
            tol, direction = regress.tolerance_for(f"telemetry.{metric}")
            assert tol < 1e-6 and direction == "both"

    def test_closed_cyclic_objects_is_exact_and_the_peak_a_timing(self):
        rule = regress.rule_for("chaos.closed_cyclic_objects")
        assert rule.kind == "exact" and rule.anchor == "EXPERIMENTS CHAOS-2"
        assert regress.rule_for("chaos.campaign_peak_kib").kind == "timing"


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
        paths = [path for _n, path in regress.numbered_snapshots(_BASELINES)]
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


_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_GATES = [rule for rule in regress.RULES if rule.kind == "gate"]


def _rule_id(rule):
    return rule.pattern.replace("\\", "")


def _newest_baseline():
    return regress.load_snapshot(_baseline_paths()[-1])


def _breaking(bound):
    """A reading the bound ``(op, value)`` refuses."""
    op, limit = bound
    return limit - 1 if op == ">=" else limit + 1


def _why_flagged(snapshot, capsys):
    status = regress.print_breaches(regress.judge(snapshot))
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("  - ")]
    return status, lines


class TestBenchRules:
    def test_the_newest_baseline_judges_clean(self, capsys):
        assert _why_flagged(_newest_baseline(), capsys) == (0, [])

    @pytest.mark.parametrize("rule", _GATES, ids=_rule_id)
    def test_each_broken_gate_is_one_line_naming_it(self, rule, capsys):
        snapshot = _newest_baseline()
        name = next(f"{bench}.{metric}"
                    for bench, metrics in snapshot["benches"].items()
                    for metric in metrics
                    if re.fullmatch(rule.pattern, f"{bench}.{metric}"))
        bench, metric = name.split(".", 1)
        snapshot["benches"][bench][metric] = _breaking(rule.bound)
        status, lines = _why_flagged(snapshot, capsys)
        assert status == 1 and len(lines) == 1, lines
        assert name in lines[0] and f"(why: {rule.anchor})" in lines[0]

    def test_the_dataclass_path_breaks_the_call_ceiling(self):
        snapshot = regress.load_snapshot(os.path.join(_BASELINES,
                                                      "BENCH_14.json"))
        (breach,) = regress.judge(snapshot)
        assert breach[:2] == ("telemetry.bare_calls_per_event",
                              snapshot["benches"]["telemetry"][
                                  "bare_calls_per_event"])
        assert breach[1] == pytest.approx(42.95, abs=0.01)

    def test_a_snapshot_run_exits_1_on_a_broken_gate(self, tmp_path,
                                                     monkeypatch, capsys):
        monkeypatch.setattr(regress, "SCENARIOS", {"startup": lambda quick: {
            "wall_s": 0.2, "third_party_modules": 1.0}})
        assert regress.main(["--quick", "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "startup.third_party_modules = 1, want == 0" in out
        assert (tmp_path / "BENCH_1.json").exists()

    def test_every_anchor_names_a_heading(self):
        headings = {}
        for doc in ("EXPERIMENTS", "DESIGN"):
            with open(os.path.join(_REPO, f"{doc}.md"),
                      encoding="utf-8") as fh:
                headings[doc] = [
                    re.sub(r"^(#+ |- \*\*)", "", line) for line in fh
                    if re.match(r"#+ |- \*\*", line)]
        for rule in regress.RULES:
            assert rule.bound is None or rule.anchor, rule
            if rule.anchor:
                doc, _, title = rule.anchor.partition(" ")
                assert any(heading.startswith(title)
                           for heading in headings[doc]), rule

    @pytest.mark.parametrize("rule", [
        rule for rule in regress.RULES
        if rule.bound is not None and rule.kind != "gate"],
        ids=_rule_id)
    def test_a_budget_is_read_from_its_row(self, rule):
        metric = rule.pattern.replace("\\.", ".")
        assert regress.rule_for(metric) is rule
        assert regress.within(metric, rule.bound[1])
        assert not regress.within(metric, _breaking(rule.bound))


class TestSnapshotReadersFailClosed:
    @pytest.mark.parametrize("flag", ("--compare", "--trajectory",
                                      "--baseline"))
    def test_a_wrong_shaped_snapshot_is_one_error_line(self, flag, snapshot,
                                                       tmp_path, capsys):
        regress.write_snapshot(snapshot, str(tmp_path), number=1)
        bad = tmp_path / "BENCH_2.json"
        bad.write_text("[]\n")
        args = {"--compare": [str(tmp_path / "BENCH_1.json"), str(bad)],
                "--trajectory": [str(tmp_path)],
                "--baseline": [str(bad), "--only", "kernel"]}[flag]
        assert regress.main([flag] + args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "BENCH_2.json" in err[0]

    @pytest.mark.parametrize("text", ("{", '{"schema": 1}',
                                      '{"schema": 1, "quick": true, '
                                      '"label": "", "benches": {"k": '
                                      '{"wall_s": "fast"}}}'))
    def test_a_garbled_snapshot_is_refused(self, text, tmp_path):
        path = tmp_path / "BENCH_1.json"
        path.write_text(text)
        with pytest.raises(regress.SnapshotError, match="BENCH_1.json"):
            regress.load_snapshot(str(path))

    def test_a_missing_snapshot_is_one_error_line(self, tmp_path, capsys):
        missing = str(tmp_path / "BENCH_9.json")
        assert regress.main(["--compare", missing, missing]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_stray_names_are_not_snapshots(self, snapshot, tmp_path, capsys):
        regress.write_snapshot(snapshot, str(tmp_path), number=2)
        (tmp_path / "BENCH_old.json").write_text("[]\n")
        assert regress.next_snapshot_number(str(tmp_path)) == 3
        assert regress.main(["--trajectory", str(tmp_path)]) == 0
        assert "trajectory over 1 snapshot(s)" in capsys.readouterr().out


def _baseline_paths():
    numbered = {int(re.fullmatch(r"BENCH_(\d+)\.json",
                                 os.path.basename(path)).group(1)): path
                for path in glob.glob(os.path.join(_BASELINES,
                                                   "BENCH_*.json"))}
    return [numbered[number] for number in sorted(numbered)]


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def collect():
    """``{"tolerances": {metric: [tol, direction]}, "compares": {pair:
    {"sha256", "records"}}}`` over the committed baselines."""
    snapshots = [(os.path.basename(path)[:-5], _read(path))
                 for path in _baseline_paths()]
    metrics = {f"{bench}.{metric}"
               for _name, snapshot in snapshots
               for bench, values in snapshot["benches"].items()
               for metric in values}
    compares = {}
    for (old, base), (new, current) in zip(snapshots, snapshots[1:]):
        found = regress.compare_snapshots(base, current)
        encoded = json.dumps(found, sort_keys=True).encode("utf-8")
        compares[f"{old}->{new}"] = {
            "sha256": hashlib.sha256(encoded).hexdigest(),
            "records": len(found)}
    return {"tolerances": {metric: list(regress.tolerance_for(metric))
                           for metric in sorted(metrics)},
            "compares": compares}


class TestPinnedRules:
    @pytest.fixture(scope="class")
    def pinned(self):
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            return json.load(fh)

    def test_every_baseline_metric_keeps_its_tolerance(self, pinned):
        assert collect()["tolerances"] == pinned["tolerances"]

    def test_every_consecutive_compare_keeps_its_output(self, pinned):
        assert collect()["compares"] == pinned["compares"]


def _regen():
    table = collect()
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for pair, entry in table["compares"].items():
        print(f"{pair}: {entry['sha256'][:12]} {entry['records']} records")
    print(f"wrote {len(table['tolerances'])} tolerances and "
          f"{len(table['compares'])} compares to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: python {sys.argv[0]} --regen")
    _regen()
