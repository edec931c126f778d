"""Tests for the profiling plane: plane attribution, cost quantiles,
kernel queue lag, flamegraph export, request critical paths, and the
differential profiler that names the subsystem behind a regression."""

import json

import pytest

from repro.observability.instrument import Instrument, LabelStats
from repro.observability.profile import (
    BENCH_PLANES,
    PLANES,
    SEGMENTS,
    attribute_regressions,
    capture_profile,
    collapsed_kernel_stacks,
    collapsed_span_stacks,
    diff_bench_profiles,
    diff_profiles,
    load_profile,
    plane_of_category,
    plane_of_label,
    profile_prom_lines,
    render_profile_diff,
    request_critical_paths,
    save_profile,
    write_flamegraph,
)
from repro.observability.spans import SpanRecorder


# --------------------------------------------------------------------------- #
# plane classification
# --------------------------------------------------------------------------- #
class TestPlaneClassification:
    def test_kernel_label_prefixes_map_to_planes(self):
        assert plane_of_label("deliver:raft.append_entries") == "transport"
        assert plane_of_label("gossip:n3") == "coordination"
        assert plane_of_label("swim-timeout:n1") == "coordination"
        assert plane_of_label("mape:edge0") == "mape"
        assert plane_of_label("inject:cloud-outage") == "faults"
        assert plane_of_label("meter:tick") == "telemetry"

    def test_dotted_serving_and_security_labels(self):
        # Serving-plane labels are dotted (traffic.serve:edge0); the bare
        # ``traffic:`` prefix is the smart-city road sensor -- workload.
        assert plane_of_label("traffic.serve:edge0") == "traffic"
        assert plane_of_label("traffic.timeout:cohort") == "traffic"
        assert plane_of_label("security.trust:n2") == "security"
        assert plane_of_label("traffic:road-sensor-3") == "workload"

    def test_unknown_labels_land_in_workload(self):
        assert plane_of_label("totally-novel:thing") == "workload"
        # Unlabeled events are kernel internals, not workload.
        assert plane_of_label("") == "kernel"

    def test_span_categories_map_to_planes(self):
        assert plane_of_category("message") == "transport"
        assert plane_of_category("adaptation") == "mape"
        assert plane_of_category("coordination") == "coordination"
        assert plane_of_category("request") == "traffic"
        assert plane_of_category("persistence") == "persistence"
        assert plane_of_category("fault") == "faults"

    def test_every_mapped_plane_is_declared(self):
        extra = {"faults", "kernel", "workload"}
        assert set(PLANES) | extra >= set(BENCH_PLANES.values())


# --------------------------------------------------------------------------- #
# cost quantiles + kernel queue lag
# --------------------------------------------------------------------------- #
def _label_stats(*costs):
    """The one label's ``LabelStats`` after ``Instrument.record`` of each
    per-event cost, as the kernel reports fired events."""
    instrument = Instrument()
    for seconds in costs:
        instrument.record("op", seconds, 0, 0.0)
    return instrument.labels["op"]


class TestLabelStatsQuantiles:
    def test_quantiles_bracket_recorded_costs(self):
        # 3us bulk, 300us tail.
        stats = _label_stats(*[3e-6] * 90, *[300e-6] * 10)
        assert isinstance(stats, LabelStats) and stats.count == 100
        # Power-of-two buckets resolve within a factor of sqrt(2).
        assert stats.p50_us == pytest.approx(3.0, rel=0.45)
        assert stats.p99_us == pytest.approx(300.0, rel=0.45)
        # Bucket midpoints may overshoot the true max by at most sqrt(2).
        assert stats.p50_us <= stats.p99_us <= stats.max_s * 1e6 * 2 ** 0.5

    def test_to_dict_carries_quantiles(self):
        doc = _label_stats(5e-6).to_dict()
        assert set(doc) == {"count", "total_ms", "mean_us", "p50_us",
                            "p99_us", "max_us", "queue_s"}
        assert doc["count"] == 1


class TestInstrumentSnapshot:
    def test_queue_lag_flows_from_kernel(self):
        from repro.simulation.kernel import Simulator

        sim = Simulator()
        sim.instrument = Instrument()
        sim.schedule(2.5, lambda s: None, label="lagged:x")
        sim.run(until=10.0)
        stats = sim.instrument.labels["lagged:x"]
        # Scheduled at t=0 for t=2.5: the queue lag is simulated time.
        assert stats.queue_s == pytest.approx(2.5)


# --------------------------------------------------------------------------- #
# capture + flamegraphs
# --------------------------------------------------------------------------- #
def _synthetic_instrument(mape_cost: float = 2e-4) -> Instrument:
    instr = Instrument()
    for i in range(50):
        instr.record("deliver:ping", 1e-4, 1, float(i), 0.01)
        instr.record("mape:edge0", mape_cost, 2, float(i))
    return instr


class TestCaptureProfile:
    def test_planes_aggregate_and_rank(self):
        profile = capture_profile(instrument=_synthetic_instrument(3e-4))
        assert profile["schema"] == 1
        planes = profile["planes"]
        assert set(planes) == {"transport", "mape"}
        # mape recorded 3x the per-event cost: it must rank first.
        assert list(planes)[0] == "mape"
        assert planes["transport"]["count"] == 50
        assert planes["transport"]["queue_s"] == pytest.approx(0.5)
        assert profile["kernel"]["events"] == 100
        assert profile["labels"]["mape:edge0"]["plane"] == "mape"

    def test_empty_capture_is_valid(self):
        profile = capture_profile()
        assert profile["planes"] == {} and profile["labels"] == {}

    def test_round_trip(self, tmp_path):
        profile = capture_profile(instrument=_synthetic_instrument())
        path = tmp_path / "p.json"
        save_profile(profile, path)
        assert load_profile(path) == json.loads(json.dumps(profile))

    def test_span_planes_use_self_time(self):
        spans = SpanRecorder()
        root = spans.start("deliver", "message", 0.0)
        with spans.use(root):
            child = spans.start("react", "adaptation", 1.0)
        spans.finish(child, 4.0)
        spans.finish(root, 5.0)
        profile = capture_profile(spans=spans, now=5.0)
        sp = profile["span_planes"]
        # Root spans 5s but 3s belong to the child: self-time attribution.
        assert sp["transport"]["self_s"] == pytest.approx(2.0)
        assert sp["mape"]["self_s"] == pytest.approx(3.0)


class TestFlamegraphs:
    def test_collapsed_kernel_stacks_format(self, tmp_path):
        profile = capture_profile(instrument=_synthetic_instrument())
        lines = collapsed_kernel_stacks(profile)
        assert lines
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert int(value) >= 0
            frames = stack.split(";")
            assert len(frames) == 3  # plane;prefix;label
        assert any(line.startswith("mape;mape;mape:edge0 ")
                   for line in lines)
        path = tmp_path / "kernel.folded"
        assert write_flamegraph(path, lines) == len(lines)
        assert path.read_text().count("\n") == len(lines)

    def test_collapsed_span_stacks_root_at_plane(self):
        spans = SpanRecorder()
        root = spans.start("deliver", "message", 0.0)
        with spans.use(root):
            child = spans.start("react", "adaptation", 1.0)
        spans.finish(child, 4.0)
        spans.finish(root, 5.0)
        lines = collapsed_span_stacks(spans, now=5.0)
        # Each stack is rooted at the plane of the span whose self time
        # it carries, so nested mape work is never billed to transport.
        assert lines == ["mape;deliver;react 3000000",
                         "transport;deliver 2000000"]


# --------------------------------------------------------------------------- #
# request critical paths
# --------------------------------------------------------------------------- #
def _run_overload(seed: int = 23):
    from repro.traffic.scenarios import prepare_overload

    prepared = prepare_overload(variant="admission", users=50,
                                rate_per_user=2.0, horizon=8.0, seed=seed)
    system = prepared.system
    system.enable_observability()
    system.run(until=prepared.horizon)
    system.spans.finish_open(system.sim.now)
    return system


class TestRequestCriticalPaths:
    @pytest.fixture(scope="class")
    def system(self):
        return _run_overload()

    def test_segments_sum_to_e2e_latency(self, system):
        requests = [s for s in system.spans
                    if s.category == "request" and s.end is not None
                    and s.status != "truncated"]
        assert len(requests) > 50
        statuses = set()
        for span in requests:
            statuses.add(span.status)
            total = sum(float(span.attrs.get(f"{seg}_s", 0.0))
                        for seg in SEGMENTS)
            assert total == pytest.approx(span.end - span.start,
                                          rel=1e-9, abs=1e-9)
        # The overload run must exercise both outcomes.
        assert "ok" in statuses

    def test_report_totals_and_top_k(self, system):
        report = request_critical_paths(system.spans, top_k=3)
        assert report["requests"] > 50
        assert report["dominant_segment"] in SEGMENTS
        assert len(report["top"]) == 3
        latencies = [row["latency_s"] for row in report["top"]]
        assert latencies == sorted(latencies, reverse=True)
        mean = (sum(row["segments"][seg] for seg in SEGMENTS
                    for row in [report["top"][0]]))
        assert mean == pytest.approx(report["top"][0]["latency_s"],
                                     rel=1e-9, abs=1e-9)

    def test_profile_embeds_critical_path(self, system):
        profile = system.profile_snapshot()
        critical = profile["critical_path"]
        assert critical["requests"] == \
            request_critical_paths(system.spans)["requests"]
        assert set(critical["segments"]) == set(SEGMENTS)

    def test_deterministic_across_identical_runs(self, system):
        other = _run_overload()
        a = capture_profile(spans=system.spans, now=system.sim.now)
        b = capture_profile(spans=other.spans, now=other.sim.now)
        assert a["critical_path"] == b["critical_path"]
        assert a["span_planes"] == b["span_planes"]
        # Kernel event *counts* are deterministic too (wall times are not).
        ia = system.sim.instrument.labels
        ib = other.sim.instrument.labels
        assert {k: v.count for k, v in ia.items()} == \
            {k: v.count for k, v in ib.items()}


# --------------------------------------------------------------------------- #
# differential profiling
# --------------------------------------------------------------------------- #
class TestDiffProfiles:
    def test_synthetically_slowed_plane_ranks_top(self):
        before = capture_profile(instrument=_synthetic_instrument(2e-4))
        after = capture_profile(instrument=_synthetic_instrument(2e-3))
        diff = diff_profiles(before, after)
        assert diff["top_plane"] == "mape"
        assert diff["top_plane_delta_ms"] == pytest.approx(90.0)
        assert diff["planes"][0]["name"] == "mape"
        assert diff["planes"][0]["ratio"] == pytest.approx(10.0)
        rendered = render_profile_diff(diff)
        assert "top mover: mape" in rendered
        assert "slower" in rendered

    def test_faster_plane_reports_negative_delta(self):
        before = capture_profile(instrument=_synthetic_instrument(2e-3))
        after = capture_profile(instrument=_synthetic_instrument(2e-4))
        diff = diff_profiles(before, after)
        assert diff["top_plane"] == "mape"
        assert diff["top_plane_delta_ms"] < 0
        assert "faster" in render_profile_diff(diff)

    def test_bench_snapshot_attribution(self):
        def bench(mape_ms):
            return {"schema": 1, "quick": True, "benches": {
                "smart_city": {"wall_s": 0.5}},
                "profiles": {"smart_city": {
                    "schema": 1, "meta": {},
                    "planes": {"mape": {"count": 10, "total_ms": mape_ms},
                               "transport": {"count": 10, "total_ms": 4.0}},
                    "labels": {}}}}

        before, after = bench(5.0), bench(50.0)
        diffs = diff_bench_profiles(before, after)
        assert diffs["smart_city"]["top_plane"] == "mape"
        lines = attribute_regressions(
            ["smart_city.wall_s: drift +300.00% exceeds tolerance"],
            before, after)
        assert len(lines) == 1
        assert "'mape'" in lines[0] and "+45.00 ms" in lines[0]

    def test_attribution_falls_back_to_bench_subject(self):
        plain = {"schema": 1, "benches": {"kernel": {"wall_s": 0.1}}}
        lines = attribute_regressions(
            ["kernel.wall_s: drift +400.00% exceeds tolerance"],
            plain, plain)
        assert lines == ["kernel: no profile data; bench subject maps "
                         "to plane 'kernel'"]


# --------------------------------------------------------------------------- #
# exporters
# --------------------------------------------------------------------------- #
class TestProfileExport:
    def test_prom_lines_cover_plane_families(self):
        profile = capture_profile(instrument=_synthetic_instrument())
        text = "\n".join(profile_prom_lines(profile))
        assert 'repro_profile_plane_busy_seconds{plane="mape"}' in text
        assert 'repro_profile_plane_events_total{plane="transport"} 50' in text
        assert "repro_profile_kernel_events_total 100" in text

    def test_prometheus_text_merges_profile(self):
        from repro.observability.export import prometheus_text
        from repro.simulation.metrics import MetricsRecorder

        profile = capture_profile(instrument=_synthetic_instrument())
        text = prometheus_text(MetricsRecorder(), profile=profile)
        assert "repro_profile_plane_busy_seconds" in text

    def test_html_report_gains_profile_section(self, tmp_path):
        from repro.observability.export import write_html_report

        system = _run_overload()
        profile = system.profile_snapshot()
        path = tmp_path / "report.html"
        write_html_report(str(path), "profile test", system.kpi_report(),
                          profile=profile)
        html = path.read_text()
        assert "Profile" in html and "Request critical path" in html


# --------------------------------------------------------------------------- #
# byte-identity: armed profiling must not perturb the run
# --------------------------------------------------------------------------- #
class TestArmedRunIdentity:
    def test_journal_bytes_identical_with_profiling_armed(self, tmp_path):
        from repro.persistence import (
            JournalWriter,
            ScenarioSpec,
            prepare,
        )
        from repro.persistence.runner import RunRecorder, drive
        from repro.persistence.snapshot import system_digest

        spec = ScenarioSpec(name="mape-outage", params={"observe": True})

        def leg(path, armed):
            prepared = prepare(spec)
            system = prepared.system
            if not armed:
                system.sim.instrument = None  # profiling disarmed
            recorder = RunRecorder(system,
                                   JournalWriter(path, spec.to_dict()))
            drive(system, prepared.horizon)
            profile = system.profile_snapshot() if armed else None
            recorder.finish()
            return system, profile

        plain_path = str(tmp_path / "plain.jsonl")
        armed_path = str(tmp_path / "armed.jsonl")
        plain_system, _ = leg(plain_path, armed=False)
        armed_system, profile = leg(armed_path, armed=True)

        # The armed run really profiled something...
        assert profile["kernel"]["events"] > 0
        assert profile["planes"]
        # ...yet journal bytes and digests are identical to the
        # disarmed run: the profiling plane is telemetry-only.
        with open(plain_path, "rb") as fh:
            plain_bytes = fh.read()
        with open(armed_path, "rb") as fh:
            armed_bytes = fh.read()
        assert plain_bytes == armed_bytes
        assert system_digest(plain_system) == system_digest(armed_system)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestProfileCli:
    def test_profile_run_and_diff(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "prof")
        assert main(["profile", "run", "traffic-overload", "--quick",
                     "--out", out]) == 0
        for name in ("profile.json", "kernel.folded", "spans.folded",
                     "profile.chrome.json"):
            assert (tmp_path / "prof" / name).exists(), name
        stdout = capsys.readouterr().out
        assert "subsystem cost attribution" in stdout
        assert "request critical path" in stdout

        profile_path = str(tmp_path / "prof" / "profile.json")
        assert main(["profile", "diff", profile_path, profile_path]) == 0
        stdout = capsys.readouterr().out
        assert "top mover" in stdout

    def test_profile_run_drives_past_a_harness_crash(self, tmp_path, capsys):
        """The crash fault stops the kernel at 45 s; the profile still
        covers the whole 90 s horizon, as checkpoint and replay do."""
        from repro.cli import main
        from repro.persistence import drive
        from repro.scenarios import describe_scenario, prepare

        out = tmp_path / "prof"
        assert main(["profile", "run", "harness-crash", "--quick",
                     "--out", str(out)]) == 0
        assert "(harness-crash, horizon 90s)" in capsys.readouterr().out
        prepared = prepare(describe_scenario("harness-crash").spec(True))
        drive(prepared.system, prepared.horizon)
        profile = json.loads((out / "profile.json").read_text())
        assert profile["meta"]["horizon"] == prepared.horizon == 90.0
        assert profile["kernel"]["events"] == prepared.system.sim.fired_count

    def test_profile_diff_rejects_bad_paths(self, tmp_path, capsys):
        from repro.cli import main

        missing = str(tmp_path / "nope.json")
        assert main(["profile", "diff", missing, missing]) == 2
