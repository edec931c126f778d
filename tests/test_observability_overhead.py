"""Tests for the telemetry budget: span sampling, the overhead meter,
telemetry health export, and the bench-trajectory drift rows."""

import pytest

from repro.core.system import IoTSystem
from repro.observability.export import (
    bench_trajectory_rows,
    prometheus_text,
)
from repro.observability.overhead import (
    ALWAYS_SAMPLE_CATEGORIES,
    OverheadMeter,
    SpanSampler,
    attach_meter,
    telemetry_health,
    telemetry_prom_lines,
)
from repro.observability.spans import SpanRecorder
from repro.persistence import ScenarioSpec, run_scenario
from repro.persistence.snapshot import system_digest


class TestSpanSampler:
    def test_same_seed_and_rate_give_identical_decisions(self):
        a = SpanSampler(0.25, seed=42)
        b = SpanSampler(0.25, seed=42)
        assert [a.keep(i) for i in range(2000)] == \
            [b.keep(i) for i in range(2000)]

    def test_different_seeds_give_different_streams(self):
        a = SpanSampler(0.25, seed=1)
        b = SpanSampler(0.25, seed=2)
        assert [a.keep(i) for i in range(2000)] != \
            [b.keep(i) for i in range(2000)]

    def test_kept_fraction_approximates_rate(self):
        sampler = SpanSampler(0.1, seed=7)
        for i in range(5000):
            sampler.keep(i)
        assert sampler.decisions == 5000
        assert sampler.kept == pytest.approx(500, abs=150)
        assert sampler.dropped == sampler.decisions - sampler.kept

    def test_edge_rates(self):
        zero = SpanSampler(0.0, seed=3)
        assert not any(zero.keep(i) for i in range(100))
        one = SpanSampler(1.0, seed=3)
        assert all(one.keep(i) for i in range(100))
        with pytest.raises(ValueError):
            SpanSampler(1.5)

    def test_to_dict_carries_counters(self):
        sampler = SpanSampler(0.5, seed=9)
        sampler.keep(1)
        doc = sampler.to_dict()
        assert doc["rate"] == 0.5 and doc["seed"] == 9
        assert doc["decisions"] == 1


class TestSampledRecorder:
    def test_dropped_roots_are_not_stored(self):
        spans = SpanRecorder(sampler=SpanSampler(0.0, seed=1))
        span = spans.start("op", "bench", 1.0)
        assert not span.sampled
        assert len(spans) == 0
        assert spans.sampled_out == 1

    def test_descendants_inherit_the_drop(self):
        spans = SpanRecorder(sampler=SpanSampler(0.0, seed=1))
        root = spans.start("op", "bench", 1.0)
        with spans.use(root):
            child = spans.start("child", "bench", 1.5)
        assert not child.sampled
        assert len(spans) == 0
        # Only the root consulted the sampler; the child rode the
        # sentinel context.
        assert spans.sampler.decisions == 1
        assert spans.sampled_out == 2

    def test_always_sample_categories_survive_rate_zero(self):
        spans = SpanRecorder(sampler=SpanSampler(0.0, seed=1))
        for category in sorted(ALWAYS_SAMPLE_CATEGORIES):
            span = spans.start("arc", category, 2.0)
            assert span.sampled, category
        assert len(spans) == len(ALWAYS_SAMPLE_CATEGORIES)

    def test_finish_on_dropped_span_is_inert(self):
        spans = SpanRecorder(sampler=SpanSampler(0.0, seed=1))
        span = spans.start("op", "bench", 1.0)
        finished = spans.finish(span, 2.0, status="error")
        assert finished is span
        assert finished.status == "sampled-out"
        assert len(spans.open_spans) == 0

    def test_kept_traces_keep_unsampled_ids(self):
        # Root trace ordinals are consumed for dropped roots too, so a
        # kept trace has the exact id it would carry in an unsampled run.
        full = SpanRecorder()
        sampled = SpanRecorder(sampler=SpanSampler(0.35, seed=11))
        for i in range(50):
            full.finish(full.start("op", "bench", float(i)), float(i))
            sampled.finish(sampled.start("op", "bench", float(i)), float(i))
        full_ids = [s.trace_id for s in full.spans]
        sampled_ids = [s.trace_id for s in sampled.spans]
        assert 0 < len(sampled_ids) < len(full_ids)
        assert set(sampled_ids) <= set(full_ids)

    def test_sampling_is_digest_neutral(self):
        def build(rate):
            system = IoTSystem.with_edge_cloud_landscape(2, 2, seed=5)
            system.enable_observability(sample_rate=rate)
            edges = system.edge_nodes
            for i in range(20):
                system.sim.schedule(
                    float(i),
                    lambda s, i=i: system.network.send(
                        edges[0], edges[1] if len(edges) > 1 else "cloud",
                        "ping", {"i": i}))
            system.run(until=25.0)
            return system

        with_sampling = build(0.2)
        without = build(None)
        assert len(with_sampling.spans.spans) < len(without.spans.spans)
        assert system_digest(with_sampling) == system_digest(without)


class TestOverheadMeter:
    def test_meter_accounts_each_component(self):
        system = IoTSystem.with_edge_cloud_landscape(1, 1, seed=3)
        system.enable_observability(meter=True)
        meter = system.meter
        assert meter is not None
        system.metrics.record("m", 1.0, 2.0)
        system.trace.emit(1.0, "test", "tick", subject="x")
        span = system.spans.start("op", "test", 1.0)
        system.spans.finish(span, 2.0)
        assert meter.metrics_count == 1
        assert meter.trace_count == 1
        assert meter.spans_count == 2
        assert meter.records == 4
        assert meter.recording_wall_s >= 0.0
        snap = meter.snapshot(run_wall_s=1.0)
        assert snap["records"] == 4
        assert 0.0 <= snap["recording_fraction"] < 1.0

    def test_attach_meter_is_idempotent_per_component(self):
        meter = OverheadMeter()
        system = IoTSystem.with_edge_cloud_landscape(1, 1, seed=3)
        system.enable_observability()
        attach_meter(system, meter)
        assert system.metrics.meter is meter
        assert system.trace.meter is meter
        assert system.spans.meter is meter

    def test_counter_adder_matches_increment(self):
        system = IoTSystem(seed=0)
        add = system.metrics.counter_adder("fast")
        add(1.0)
        add(2.5)
        system.metrics.increment("fast", 0.5)
        assert system.metrics.counter("fast") == 4.0

    def test_unused_counter_adder_adds_no_counter(self):
        system = IoTSystem.with_edge_cloud_landscape(1, 1, seed=3)
        system.run(until=2.0)
        names, digest = system.metrics.counter_names, system_digest(system)
        system.metrics.counter_adder("never.called")
        assert system.metrics.counter_names == names
        assert system_digest(system) == digest
        # ...and the first add creates it, as increment would.
        system.metrics.counter_adder("never.called")(2.0)
        assert system.metrics.counter_names == sorted(names + ["never.called"])
        assert system.metrics.counter("never.called") == 2.0


class TestTelemetryHealth:
    @pytest.fixture()
    def system(self):
        system = IoTSystem.with_edge_cloud_landscape(1, 2, seed=4)
        system.enable_observability(sample_rate=0.5, meter=True)
        system.metrics.record("m", 1.0, 2.0)
        system.spans.finish(system.spans.start("op", "test", 1.0), 2.0)
        return system

    def test_health_sections(self, system):
        health = telemetry_health(system)
        assert set(health) == {"trace", "spans", "series", "overhead"}
        assert health["trace"]["dropped"] == system.trace.dropped
        assert health["spans"]["sampling"]["rate"] == 0.5
        assert health["spans"]["approx_bytes"] >= 0
        assert health["series"]["points"] >= 1
        assert health["overhead"]["records"] >= 1

    def test_health_copies_no_span_list(self, system, monkeypatch):
        """Every live ``/metrics`` scrape calls this: it samples 32 spans
        and counts the open ones without copying either collection."""
        import json

        spans = system.spans
        for index in range(50):
            span = spans.start(f"op{index}", "injection", float(index),
                               payload={"n": index})
            if index % 3:
                spans.finish(span, index + 0.5)
        everything, still_open = spans.spans, spans.open_spans
        assert len(everything) > 32 and still_open
        sample = everything[:32]
        expected_bytes = int(
            sum(len(json.dumps(s.to_dict(), default=repr)) + 1
                for s in sample) / len(sample) * len(everything))

        copies = []
        for name in ("spans", "open_spans"):
            read = getattr(SpanRecorder, name).fget
            monkeypatch.setattr(SpanRecorder, name, property(
                lambda self, name=name, read=read:
                copies.append(name) or read(self)))
        health = telemetry_health(system)["spans"]
        assert copies == []
        assert health["recorded"] == len(everything)
        assert health["open"] == len(still_open)
        assert health["approx_bytes"] == expected_bytes

    def test_prom_lines_cover_budget_metrics(self, system):
        lines = telemetry_prom_lines(telemetry_health(system))
        text = "\n".join(lines)
        assert "repro_trace_dropped_events_total" in text
        assert "repro_spans_retained" in text
        assert "repro_spans_sampling_rate 0.5" in text
        assert "repro_observability_overhead_records_total" in text
        assert "repro_observability_overhead_recording_fraction" in text

    def test_prometheus_text_merges_telemetry(self, system):
        text = prometheus_text(system.metrics,
                               telemetry=telemetry_health(system))
        assert "repro_observability_overhead_records_total" in text


class TestSampledRunIdentity:
    def test_journal_bytes_identical_with_sampling(self, tmp_path):
        # The sampled-run guarantee end to end: a journaled scenario run
        # records byte-identical journals whether or not its observability
        # plane samples spans (the decision stream never feeds the digest).
        spec = ScenarioSpec(name="mape-outage", params={"observe": True})
        plain = str(tmp_path / "plain.jsonl")
        run_scenario(spec, journal_path=plain)

        sampled = str(tmp_path / "sampled.jsonl")
        from repro.persistence import prepare
        from repro.persistence.runner import RunRecorder, drive
        from repro.persistence import JournalWriter

        prepared = prepare(spec)
        system = prepared.system
        assert system.spans is not None
        system.spans.sampler = SpanSampler(0.1, seed=system.rngs.seed)
        recorder = RunRecorder(system, JournalWriter(sampled, spec.to_dict()))
        drive(system, prepared.horizon)
        recorder.finish()
        assert system.spans.sampled_out > 0

        with open(plain, "rb") as fh:
            plain_bytes = fh.read()
        with open(sampled, "rb") as fh:
            sampled_bytes = fh.read()
        assert plain_bytes == sampled_bytes


class TestBenchTrajectoryRows:
    def test_drift_rows_compare_oldest_to_newest(self):
        old = {"label": "a", "benches": {"kernel": {"wall_s": 0.2,
                                                    "events": 100.0}}}
        new = {"label": "b", "benches": {"kernel": {"wall_s": 0.25,
                                                    "events": 100.0},
                                         "obs": {"spans": 8.0}}}
        rows = bench_trajectory_rows([old, new])
        by_metric = {row[0]: row for row in rows}
        wall = by_metric["kernel.wall_s"]
        assert wall[1] == 0.2 and wall[2] == 0.25
        assert wall[3] == pytest.approx(0.05)
        assert wall[4] == "+25.0%"
        events = by_metric["kernel.events"]
        assert events[3] == 0.0
        new_metric = by_metric["obs.spans"]
        assert new_metric[1] == "-" and new_metric[4] == "new"

    def test_empty_and_single_snapshot(self):
        assert bench_trajectory_rows([]) == []
        only = {"benches": {"kernel": {"wall_s": 0.2}}}
        rows = bench_trajectory_rows([only])
        assert rows[0][3] == 0.0
