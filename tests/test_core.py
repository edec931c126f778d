"""Unit tests for the core resilience framework."""

import math

import pytest

from repro.core.assessment import comparison_table, recovery_table
from repro.core.requirements import (
    AvailabilityRequirement,
    ControlAvailabilityRequirement,
    CoverageRequirement,
    EvaluationContext,
    FreshnessRequirement,
    LatencyRequirement,
    PrivacyRequirement,
)
from repro.core.resilience import ResilienceAnalyzer, ResilienceReport
from repro.core.system import IoTSystem
from repro.core.vectors import (
    MATURITY_TABLE,
    DisruptionVector,
    MaturityLevel,
    features_of,
)
from repro.devices.base import DeviceClass
from repro.simulation.metrics import MetricsRecorder
from repro.simulation.trace import TraceLog


@pytest.fixture
def ctx(metrics, trace):
    return EvaluationContext(metrics=metrics, trace=trace)


class TestRequirements:
    def test_availability_graded_toward_target(self, ctx, metrics):
        metrics.set_level("up:d1", 0.0, 1.0)
        metrics.set_level("up:d1", 5.0, 0.0)    # 50% availability over [0,10)
        requirement = AvailabilityRequirement(series_names=["up:d1"], target=1.0)
        assert requirement.satisfaction(ctx, 0.0, 10.0) == pytest.approx(0.5)

    def test_availability_capped_at_one(self, ctx, metrics):
        metrics.set_level("up:d1", 0.0, 1.0)
        requirement = AvailabilityRequirement(series_names=["up:d1"], target=0.5)
        assert requirement.satisfaction(ctx, 0.0, 10.0) == 1.0

    def test_availability_none_without_series(self, ctx):
        requirement = AvailabilityRequirement(series_names=["up:ghost"], target=1.0)
        assert requirement.satisfaction(ctx, 0.0, 10.0) is None

    def test_availability_averages_multiple_series(self, ctx, metrics):
        metrics.set_level("up:a", 0.0, 1.0)
        metrics.set_level("up:b", 0.0, 0.0)
        requirement = AvailabilityRequirement(series_names=["up:a", "up:b"], target=1.0)
        assert requirement.satisfaction(ctx, 0.0, 10.0) == pytest.approx(0.5)

    def test_latency_fraction_on_time(self, ctx, metrics):
        for i in range(10):
            metrics.record("lat", float(i), 0.05 if i < 9 else 5.0)
        requirement = LatencyRequirement(series_name="lat", deadline=0.1, quantile=0.9)
        assert requirement.satisfaction(ctx, 0.0, 10.0) == pytest.approx(1.0)
        strict = LatencyRequirement(series_name="lat", deadline=0.1, quantile=1.0)
        assert strict.satisfaction(ctx, 0.0, 10.0) == pytest.approx(0.9)

    def test_latency_none_without_samples(self, ctx, metrics):
        requirement = LatencyRequirement(series_name="lat")
        assert requirement.satisfaction(ctx, 0.0, 10.0) is None

    def test_freshness(self, ctx, metrics):
        metrics.record("fresh", 1.0, 2.0)
        metrics.record("fresh", 2.0, 10.0)
        requirement = FreshnessRequirement(series_name="fresh", max_age=5.0)
        assert requirement.satisfaction(ctx, 0.0, 10.0) == pytest.approx(0.5)

    def test_privacy_binary(self, ctx, trace):
        requirement = PrivacyRequirement()
        assert requirement.satisfaction(ctx, 0.0, 10.0) == 1.0
        trace.emit(5.0, "governance", "privacy-violation", subject="d1")
        assert requirement.satisfaction(ctx, 0.0, 10.0) == 0.0
        # Windows before the violation stay clean.
        assert requirement.satisfaction(ctx, 0.0, 5.0) == 1.0

    def test_coverage_rate(self, ctx, metrics):
        for i in range(5):
            metrics.record("ingest", float(i), 1.0)
        requirement = CoverageRequirement(series_name="ingest", target_rate=1.0)
        assert requirement.satisfaction(ctx, 0.0, 5.0) == pytest.approx(1.0)
        assert requirement.satisfaction(ctx, 0.0, 10.0) == pytest.approx(0.5)

    def test_control_availability(self, ctx, metrics):
        metrics.set_level("controlled:d1", 0.0, 1.0)
        metrics.set_level("controlled:d2", 0.0, 0.0)
        requirement = ControlAvailabilityRequirement(
            series_names=["controlled:d1", "controlled:d2"], target=1.0,
        )
        assert requirement.satisfaction(ctx, 0.0, 10.0) == pytest.approx(0.5)


class TestResilienceAnalyzer:
    def _ctx_with_outage(self):
        metrics = MetricsRecorder()
        trace = TraceLog()
        # Signal: up 0-10, down 10-20 (the disruption), up from 20.
        metrics.set_level("up:d1", 0.0, 1.0)
        metrics.set_level("up:d1", 10.0, 0.0)
        metrics.set_level("up:d1", 20.0, 1.0)
        return EvaluationContext(metrics=metrics, trace=trace)

    def test_baseline_vs_disruption_split(self):
        ctx = self._ctx_with_outage()
        requirement = AvailabilityRequirement(series_names=["up:d1"], target=1.0)
        analyzer = ResilienceAnalyzer([requirement], window=1.0)
        report = analyzer.analyze(ctx, 30.0, [(10.0, 20.0)])
        assessment = report.assessments[0]
        assert assessment.baseline == pytest.approx(1.0)
        assert assessment.under_disruption == pytest.approx(0.0)
        assert report.resilience_score == pytest.approx(0.0)

    def test_recovery_time_zero_when_instant(self):
        ctx = self._ctx_with_outage()
        requirement = AvailabilityRequirement(series_names=["up:d1"], target=1.0)
        analyzer = ResilienceAnalyzer([requirement], window=1.0)
        report = analyzer.analyze(ctx, 30.0, [(10.0, 20.0)])
        assessment = report.assessments[0]
        assert assessment.recovery_times == [0.0]
        assert assessment.mean_recovery_time == 0.0
        assert assessment.unrecovered == 0

    def test_unrecovered_counted_as_inf(self):
        metrics = MetricsRecorder()
        metrics.set_level("up:d1", 0.0, 1.0)
        metrics.set_level("up:d1", 10.0, 0.0)   # never comes back
        ctx = EvaluationContext(metrics=metrics, trace=TraceLog())
        requirement = AvailabilityRequirement(series_names=["up:d1"], target=1.0)
        analyzer = ResilienceAnalyzer([requirement], window=1.0)
        report = analyzer.analyze(ctx, 30.0, [(10.0, 15.0)])
        assessment = report.assessments[0]
        assert assessment.unrecovered == 1
        assert assessment.mean_recovery_time is None

    def test_weighted_score(self):
        ctx = self._ctx_with_outage()
        strong = AvailabilityRequirement(series_names=["up:d1"], target=1.0,
                                         name="heavy", weight=3.0)
        # A second requirement that's always satisfied.
        ctx.metrics.set_level("up:d2", 0.0, 1.0)
        light = AvailabilityRequirement(series_names=["up:d2"], target=1.0,
                                        name="light", weight=1.0)
        analyzer = ResilienceAnalyzer([strong, light], window=1.0)
        report = analyzer.analyze(ctx, 30.0, [(10.0, 20.0)])
        assert report.resilience_score == pytest.approx(0.25)   # (3*0 + 1*1) / 4

    def test_invalid_window_raises(self):
        with pytest.raises(ValueError):
            ResilienceAnalyzer([], window=0.0)

    def test_assessment_lookup(self):
        ctx = self._ctx_with_outage()
        requirement = AvailabilityRequirement(series_names=["up:d1"],
                                              name="avail", target=1.0)
        report = ResilienceAnalyzer([requirement]).analyze(ctx, 30.0, [])
        assert report.assessment("avail").name == "avail"
        with pytest.raises(KeyError):
            report.assessment("ghost")


class TestVectors:
    def test_table_complete(self):
        assert len(MATURITY_TABLE) == 5 * 4
        for vector in DisruptionVector:
            row = {ml: MATURITY_TABLE[(vector, ml)] for ml in MaturityLevel}
            assert set(row) == set(MaturityLevel)
            assert all(isinstance(text, str) and text for text in row.values())

    def test_feature_monotonicity(self):
        """Mechanisms only accumulate as maturity rises."""
        ml1 = features_of(MaturityLevel.ML1)
        ml2 = features_of(MaturityLevel.ML2)
        ml3 = features_of(MaturityLevel.ML3)
        ml4 = features_of(MaturityLevel.ML4)
        assert not ml1.has_cloud and ml2.has_cloud
        assert not ml2.edge_compute and ml3.edge_compute
        assert not ml3.failover_replacement and ml4.failover_replacement
        assert not ml3.data_replication and ml4.data_replication
        assert ml4.governance_enforced and ml3.governance_enforced
        assert not ml2.governance_enforced

    def test_levels_ordered(self):
        assert MaturityLevel.ML1 < MaturityLevel.ML4


class TestIoTSystem:
    def test_landscape_construction(self):
        system = IoTSystem.with_edge_cloud_landscape(2, 3, seed=1)
        assert len(system.fleet) == 1 + 2 + 6   # cloud + edges + devices
        assert system.edge_nodes == ["edge0", "edge1"]
        assert "d1.2" in system.sites["edge1"]
        assert "d1.2" not in system.sites["edge0"]

    def test_domain_per_site(self):
        system = IoTSystem.with_edge_cloud_landscape(2, 1, seed=1,
                                                     domain_per_site=True)
        assert system.device("d0.0").domain == "dom0"
        assert system.device("d1.0").domain == "dom1"

    def test_run_advances_clock(self):
        system = IoTSystem(seed=1)
        system.run(until=5.0)
        assert system.sim.now == 5.0


class TestAssessment:
    def _report(self, label):
        metrics = MetricsRecorder()
        metrics.set_level("up:d1", 0.0, 1.0)
        ctx = EvaluationContext(metrics=metrics, trace=TraceLog())
        requirement = AvailabilityRequirement(series_names=["up:d1"],
                                              name="avail", target=1.0)
        return ResilienceAnalyzer([requirement]).analyze(
            ctx, 10.0, [(2.0, 4.0)], label=label)

    def test_comparison_table_renders(self):
        table = comparison_table([self._report("A"), self._report("B")])
        assert "avail" in table
        assert "A" in table and "B" in table
        assert "resilience score" in table

    def test_recovery_table_renders(self):
        assert "resilience score" in recovery_table([self._report("A")])

    def test_empty_table(self):
        assert comparison_table([]) == "(no reports)"
