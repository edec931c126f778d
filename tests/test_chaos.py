"""The chaos plane: specs, compiler, campaigns, shrinking and the corpus."""

import dataclasses
import json
import os

import pytest

from repro.chaos import (
    AdversaryAxis,
    ChaosSpec,
    CompileError,
    FaultEvent,
    SpecSampler,
    SplitMix64,
    TopologyAxis,
    TrafficAxis,
    compile_spec,
    corpus_bundles,
    emit_bundle,
    load_bundle_spec,
    persistence_spec,
    replay_corpus,
    run_case,
    shrink_spec,
)
from repro.chaos.shrink import ShrinkReport
from repro.core.vectors import MaturityFeatures, MaturityLevel, features_of

#: The canonical rediscovery target: a naive edge under aggressive
#: retries loses its server mid-storm and never recovers (EXPERIMENTS
#: CHAOS-1 finds this same shape from campaign seed 84).
COLLAPSE = ChaosSpec(
    topology=TopologyAxis(sites=2, devices_per_site=1),
    traffic=TrafficAxis(pattern="retry-storm", users=3500),
    faults=(FaultEvent(kind="crash", at=6.0, duration=4.0, target="edge0"),),
    maturity=1, horizon=25.0, seed=7)

#: A small healthy spec for determinism / round-trip / corpus plumbing.
SMALL = ChaosSpec(
    topology=TopologyAxis(sites=2, devices_per_site=1),
    traffic=TrafficAxis(pattern="steady", users=500),
    horizon=8.0, seed=5)

#: A many-axis spec for round-trip and shrink-order tests.
BIG = ChaosSpec(
    workload="smart-city",
    topology=TopologyAxis(sites=3, devices_per_site=2),
    traffic=TrafficAxis(pattern="retry-storm", users=3200),
    faults=(FaultEvent(kind="crash", at=6.0, duration=4.0, target="edge0"),
            FaultEvent(kind="latency", at=9.0, duration=3.0,
                       target="edge1:cloud")),
    adversary=AdversaryAxis(attack="sybil-flood", at=5.0, rate=500.0),
    maturity=2, horizon=25.0, seed=13)


class TestSplitMix64:
    def test_same_seed_same_stream(self):
        a = [SplitMix64(99).next_u64() for _ in range(8)]
        b = [SplitMix64(99).next_u64() for _ in range(8)]
        assert a == b

    def test_randint_is_inclusive_and_in_range(self):
        rng = SplitMix64(3)
        draws = {rng.randint(1, 4) for _ in range(200)}
        assert draws == {1, 2, 3, 4}


class TestSpecRoundTrip:
    @pytest.mark.parametrize("spec", [ChaosSpec(), SMALL, COLLAPSE, BIG])
    def test_dict_round_trip_is_identity(self, spec):
        assert ChaosSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("spec", [ChaosSpec(), SMALL, COLLAPSE, BIG])
    def test_json_round_trip_is_identity(self, spec):
        assert ChaosSpec.from_dict(json.loads(spec.to_json())) == spec

    def test_json_is_canonical(self):
        # Same value -> same bytes -> same digest, regardless of how the
        # spec was constructed.
        rebuilt = ChaosSpec.from_dict(json.loads(BIG.to_json()))
        assert rebuilt.to_json() == BIG.to_json()
        assert rebuilt.digest() == BIG.digest()

    def test_digest_distinguishes_specs(self):
        assert SMALL.digest() != SMALL.with_seed(6).digest()

    def test_validate_rejects_out_of_domain_axes(self):
        bad = [
            ChaosSpec(workload="volcano"),
            ChaosSpec(topology=TopologyAxis(sites=1)),
            ChaosSpec(traffic=TrafficAxis(pattern="steady", users=0)),
            ChaosSpec(faults=(FaultEvent(kind="meteor", at=1.0,
                                         duration=1.0, target="edge0"),)),
            ChaosSpec(faults=(FaultEvent(kind="link", at=1.0,
                                         duration=1.0, target="edge0"),)),
            ChaosSpec(adversary=AdversaryAxis(attack="ddos")),
            ChaosSpec(maturity=5),
        ]
        for spec in bad:
            with pytest.raises(ValueError):
                spec.validate()


class TestSampler:
    def test_sampling_is_deterministic(self):
        a = [SpecSampler(84).sample(i) for i in range(6)]
        b = [SpecSampler(84).sample(i) for i in range(6)]
        assert a == b

    def test_samples_are_valid_and_distinct(self):
        specs = [SpecSampler(7).sample(i) for i in range(10)]
        for spec in specs:
            spec.validate()
        assert len({spec.digest() for spec in specs}) == len(specs)


class TestCompiler:
    def test_compile_is_deterministic(self):
        a = run_case(SMALL)
        b = run_case(SMALL)
        assert a.digest == b.digest
        assert a.events == b.events

    def test_campaign_run_matches_journaled_scenario_run(self, tmp_path):
        # The digest-neutrality contract: a case driven by the campaign
        # harness is byte-for-byte the run the persistence runner
        # journals for the same spec -- that equality is what makes
        # corpus bundles replayable.
        from repro.persistence import run_scenario

        case = run_case(SMALL)
        journaled = run_scenario(persistence_spec(SMALL),
                                 journal_path=str(tmp_path / "j.jsonl"))
        assert journaled.final_digest == case.digest

    def test_compile_rejects_unknown_fault_target(self):
        spec = ChaosSpec(faults=(FaultEvent(
            kind="crash", at=1.0, duration=1.0, target="edge99"),))
        with pytest.raises(CompileError):
            compile_spec(spec)

    def test_naive_collapse_is_found_and_maturity_fixes_it(self):
        naive = run_case(COLLAPSE)
        assert "slo:chaos-goodput" in naive.violations
        hardened = run_case(ChaosSpec.from_dict(
            {**COLLAPSE.to_dict(), "maturity": 3}))
        assert "slo:chaos-goodput" not in hardened.violations
        assert "gate:goodput-recovery" not in hardened.violations


class TestMaturityFlags:
    """A level's defences are its row of ``MATURITY_FEATURES``: the
    compiler wires each one exactly when that row's flag is set."""

    @pytest.mark.parametrize("level", list(MaturityLevel))
    def test_each_defence_is_wired_exactly_when_its_flag_is_set(self, level):
        features = features_of(level)
        aux = compile_spec(ChaosSpec(
            traffic=TrafficAxis(pattern="retry-storm", users=500),
            adversary=AdversaryAxis(attack="sybil-flood"),
            maturity=int(level), horizon=8.0)).aux
        assert (aux["edge"].admission is not None) == \
            features.admission_control
        assert (aux["client"].breaker is not None) == \
            features.retry_containment
        assert (aux["client"].budget is not None) == \
            features.retry_containment
        assert ("backpressure_loop" in aux) == features.backpressure_offload
        assert ("sentry" in aux) == features.intrusion_response
        assert ("intrusion_loop" in aux) == features.intrusion_response
        gated = aux["members"]["edge0"].update_filter is not None
        assert gated == features.intrusion_response

    def test_every_defence_flag_is_monotone_in_level(self):
        rows = [features_of(level) for level in MaturityLevel]
        flags = [f.name for f in dataclasses.fields(MaturityFeatures)
                 if isinstance(getattr(rows[0], f.name), bool)]
        assert {"admission_control", "retry_containment",
                "backpressure_offload", "intrusion_response"} <= set(flags)
        for flag in flags:
            values = [getattr(row, flag) for row in rows]
            assert values == sorted(values), flag


class TestShrinker:
    def test_converges_on_synthetic_failing_axis(self):
        # Oracle: the spec fails iff any fault is scheduled.  The
        # shrinker must strip every other axis and keep exactly the
        # first fault.
        def oracle(spec):
            return ("synthetic:fault",) if spec.faults else ()

        report = shrink_spec(BIG, oracle=oracle)
        assert isinstance(report, ShrinkReport)
        assert report.spec.faults and len(report.spec.faults) == 1
        assert report.spec.workload == "none"
        assert report.spec.traffic.pattern == "none"
        assert report.spec.adversary.attack == "none"
        assert report.spec.topology == TopologyAxis(sites=2,
                                                    devices_per_site=1)
        assert report.spec.axis_count() == 1
        assert report.violations == ("synthetic:fault",)

    def test_is_deterministic(self):
        def oracle(spec):
            return ("x",) if spec.adversary.attack != "none" else ()

        a = shrink_spec(BIG, oracle=oracle)
        b = shrink_spec(BIG, oracle=oracle)
        assert a.spec == b.spec
        assert a.attempts == b.attempts
        assert a.accepted == b.accepted

    def test_refuses_passing_spec(self):
        with pytest.raises(ValueError):
            shrink_spec(SMALL, oracle=lambda spec: ())

    def test_never_touches_maturity_or_horizon(self):
        def oracle(spec):
            return ("x",)

        report = shrink_spec(BIG, oracle=oracle)
        assert report.spec.maturity == BIG.maturity
        assert report.spec.horizon == BIG.horizon


def _mix_specs(count=12):
    """The repo benchmark's chaos mix: campaign 84's specs at horizon 12."""
    sampler = SpecSampler(84, horizon=12.0)
    return [sampler.sample(index) for index in range(count)]


class TestCaseLifecycle:
    def test_finished_cases_leave_no_trace_events_as_garbage(self):
        """Each case closes its system, so nothing it traced waits for a
        full collection (30,885 TraceEvents did over these twelve)."""
        import gc

        from repro.simulation.trace import TraceEvent

        specs = _mix_specs()
        gc.collect()
        gc.disable()
        try:
            for spec in specs:
                run_case(spec)
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            left = sum(1 for obj in gc.garbage if type(obj) is TraceEvent)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert left == 0

    @pytest.mark.parametrize("index", [3, 7, 8])
    def test_closing_changes_no_result(self, index):
        """Closing comes after the digest and the gates: a case equals one
        driven and judged by hand without a close."""
        from repro.chaos import ScenarioCompiler, judge_case
        from repro.persistence.runner import drive
        from repro.persistence.snapshot import system_digest

        spec = _mix_specs()[index]
        prepared = ScenarioCompiler().compile(spec)
        drive(prepared.system, prepared.horizon)
        digest = system_digest(prepared.system)
        violations, gates = judge_case(spec, prepared)
        case = run_case(spec)
        assert (case.digest, case.events, case.violations, case.gates) == (
            digest, prepared.system.sim.fired_count, tuple(violations),
            gates)
        assert gates
        assert prepared.system.sim.pending_count > 0

    def test_a_case_closes_its_system(self, monkeypatch):
        from repro.chaos import ScenarioCompiler

        built = []
        compile_one = ScenarioCompiler.compile

        def keep(self, spec):
            prepared = compile_one(self, spec)
            built.append(prepared.system)
            return prepared

        monkeypatch.setattr(ScenarioCompiler, "compile", keep)
        case = run_case(SMALL)
        (system,) = built
        assert system.sim.pending_count == 0 and len(system.trace) == 0
        assert system.trace.dropped > 0
        # What the benchmark and reports read after a case stays.
        assert system.sim.fired_count == case.events
        assert system.metrics.total_points() > 0
        assert system.network.stats.sent > 0


class TestCorpus:
    def test_emit_and_replay_bitwise_identity(self, tmp_path):
        corpus = str(tmp_path / "corpus")
        bundle = emit_bundle(SMALL, corpus, violations=("test:gate",),
                             campaign_seed=84, case_index=0)
        assert corpus_bundles(corpus) == [bundle]
        assert load_bundle_spec(bundle) == SMALL

        verdicts, ok = replay_corpus(corpus)
        assert ok
        assert len(verdicts) == 1
        manifest = json.load(open(os.path.join(bundle, "manifest.json")))
        assert verdicts[0].digest == manifest["barrier"]["digest"]
        assert verdicts[0].barrier_fired == manifest["barrier"]["fired"]

    def test_emission_is_deterministic_bytes(self, tmp_path):
        # Two emissions of the same spec produce identical artifacts --
        # no wall clock anywhere in a bundle.
        first = emit_bundle(SMALL, str(tmp_path / "a"))
        second = emit_bundle(SMALL, str(tmp_path / "b"))
        for name in ("spec.json", "manifest.json", "journal.jsonl",
                     "checkpoint.json"):
            with open(os.path.join(first, name), "rb") as fh:
                a = fh.read()
            with open(os.path.join(second, name), "rb") as fh:
                b = fh.read()
            assert a == b, name

    def test_empty_corpus_is_vacuously_ok(self, tmp_path):
        verdicts, ok = replay_corpus(str(tmp_path / "nothing"))
        assert verdicts == [] and ok

    def test_corrupt_bundle_fails_replay_not_corpus(self, tmp_path):
        corpus = str(tmp_path / "corpus")
        bundle = emit_bundle(SMALL, corpus)
        with open(os.path.join(bundle, "checkpoint.json"), "w") as fh:
            fh.write("{not json")
        verdicts, ok = replay_corpus(corpus)
        assert not ok
        assert verdicts[0].error


class TestUnifiedRegistry:
    def test_catalog_covers_every_registered_scenario(self):
        from repro.scenarios import catalog, scenario_names

        names = {info.name for info in catalog()}
        assert names == set(scenario_names())
        assert "chaos" in names

    def test_catalog_attributes_planes_and_variants(self):
        from repro.scenarios import describe_scenario

        overload = describe_scenario("traffic-overload")
        assert overload.plane == "traffic"
        assert "admission" in overload.variants
        assert overload.description
        assert describe_scenario("chaos").plane == "chaos"

    def test_unknown_scenario_raises_with_available(self):
        from repro.scenarios import UnknownScenarioError, describe_scenario

        with pytest.raises(UnknownScenarioError) as excinfo:
            describe_scenario("no-such")
        assert excinfo.value.name == "no-such"
        assert "chaos" in excinfo.value.available

    def test_chaos_spec_runs_via_registry(self):
        from repro.persistence import prepare

        prepared = prepare(persistence_spec(SMALL))
        assert prepared.horizon == SMALL.horizon
        assert prepared.aux["chaos_spec"] == SMALL
