"""The scenario descriptor contract and the gates that ride on it."""

import json
import os

import pytest

from repro.cli import main
from repro.scenarios import (
    ScenarioSpec,
    catalog,
    describe_scenario,
    prepare,
    scenario_names,
)


@pytest.mark.parametrize("name", scenario_names())
class TestDescriptorContract:
    def test_names_a_plane_and_a_one_line_description(self, name):
        scenario = describe_scenario(name)
        assert scenario.name == name
        assert scenario.plane
        assert scenario.description and "\n" not in scenario.description

    def test_declared_variants_and_quick_params_prepare(self, name):
        scenario = describe_scenario(name)
        default = prepare(scenario.spec())
        quick = prepare(scenario.spec(quick=True))
        assert quick.horizon <= default.horizon
        for variant in scenario.variants:
            prepared = prepare(scenario.spec(
                quick=True, **{scenario.variant_param: variant}))
            assert prepared.horizon == quick.horizon

    def test_monitored_scenarios_carry_their_monitor(self, name):
        scenario = describe_scenario(name)
        if not scenario.monitored:
            pytest.skip("not a monitored scenario")
        prepared = prepare(scenario.spec(quick=True, monitored=True))
        assert prepared.aux["monitor"] is not None

    def test_gate_runs_variants_the_scenario_declares(self, name):
        scenario = describe_scenario(name)
        if scenario.gate is None:
            pytest.skip("not a gated scenario")
        assert scenario.gate.variants
        assert set(scenario.gate.variants) <= set(scenario.variants)


def test_spec_applies_quick_params_under_explicit_ones():
    overload = describe_scenario("traffic-overload")
    assert overload.spec() == ScenarioSpec("traffic-overload")
    assert overload.spec(quick=True).params == {"horizon": 15.0}
    assert overload.spec(quick=True, seed=3, horizon=9.0, variant="naive") \
        == ScenarioSpec("traffic-overload", seed=3,
                        params={"horizon": 9.0, "variant": "naive"})


def test_scenarios_list_json_is_the_descriptor_dump(capsys):
    assert main(["scenarios", "list", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    data = next(t for t in doc["tables"] if t.get("title") == "scenarios")
    assert data["data"]["scenarios"] == [s.to_dict() for s in catalog()]


class TestGateVerdicts:
    """Each gate is a pure function of one result per variant."""

    def test_overload_gate_threshold(self):
        judge = describe_scenario("traffic-overload").gate.judge
        assert judge({"admission": {"goodput_vs_capacity": 0.8}}).ok
        verdict = judge({"admission": {"goodput_vs_capacity": 0.79}})
        assert not verdict.ok
        assert verdict.summary == "admission goodput at 79% of capacity"
        assert verdict.incident_params == {"variant": "admission"}
        assert verdict.detail == {"goodput_vs_capacity": 0.79}

    def test_retry_storm_gate_threshold(self):
        judge = describe_scenario("traffic-retry-storm").gate.judge
        assert judge({"resilient": {"recovery_ratio": 0.9}}).ok
        verdict = judge({"resilient": {"recovery_ratio": 0.5}})
        assert not verdict.ok and verdict.failures == (verdict.summary,)
        assert verdict.incident_params == {"variant": "resilient"}

    def test_byzantine_gate_needs_naive_failure_and_defended_hold(self):
        judge = describe_scenario("security-byzantine-gossip").gate.judge
        clean = {"converged": True, "converged_at": 2.0}
        naive = {"converged": False, "attacker": "edge4"}
        held = {"converged": True, "converged_at": 3.0,
                "quarantined": ["edge4"]}
        verdict = judge({"clean": clean, "naive": naive, "defended": held})
        assert verdict.ok and "3.0s vs clean 2.0s" in verdict.summary
        slow = dict(held, converged_at=4.5, quarantined=[])
        verdict = judge({"clean": clean, "naive": dict(naive, converged=True),
                         "defended": slow})
        assert verdict.failures == (
            "naive mesh converged despite the equivocator",
            "defended convergence 4.5s exceeds 2x clean (2.0s)",
            "defended run did not quarantine the attacker")
        assert verdict.summary == "; ".join(verdict.failures)
        assert verdict.detail == {"failures": list(verdict.failures)}
        assert verdict.incident_params == {"variant": "defended"}

    def test_sybil_gate_needs_collapse_and_hold(self):
        judge = describe_scenario("security-sybil-flood").gate.judge
        results = {"clean": {"goodput": 100.0},
                   "naive": {"goodput": 20.0, "sybil_count": 4},
                   "defended": {"goodput": 95.0, "sybil_count": 0}}
        assert judge(results).ok
        results["defended"] = {"goodput": 80.0, "sybil_count": 2}
        assert len(judge(results).failures) == 2

    def test_raft_gate_needs_double_election_and_one_safe_leader(self):
        judge = describe_scenario("security-raft-equivocation").gate.judge
        naive = {"safety_violated": True, "double_wins": {3: ["a", "b"]}}
        held = {"safety_violated": False, "leader_elected": True,
                "quarantined": ["edge3", "edge4"]}
        assert judge({"naive": naive, "defended": held}).ok
        verdict = judge({"naive": dict(naive, safety_violated=False),
                         "defended": dict(held, leader_elected=False)})
        assert len(verdict.failures) == 2


def test_failed_gate_exits_1_and_captures_a_replayable_incident(
        tmp_path, capsys, monkeypatch):
    """The generic runner's failure leg, forced by an unmeetable budget."""
    import dataclasses

    from repro.persistence import scenarios as registry
    from repro.scenarios import GateVerdict

    scenario = describe_scenario("traffic-overload")
    strict = dataclasses.replace(scenario.gate, judge=lambda results: GateVerdict(
        False, "budget unmeetable", ("budget unmeetable",),
        incident_params={"variant": "admission"}, detail={"why": "test"}))
    monkeypatch.setitem(registry._REGISTRY, scenario.name,
                        dataclasses.replace(scenario, gate=strict))
    assert main(["traffic", "overload", "--quick",
                 "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "TRAFFIC GATE: FAIL (budget unmeetable)" in out
    bundle = os.path.join(str(tmp_path), "incidents", "traffic-overload")
    assert f"incident bundle: {bundle}" in out
    with open(os.path.join(bundle, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["scenario"]["params"] == {"horizon": 15.0,
                                              "variant": "admission"}
    assert manifest["trigger"]["detail"] == {"gate": "traffic-overload",
                                             "why": "test"}
    assert main(["incident", "replay", bundle]) == 0
