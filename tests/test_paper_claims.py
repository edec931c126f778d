"""The paper's claims as a gate: every artifact holds at both sizes, and a
broken claim fails its command, ``all`` and ``--json``."""

import copy
import json
import os
import re

import pytest

from repro import paper
from repro.cli import PAPER_ARTIFACTS, command_table, main

NAMES = [name for name, _ in PAPER_ARTIFACTS]
EXPERIMENTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "EXPERIMENTS.md")


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
@pytest.mark.parametrize("name", NAMES)
def test_every_claim_holds(name, quick):
    tables, claims = getattr(paper, name)(quick)
    verdict = paper.judge(claims)
    assert verdict.ok and not verdict.failures, verdict.failures
    assert tables and claims


BROKEN = "the stubbed artifact's claim"


@pytest.fixture
def one_broken_claim(monkeypatch):
    """Every artifact cheap and passing, except ``control``."""
    table = {"title": "stub", "headers": ["metric"], "rows": [[1]]}
    for name in NAMES:
        monkeypatch.setattr(paper, name,
                            lambda quick, name=name: ([table], [(name, True)]))
    monkeypatch.setattr(paper, "control",
                        lambda quick: ([table], [("holds", True),
                                                 (BROKEN, False)]))


def test_a_broken_claim_fails_its_command_and_all(one_broken_claim, capsys):
    assert main(["mape"]) == 0
    assert "PAPER GATE: OK (1/1 claims)" in capsys.readouterr().out
    assert main(["control"]) == 1
    out = capsys.readouterr().out
    assert "PAPER GATE: FAIL (1/2 claims)" in out and BROKEN in out
    assert main(["all"]) == 1
    assert capsys.readouterr().out.count("PAPER GATE:") == len(NAMES)


@pytest.mark.parametrize("argv", [["control"], ["all"]])
def test_json_names_the_broken_claim(one_broken_claim, argv, capsys):
    assert main(["--json", *argv]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["exit_code"] == 1
    gate = next(t["data"] for t in doc["tables"]
                if t.get("title") == "paper: control")
    assert not gate["ok"] and gate["failures"] == [BROKEN]
    assert {"claim": BROKEN, "holds": False} in gate["claims"]


def test_every_experiment_names_a_command():
    commands = {row.name for row in command_table()}
    with open(EXPERIMENTS, encoding="utf-8") as fh:
        lines = [line for line in fh if line.startswith("**Experiment.**")]
    assert len(lines) >= len(NAMES)
    for line in lines:
        named = re.search(r"`python -m repro ([a-z]+)`", line)
        assert named and named.group(1) in commands, line


def test_the_ablation_leaves_the_feature_table_alone(capsys):
    from repro.core.vectors import MATURITY_FEATURES

    table = copy.deepcopy(MATURITY_FEATURES)
    assert main(["--json", "maturity", "--quick"]) == 0
    before = capsys.readouterr().out
    assert main(["ablations"]) == 0
    assert MATURITY_FEATURES == table
    capsys.readouterr()
    assert main(["--json", "maturity", "--quick"]) == 0
    assert capsys.readouterr().out == before
