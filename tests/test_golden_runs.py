"""Golden runs: every registered scenario pinned to committed bytes.

Every other determinism test compares two runs made by the *same*
checkout (resume vs uninterrupted, replay vs journal, K shards vs K
shards), so a refactor that changes what a run computes -- one RNG draw
moved, one tie broken the other way -- passes them all.  This table is
the other half: for every registered scenario x declared variant, at its
descriptor's quick params, the final ``system_digest``, the SHA-256 of
the journal ``run_scenario`` wrote and the number of events it fired are
compared with ``golden_runs.json``.  The ``chaos[...]`` grid adds every
maturity level x traffic x adversary over one crash, so the defences each
level wires are pinned too.  The ``federation[K=k]`` rows pin the
in-memory federation path (``ShardedSimulator`` of the quick
``smart-city-federated`` spec over k shards, no journal, no out
directory): its federation digest and total event count.  CI asserts it on every supported
Python and under two ``PYTHONHASHSEED`` values (environment equivalence,
ROADMAP item 3).

A change that *means* to alter a run regenerates the table and says so
in its description::

    PYTHONPATH=src python tests/test_golden_runs.py --regen

There is deliberately no switch that skips the comparison.
"""

import hashlib
import json
import os
import sys
import tempfile

import pytest

from repro.chaos import AdversaryAxis, ChaosSpec, FaultEvent, TrafficAxis
from repro.persistence import describe_scenario, run_scenario, scenario_names
from repro.shard import ShardedSimulator

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_runs.json")


def _chaos_grid():
    """``chaos[...]`` rows: every maturity level x traffic x adversary
    over one edge crash, so each level's defence wiring is pinned."""
    rows = []
    for maturity in (1, 2, 3, 4):
        for pattern in ("none", "steady", "retry-storm"):
            for attack in ("none", "flood", "sybil-flood"):
                spec = ChaosSpec(
                    traffic=TrafficAxis(
                        pattern=pattern,
                        users=0 if pattern == "none" else 1500),
                    faults=(FaultEvent("crash", 2.0, 2.0, "edge0"),),
                    adversary=AdversaryAxis(attack=attack, at=4.0, rate=400.0),
                    maturity=maturity, horizon=8.0, seed=5)
                rows.append((f"chaos[ML{maturity},{pattern},{attack}]",
                             describe_scenario("chaos").spec(
                                 spec=spec.to_dict())))
    return rows


def _rows():
    """``(row id, spec)`` for every scenario x variant, in registry order,
    then the chaos grid."""
    rows = []
    for name in scenario_names():
        scenario = describe_scenario(name)
        if not scenario.variants:
            rows.append((name, scenario.spec(quick=True)))
        for variant in scenario.variants:
            rows.append((f"{name}[{variant}]", scenario.spec(
                quick=True, **{scenario.variant_param: variant})))
    return rows + _chaos_grid()


def _measure(spec, directory):
    journal_path = os.path.join(directory, "journal.jsonl")
    result = run_scenario(spec, journal_path=journal_path)
    with open(journal_path, "rb") as fh:
        journal_sha256 = hashlib.sha256(fh.read()).hexdigest()
    return {"digest": result.final_digest,
            "journal_sha256": journal_sha256,
            "fired": result.system.sim.fired_count}


def _load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _measure_federation(shards):
    """One in-memory federation run, in-process (the digest does not
    depend on the worker count)."""
    spec = describe_scenario("smart-city-federated").spec(quick=True)
    result = ShardedSimulator(spec, shards=shards, workers=1).run()
    return {"federation_digest": result.federation_digest,
            "events": result.events}


ROWS = _rows()
FEDERATION_ROWS = [(f"federation[K={k}]", k) for k in (1, 2, 4)]


def test_golden_table_covers_every_registered_row():
    """A new scenario or variant lands with its golden row (``--regen``),
    and a deleted one takes its row with it."""
    assert sorted(_load_golden()) == sorted(
        row_id for row_id, _ in ROWS + FEDERATION_ROWS)


@pytest.mark.parametrize("row_id,spec", ROWS, ids=[r for r, _ in ROWS])
def test_run_matches_golden(tmp_path, row_id, spec):
    assert _measure(spec, str(tmp_path)) == _load_golden()[row_id]


@pytest.mark.parametrize("row_id,shards", FEDERATION_ROWS,
                         ids=[r for r, _ in FEDERATION_ROWS])
def test_federation_matches_golden(row_id, shards):
    assert _measure_federation(shards) == _load_golden()[row_id]


def _regen():
    table = {}
    for row_id, spec in ROWS:
        with tempfile.TemporaryDirectory(prefix="golden-") as directory:
            table[row_id] = _measure(spec, directory)
        print(f"{row_id}: {table[row_id]['digest'][:12]} "
              f"{table[row_id]['fired']} events")
    for row_id, shards in FEDERATION_ROWS:
        table[row_id] = _measure_federation(shards)
        print(f"{row_id}: {table[row_id]['federation_digest'][:12]} "
              f"{table[row_id]['events']} events")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table)} rows to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: python {sys.argv[0]} --regen")
    _regen()
