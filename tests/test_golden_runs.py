"""Golden runs: every registered scenario pinned to committed bytes.

Every other determinism test compares two runs made by the *same*
checkout (resume vs uninterrupted, replay vs journal, K shards vs K
shards), so a refactor that changes what a run computes -- one RNG draw
moved, one tie broken the other way -- passes them all.  This table is
the other half: for every registered scenario x declared variant, at its
descriptor's quick params, the final ``system_digest``, the SHA-256 of
the journal ``run_scenario`` wrote and the number of events it fired are
compared with ``golden_runs.json``.  CI asserts it on every supported
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

from repro.persistence import describe_scenario, run_scenario, scenario_names

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_runs.json")


def _rows():
    """``(row id, spec)`` for every scenario x variant, in registry order."""
    rows = []
    for name in scenario_names():
        scenario = describe_scenario(name)
        if not scenario.variants:
            rows.append((name, scenario.spec(quick=True)))
        for variant in scenario.variants:
            rows.append((f"{name}[{variant}]", scenario.spec(
                quick=True, **{scenario.variant_param: variant})))
    return rows


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


ROWS = _rows()


def test_golden_table_covers_every_registered_row():
    """A new scenario or variant lands with its golden row (``--regen``),
    and a deleted one takes its row with it."""
    assert sorted(_load_golden()) == sorted(row_id for row_id, _ in ROWS)


@pytest.mark.parametrize("row_id,spec", ROWS, ids=[r for r, _ in ROWS])
def test_run_matches_golden(tmp_path, row_id, spec):
    assert _measure(spec, str(tmp_path)) == _load_golden()[row_id]


def _regen():
    table = {}
    for row_id, spec in ROWS:
        with tempfile.TemporaryDirectory(prefix="golden-") as directory:
            table[row_id] = _measure(spec, directory)
        print(f"{row_id}: {table[row_id]['digest'][:12]} "
              f"{table[row_id]['fired']} events")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table)} rows to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: python {sys.argv[0]} --regen")
    _regen()
