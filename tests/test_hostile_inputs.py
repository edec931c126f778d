"""Hostile bytes in every input the CLI reads: exit 0, 1 or 2, no traceback.

One mutator -- flip a bit, truncate, splice a short range out or in, or
swap one JSON value for one of another kind or a non-finite number --
over a real file of each kind, run in-process through the verb that
reads it.  A malformed input is refused (exit 2 and an ``error:`` line); a
wrong value that still has its shape runs and is judged (a replay
divergence or a digest mismatch is exit 1); either way nothing escapes
``main``.  A swapped value inside a checkpoint is resealed, so it reaches
the shape check instead of stopping at the integrity hash.
"""

import glob
import json
import os
import shutil

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chaos import ChaosSpec, emit_bundle
from repro.cli import main
from repro.persistence import ScenarioSpec, run_scenario, run_to_checkpoint
from repro.persistence.snapshot import state_digest
from repro.shard import ShardedSimulator

BASELINES = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                         "baselines")

#: Values of every JSON kind, and the non-finite ones Python writes.
_SWAPS = [None, True, 0, -1, 2.5, 10 ** 400, float("nan"), float("inf"),
          "x", "", [], [1], {}, {"a": 1}]

#: A live hot-load as the journal records it.
_PAYLOAD = {"kind": "fault-schedule",
            "faults": [{"kind": "crash", "at": 0.5, "duration": 2.0,
                        "target": "edge0"}]}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One real run directory per input kind, written once."""
    root = tmp_path_factory.mktemp("hostile")
    spec = ScenarioSpec("control-outage", params={})
    run_to_checkpoint(spec, str(root / "checkpoint"), at=45.0)
    # A journal carrying a reconfig record, as a live hot-load leaves it;
    # the payload's bytes are mutated in place (see ``_with_payload``).
    reconfig = root / "reconfig"
    reconfig.mkdir()
    run_scenario(spec, journal_path=str(reconfig / "journal.jsonl"))
    (reconfig / "payload.json").write_text(json.dumps(_PAYLOAD))
    ShardedSimulator(ScenarioSpec("smart-city-federated", seed=7, params=dict(
        domains=4, devices_per_domain=50, sites_per_domain=1,
        gateways_per_site=1, horizon=2.0, max_event_rate=30.0)),
        shards=2, workers=1, out_dir=str(root / "federation"),
        checkpoint_every=2).run()
    emit_bundle(ChaosSpec(horizon=2.0), str(root / "corpus"))
    profiles = root / "profile"
    profiles.mkdir()
    bench = max(glob.glob(os.path.join(BASELINES, "BENCH_*.json")),
                key=lambda path: int(path.rsplit("_", 1)[1][:-5]))
    shutil.copy(bench, profiles / "bench.json")
    document = json.loads((profiles / "bench.json").read_text())
    (profiles / "profile.json").write_text(json.dumps(
        next(iter(document["profiles"].values())), indent=2))
    return root


#: Input kind -> (run directory, file in it, the verb that reads it).
KINDS = {
    "checkpoint": ("checkpoint", "checkpoint.json", ["resume", "--out"]),
    "journal": ("checkpoint", "journal.jsonl", ["replay", "--out"]),
    "manifest": ("federation", "manifest.json", ["shard", "verify", "--out"]),
    "inbox": ("federation", "shard-0/inbox.jsonl",
              ["shard", "verify", "--out"]),
    "incident": ("corpus", "chaos-*/manifest.json", ["incident", "show"]),
    "incident-replay": ("corpus", "chaos-*/manifest.json",
                        ["incident", "replay"]),
    "spec": ("corpus", "chaos-*/spec.json", ["chaos", "corpus", "--corpus"]),
    "bundle-checkpoint": ("corpus", "chaos-*/checkpoint.json",
                          ["chaos", "corpus", "--corpus"]),
    "profile": ("profile", "profile.json", ["profile", "diff"]),
    "bench": ("profile", "bench.json", ["profile", "diff"]),
    "payload": ("reconfig", "payload.json", ["replay", "--out"]),
}


def _with_payload(directory, payload: bytes) -> None:
    """Insert ``payload`` verbatim as a reconfig record after event 39."""
    path = directory / "journal.jsonl"
    lines = path.read_bytes().split(b"\n")
    barrier = json.loads(lines[39])
    lines.insert(40, b'{"i":%d,"payload":%s,"t":%r,"type":"reconfig"}' % (
        barrier["i"], payload, barrier["t"]))
    path.write_bytes(b"\n".join(lines))


def _paths(node, path=()):
    """Every path to a value inside a parsed JSON document."""
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


def _swapped(document, path, value):
    if not path:
        return value
    *parents, last = path
    node = document
    for key in parents:
        node = node[key]
    node[last] = value
    return document


@st.composite
def mutation(draw, data: bytes, jsonl: bool):
    """``data`` after one flip, truncation, splice or value swap."""
    op = draw(st.sampled_from(["flip", "truncate", "splice", "swap"]))
    if op == "flip":
        at = draw(st.integers(0, len(data) - 1))
        return data[:at] + bytes([data[at] ^ 1 << draw(st.integers(0, 7))]) \
            + data[at + 1:]
    if op == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if op == "splice":
        at = draw(st.integers(0, len(data)))
        to = draw(st.integers(max(0, at - 16), min(len(data), at + 16)))
        return data[:at] + data[to:]
    lines = data.decode().split("\n") if jsonl else [data.decode()]
    index = draw(st.integers(0, len(lines) - 1)) if jsonl else 0
    if not lines[index]:
        return data
    document = json.loads(lines[index])
    path = draw(st.sampled_from(list(_paths(document))))
    old = document
    for key in path:
        old = old[key]
    # Another kind, or a non-finite number: a count never becomes 10**400,
    # which would only ask for a run that long.
    document = _swapped(document, path, draw(st.sampled_from(
        [new for new in _SWAPS if type(new) is not type(old)
         or new != new or new == float("inf")])))
    if isinstance(document, dict) and "integrity" in document \
            and isinstance(document.get("payload"), dict):
        document["integrity"] = state_digest(document["payload"])
    lines[index] = json.dumps(document, sort_keys=True,
                              indent=None if jsonl else 2)
    return "\n".join(lines).encode()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(data=st.data(), kind=st.sampled_from(sorted(KINDS)))
def test_a_mutated_input_fails_closed(runs, tmp_path, capsys, data, kind):
    directory, name, argv = KINDS[kind]
    copy = tmp_path / directory
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(runs / directory, copy)
    target = glob.glob(str(copy / name))[0]
    with open(target, "rb") as fh:
        original = fh.read()
    mutant = data.draw(mutation(original, target.endswith(".jsonl")))
    with open(target, "wb") as fh:
        fh.write(mutant)
    if kind == "payload":
        _with_payload(copy, mutant)
    if argv[:2] == ["profile", "diff"]:
        pristine = runs / directory / name
        argv = [*argv, str(pristine), target]
    elif argv[0] == "incident":
        argv = [*argv, os.path.dirname(target)]
    else:
        argv = [*argv, str(copy)]
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in captured.out + captured.err
    assert code != 2 or "error: " in captured.out + captured.err
