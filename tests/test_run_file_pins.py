"""Run-file pins: the bytes of every file a run is rebuilt from, pinned.

A resume, a replay, ``shard verify`` and ``incident replay`` read back
what a run wrote.  This file holds those writers to the committed bytes
of fixed runs:

* ``checkpoint control-outage --at 45``: ``checkpoint.json`` and
  ``journal.jsonl``, then the journal once ``resume`` has truncated and
  finished it, and the ``divergence.json`` a replay of an edited copy
  writes;
* ``shard run smart-city-federated --quick --shards 2 --workers 1
  --checkpoint-every 2 --stop-after 4``: ``manifest.json`` and each
  shard's ``inbox.jsonl``, ``journal.jsonl`` and ``checkpoint.json``,
  then the same files once ``shard resume`` has cut and finished them;
* every file of the incident bundle ``capture_gate_incident`` writes for
  quick ``traffic-overload``.

Files that carry wall-clock readings (a profile snapshot and a BENCH
snapshot) are pinned by format instead: decoding one and encoding it the
way its writer does gives back its bytes.

A change that *means* to alter a run file regenerates the table and says
so in its description::

    PYTHONPATH=src python tests/test_run_file_pins.py --regen
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shutil
import sys
import tempfile

import pytest

from repro.cli import main

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "run_file_pins.json")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_FEDERATION = ["shard", "run", "smart-city-federated", "--quick",
               "--shards", "2", "--workers", "1", "--checkpoint-every", "2",
               "--stop-after", "4"]
_SHARD_FILES = tuple(f"shard-{shard}/{name}" for shard in range(2)
                     for name in ("inbox.jsonl", "journal.jsonl",
                                  "checkpoint.json"))


def _quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _pin(table, prefix, directory, names):
    for name in names:
        table[f"{prefix}/{name}"] = _sha256(os.path.join(directory, name))


def _edit_one_label(path):
    """Change the label of the journal's 100th event line."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    events = [n for n, line in enumerate(lines) if '"type":"event"' in line]
    record = json.loads(lines[events[99]])
    record["label"] = "edited"
    lines[events[99]] = json.dumps(record, sort_keys=True,
                                   separators=(",", ":")) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def collect(directory):
    """``{"<run>/<file>": sha256}`` for every pinned file."""
    from repro.observability.flight import capture_gate_incident
    from repro.persistence import replay_journal, write_divergence_report
    from repro.scenarios import describe_scenario

    table = {}
    checkpoint = os.path.join(directory, "checkpoint")
    assert _quiet(["checkpoint", "control-outage", "--at", "45",
                   "--out", checkpoint]) == 0
    _pin(table, "checkpoint", checkpoint, ("checkpoint.json", "journal.jsonl"))
    edited = os.path.join(directory, "edited.jsonl")
    shutil.copyfile(os.path.join(checkpoint, "journal.jsonl"), edited)
    _edit_one_label(edited)
    divergence = os.path.join(directory, "divergence.json")
    write_divergence_report(replay_journal(edited), divergence)
    table["replay/divergence.json"] = _sha256(divergence)
    assert _quiet(["resume", "--out", checkpoint]) == 0
    _pin(table, "resume", checkpoint, ("journal.jsonl",))

    federation = os.path.join(directory, "federation")
    assert _quiet(_FEDERATION + ["--out", federation]) == 0
    names = ("manifest.json",) + _SHARD_FILES
    _pin(table, "shard-run", federation, names)
    assert _quiet(["shard", "resume", "--out", federation]) == 0
    _pin(table, "shard-resume", federation, names)

    bundle = capture_gate_incident(
        describe_scenario("traffic-overload").spec(True),
        os.path.join(directory, "incident"))
    _pin(table, "incident", bundle, sorted(os.listdir(bundle)))
    return table


def _load_pins():
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def pins():
    return _load_pins()


@pytest.fixture(scope="module")
def collected(tmp_path_factory):
    return collect(str(tmp_path_factory.mktemp("run-files")))


def test_every_run_file_is_pinned(pins, collected):
    assert sorted(collected) == sorted(pins)


@pytest.mark.parametrize("name", sorted(_load_pins()))
def test_run_file_bytes_match_the_pin(pins, collected, name):
    assert collected[name] == pins[name], (
        f"{name} changed bytes; if that is meant, regenerate with "
        "`PYTHONPATH=src python tests/test_run_file_pins.py --regen`")


def _writer_bytes(path):
    """The file's bytes, and the bytes its writer gives the decoded file:
    two-space indent, sorted keys, a final newline."""
    with open(path, "rb") as fh:
        data = fh.read()
    again = json.dumps(json.loads(data), indent=2, sort_keys=True) + "\n"
    return data, again.encode("utf-8")


def test_a_profile_snapshot_is_in_its_writer_format(tmp_path):
    out = str(tmp_path / "profile")
    assert _quiet(["profile", "run", "traffic-overload", "--quick",
                   "--out", out]) == 0
    data, again = _writer_bytes(os.path.join(out, "profile.json"))
    assert data == again


def test_a_bench_snapshot_is_in_its_writer_format(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "repro_bench_regress", os.path.join(REPO_ROOT, "benchmarks",
                                            "regress.py"))
    regress = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regress)
    baselines = os.path.join(REPO_ROOT, "benchmarks", "baselines")
    newest = regress.numbered_snapshots(baselines)[-1][1]
    written = regress.write_snapshot(regress.load_snapshot(newest),
                                     str(tmp_path), number=1)
    for path in (newest, written):
        data, again = _writer_bytes(path)
        assert data == again, path


if __name__ == "__main__":
    if "--regen" not in sys.argv:
        sys.exit("usage: PYTHONPATH=src python tests/test_run_file_pins.py "
                 "--regen")
    with tempfile.TemporaryDirectory() as scratch:
        fresh = collect(scratch)
    with open(PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(fresh, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(fresh)} pins to {PINS_PATH}")
