"""Exporter goldens: the bytes every file exporter writes, pinned.

The byte oracle in ``test_message_path_oracles.py`` holds the exporters to
``json.dumps`` over small generated inputs; this file holds them to the
committed bytes of two real runs:

* ``trace smart-city-partition --quick``: ``spans.jsonl``,
  ``events.jsonl`` and ``trace.chrome.json``;
* ``profile run traffic-overload --quick``: the per-plane
  ``profile.chrome.json`` and both collapsed-stack files.

Each file is recorded as its SHA-256 and its record count (lines, or
``traceEvents`` entries).  ``kernel.folded`` values are wall-clock
microseconds, so its hash is taken over the lines with each value masked
(the stacks, their order and the line count are deterministic).

A change that *means* to alter an export regenerates the table and says
so in its description::

    PYTHONPATH=src python tests/test_export_golden.py --regen
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile

import pytest

from repro.cli import main

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "export_golden.json")

#: ``(command, files it writes that are pinned)``.
RUNS = (
    (["trace", "smart-city-partition", "--quick"],
     ("spans.jsonl", "events.jsonl", "trace.chrome.json")),
    (["profile", "run", "traffic-overload", "--quick"],
     ("profile.chrome.json", "kernel.folded", "spans.folded")),
)

NAMES = sorted(f"{argv[0]}/{name}" for argv, files in RUNS for name in files)

#: The wall-clock value that ends every ``kernel.folded`` line.
_WALL_VALUE = re.compile(rb" \d+$", re.MULTILINE)


def _entry(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith(".json"):
        records = len(json.loads(data)["traceEvents"])
    else:
        records = data.count(b"\n")
    if os.path.basename(path) == "kernel.folded":
        data = _WALL_VALUE.sub(b" <us>", data)
    return {"sha256": hashlib.sha256(data).hexdigest(), "records": records}


def collect(directory):
    """``{"<verb>/<file>": {"sha256", "records"}}`` for every pinned file."""
    table = {}
    for argv, files in RUNS:
        out = os.path.join(directory, argv[0])
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(argv + ["--out", out]) in (0, None), argv
        for name in files:
            table[f"{argv[0]}/{name}"] = _entry(os.path.join(out, name))
    return table


def _load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    return collect(str(tmp_path_factory.mktemp("export-golden")))


def test_every_pinned_file_is_written(exported):
    assert sorted(exported) == sorted(_load_golden()) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_export_matches_golden(exported, name):
    assert exported[name] == _load_golden()[name]


def _regen():
    with tempfile.TemporaryDirectory(prefix="export-golden-") as directory:
        table = collect(directory)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, entry in sorted(table.items()):
        print(f"{name}: {entry['sha256'][:12]} {entry['records']} records")
    print(f"wrote {len(table)} rows to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: python {sys.argv[0]} --regen")
    _regen()
