"""Report goldens: what the reporting commands print and write, pinned.

The report sections (vector KPIs, SLOs, incident chain, shards, chaos
cases and findings, profile planes and critical path, and the HTML-only
tables) are rendered three ways: as CLI text, as ``--json`` and as HTML.
This file pins all three for the runs an operator reaches for:

* ``monitor --quick`` (and ``--strict``, whose breach prints the causal
  chain), then ``incident show`` on the bundle the breach captured;
* ``report --quick``: stdout, the HTML, the ``metrics.prom`` metric
  names and label sets, and ``kpis.json``;
* ``chaos run --quick`` (seed 84), ``shard run --quick --shards 2``
  (and the federation HTML it writes), ``profile run --quick``;
* ``LiveService.render_dashboard()`` at the first event boundary after
  a strict SLO breach.

Every command runs in-process from a scratch working directory with a
relative ``--out``, so the paths it prints are stable.  Wall-clock
cells are masked: the table columns in :data:`WALL_HEADERS`, dict keys
matching :data:`WALL_KEY`, the HTML byte count, and the prose timings in
:data:`WALL_PROSE`.  Rows of a table with a masked column are compared
sorted, because the profile orders planes by wall time.

A change that means to alter an output regenerates the goldens and says
so in its description::

    PYTHONPATH=src python tests/test_report_golden.py --regen
"""

import contextlib
import html
import io
import json
import os
import re
import sys
import tempfile

import pytest

from repro.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "report_golden")

#: Table columns whose cells are wall-clock measurements.
WALL_HEADERS = {"wall (ms)", "share", "mean (us)", "mean (µs)", "wall (s)",
                "sync wait (s)"}
#: Data keys whose values are wall-clock measurements.
WALL_KEY = re.compile(r"wall|_ms$|_us$|busy|fraction|per_s$|sync_wait")
#: A two-column table row whose first cell names a wall-clock signal.
WALL_SIGNAL = re.compile(r"wall|fraction")
#: Prose timings: "1.4s" in "violated in 1.4s", "0.6s wall", "17.13% of
#: run wall time", "14.3 ms busy".
WALL_PROSE = (
    (re.compile(r"in \d+\.\d+s"), "in <t>s"),
    (re.compile(r"\d+\.\d+s wall"), "<t>s wall"),
    (re.compile(r"\d+\.\d+% of run wall time"), "<p>% of run wall time"),
    (re.compile(r"\d+\.\d+ ms busy"), "<t> ms busy"),
)
#: A byte count ("22284B"): the HTML's size moves with wall-clock cells.
BYTES = re.compile(r"^\d+B$")


# --------------------------------------------------------------------------- #
# Masking
# --------------------------------------------------------------------------- #
def _mask_prose(text):
    for pattern, replacement in WALL_PROSE:
        text = pattern.sub(replacement, text)
    return text


def _mask_cells(headers, rows):
    """Mask wall-clock columns and byte counts; sort rows if any masked."""
    masked = {i for i, header in enumerate(headers) if header in WALL_HEADERS}
    out = []
    for row in rows:
        cells = []
        for i, cell in enumerate(row):
            if i in masked or (i == 1 and len(row) == 2
                               and WALL_SIGNAL.search(str(row[0]))):
                cell = "<wall>"
            elif isinstance(cell, str) and BYTES.match(cell):
                cell = "<n>B"
            cells.append(cell)
        out.append(cells)
    if masked:
        out.sort(key=repr)
    return out


def mask_text(text):
    """CLI text output: tables with a wall-clock column lose their
    alignment (cells re-joined by two spaces, rows sorted)."""
    lines = _mask_prose(text).split("\n")
    out, i = [], 0
    while i < len(lines):
        line = lines[i]
        out.append(line)
        i += 1
        if not (line.startswith("== ") and line.endswith(" ==")
                and i + 1 < len(lines) and set(lines[i + 1]) == {"-"}):
            continue
        header = re.split(r" {2,}", lines[i].rstrip())
        end = i + 2
        while end < len(lines) and lines[end].strip():
            end += 1
        rows = [re.split(r" {2,}", row.rstrip()) for row in lines[i + 2:end]]
        if any(h in WALL_HEADERS for h in header) or any(
                BYTES.match(cell) for row in rows for cell in row):
            if all(len(row) == len(header) for row in rows):
                out.append("  ".join(header))
                out.append("---")
                out.extend("  ".join(map(str, row))
                           for row in _mask_cells(header, rows))
                i = end
                continue
        out.extend(lines[i:end])
        i = end
    return "\n".join(out)


def _mask_data(value, key=""):
    if isinstance(value, dict):
        return {k: _mask_data(v, k) for k, v in value.items()}
    if isinstance(value, list):
        return [_mask_data(v, key) for v in value]
    if WALL_KEY.search(key) and isinstance(value, (int, float)) \
            and not isinstance(value, bool):
        return "<wall>"
    return value


def mask_json(stdout):
    """``--json`` output, parsed; tables and data entries masked."""
    doc = json.loads(stdout)
    for table in doc["tables"]:
        if "rows" in table:
            table["rows"] = _mask_cells(table["headers"], table["rows"])
        if "data" in table:
            table["data"] = _mask_data(table["data"])
    return doc


def mask_html(document):
    """HTML, one element per line; wall-clock cells and prose masked."""

    def table(match):
        body = match.group(0)
        headers = [html.unescape(h) for h in re.findall(r"<th>(.*?)</th>", body)]
        rows = re.findall(r"<tr(?: class=\"\w+\")?>((?:<td>.*?</td>)+)</tr>",
                          body)
        cells = [re.findall(r"<td>(.*?)</td>", row) for row in rows]
        if not headers or any(len(row) != len(headers) for row in cells):
            return body
        masked = _mask_cells(headers, cells)
        if masked == cells:
            return body
        head = "".join(f"<th>{html.escape(h)}</th>" for h in headers)
        return (f"<table><thead><tr>{head}</tr></thead><tbody>"
                + "".join("<tr>" + "".join(f"<td>{c}</td>" for c in row)
                          + "</tr>" for row in masked)
                + "</tbody></table>")

    document = re.sub(r"<table>.*?</table>", table, _mask_prose(document))
    return re.sub(r"(?=<(?:h\d|p|table|tr|div class=\"kpi\"|footer|style|/body)[ >])",
                  "\n", document)


def prom_shape(text):
    """``# TYPE`` lines plus ``name{labels}`` of every sample (no values)."""
    return "\n".join(line if line.startswith("#") else line.rsplit(" ", 1)[0]
                     for line in text.splitlines()) + "\n"


# --------------------------------------------------------------------------- #
# The runs
# --------------------------------------------------------------------------- #
def _cli(argv, json_mode):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main((["--json"] if json_mode else []) + argv)
    out = buffer.getvalue()
    return code, (mask_json(out) if json_mode else mask_text(out))


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _dashboard():
    """The live dashboard at the first event boundary with a diagnosis."""
    from repro.live import LiveService
    from repro.persistence import describe_scenario

    spec = describe_scenario("smart-city-partition").spec(
        True, monitored=True, strict=True)
    service = LiveService(spec, "live", speed=0.0, port=None,
                          checkpoint_every=3600.0)
    service.start()
    rendered = []
    should_stop = service._should_stop

    def render_once():
        if not rendered and service.flight.diagnosis is not None:
            rendered.append(service.render_dashboard())
        return should_stop()

    service._should_stop = render_once
    assert service.run() == "completed"
    return mask_html(rendered[0])


def collect():
    """Every golden, keyed by file name.  Run from a scratch directory."""
    goldens = {}
    runs = (
        ("monitor", ["monitor", "--quick", "--out", "out"], 0),
        ("monitor-strict", ["monitor", "--quick", "--strict",
                            "--out", "out"], 1),
        ("incident-show", ["incident", "show",
                           os.path.join("out", "incidents",
                                        "smart-city-partition")], 0),
        ("report", ["report", "--quick", "--out", "out"], 0),
        ("chaos-run", ["chaos", "run", "--quick", "--out", "out",
                       "--corpus", "corpus"], 0),
        ("shard-run", ["shard", "run", "--quick", "--shards", "2",
                       "--out", "shard"], 0),
        ("profile-run", ["profile", "run", "--quick", "--out", "prof"], 0),
    )
    start = os.getcwd()
    for mode in ("text", "json"):
        os.makedirs(os.path.join(start, mode))
        os.chdir(os.path.join(start, mode))
        try:
            for name, argv, expected in runs:
                code, output = _cli(argv, mode == "json")
                assert code == expected, (name, mode, code)
                key = f"{name}.{'json' if mode == 'json' else 'txt'}"
                goldens[key] = output
        finally:
            os.chdir(start)
    report = os.path.join(start, "text", "out")
    goldens["report.html"] = mask_html(
        _read(os.path.join(report, "resilience-report.html")))
    goldens["report.prom"] = prom_shape(
        _read(os.path.join(report, "metrics.prom")))
    goldens["report-kpis.json"] = json.loads(
        _read(os.path.join(report, "kpis.json")))
    goldens["shard-report.html"] = mask_html(
        _read(os.path.join(start, "text", "shard", "report.html")))
    goldens["dashboard.html"] = _dashboard()
    return goldens


def _load(name):
    text = _read(os.path.join(GOLDEN_DIR, name))
    return json.loads(text) if name.endswith(".json") else text


def _dump(name, value):
    with open(os.path.join(GOLDEN_DIR, name), "w", encoding="utf-8") as fh:
        if name.endswith(".json"):
            json.dump(value, fh, indent=2, sort_keys=True, ensure_ascii=False)
            fh.write("\n")
        else:
            fh.write(value)


GOLDEN_NAMES = sorted(os.listdir(GOLDEN_DIR)) if os.path.isdir(GOLDEN_DIR) else []


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("report-golden"))
    try:
        return collect()
    finally:
        os.chdir(cwd)


def test_every_golden_is_produced(outputs):
    assert sorted(outputs) == GOLDEN_NAMES


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_output_matches_golden(outputs, name):
    assert outputs[name] == _load(name)


def _regen():
    with tempfile.TemporaryDirectory(prefix="report-golden-") as scratch:
        cwd = os.getcwd()
        os.chdir(scratch)
        try:
            goldens = collect()
        finally:
            os.chdir(cwd)
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, value in sorted(goldens.items()):
        _dump(name, value)
        print(f"wrote {name}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: python {sys.argv[0]} --regen")
    _regen()
