"""The executed-function map of ``src/repro``: what CI's commands run.

Every command in ``.github/workflows/ci.yml`` that runs ``repro`` code
runs here, in one process, in CI's order: each ``python -m repro`` line
(the malformed-input ones included, with the files they are fed), the
CLI contract's ``-h`` loop and usage errors, the live smoke's three
scrapes and SIGTERM drain, every file in ``examples/`` and the bench
step's ``regress.py``.  ``sys.settrace`` / ``threading.settrace`` record
each function that starts, in this process, its threads and the worker
processes it forks (each writes its set when it exits).  The profile hook
would not do: ``cProfile`` takes it over inside ``regress.py``.

A function is a ``def`` outside any function body: a module function or
a method, nested classes included.  Every one that never ran must be in
``tests/not_executed.json`` with the reason it stays -- ``item N``, the
ROADMAP item that wires or deletes it, or ``safety`` (an input check,
error handling, a signal flush).  The check fails on an unexecuted
function that is not listed and on a listed one that now runs::

    PYTHONPATH=src python tests/executed_map.py          # check (CI)
    PYTHONPATH=src python tests/executed_map.py --regen  # rewrite the table

``--regen`` keeps the reasons of entries that still hold, drops entries
that now run and writes ``?`` for a new one, which the check refuses
until it is given a reason.  Not a pytest file: it runs as its own CI
step (a few minutes under the tracer).
"""

import ast
import contextlib
import glob
import importlib.util
import json
import multiprocessing.util
import os
import re
import runpy
import shlex
import shutil
import signal
import sys
import tempfile
import threading
import time
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_ROOT = os.path.join(REPO_ROOT, "src", "repro")
TABLE_PATH = os.path.join(REPO_ROOT, "tests", "not_executed.json")
ROADMAP_PATH = os.path.join(REPO_ROOT, "ROADMAP.md")
EXAMPLES = os.path.join(REPO_ROOT, "examples", "*.py")

#: CI's ``python -m repro`` command lines, in CI's order, with the exit
#: code CI wants.  Paths are CI's with ``/tmp/`` dropped: they resolve
#: under this probe's scratch directory.  ``$spec`` stands for each of
#: the malformed chaos specs, ``$newest_*`` for the newest committed and
#: fresh BENCH snapshots, as in CI's shell.
CI_COMMANDS = (
    ("all --quick", 0),
    ("all", 0),
    ("all --json", 0),
    ("trace smart-city-partition --quick --out trace-out", 0),
    ("monitor smart-city-partition --quick --out monitor-out", 0),
    ("report --quick --out report-out", 0),
    ("traffic retry-storm --out traffic-out", 0),
    ("traffic overload --out traffic-out", 0),
    ("security byzantine-gossip --out security-out", 0),
    ("security sybil-flood --out security-out", 0),
    ("security raft-equivocation --out security-out", 0),
    ("checkpoint control-outage --at 45 --out det-a", 0),
    ("resume --out det-a", 0),
    ("replay --out det-a", 0),
    ("checkpoint traffic-overload --at 14 --out det-t", 0),
    ("resume --out det-t", 0),
    ("replay --out det-t", 0),
    ("checkpoint security-byzantine-gossip --at 8 --out det-s", 0),
    ("resume --out det-s", 0),
    ("replay --out det-s", 0),
    ("resume --out /nonexistent", 2),
    ("resume --out det-bad-c", 2),
    ("replay --out det-bad-j", 2),
    ("replay --out det-bad-j", 2),
    ("shard run smart-city-federated --quick --shards 2 --workers 1 "
     "--checkpoint-every 2 --stop-after 4 --out det-bad-m", 0),
    ("shard resume --out det-bad-m", 2),
    ("scenarios list", 0),
    ("--json chaos run --out chaos-out --corpus chaos-corpus", 0),
    ("chaos shrink chaos-corpus/chaos-* --out chaos-out", 0),
    ("chaos corpus --corpus chaos-corpus", 0),
    ("incident show chaos-corpus/chaos-*", 0),
    ("incident replay chaos-corpus/chaos-*", 0),
    ("chaos shrink chaos-bad/$spec.json --out chaos-bad/out", 2),
    ("live traffic-retry-storm --speed 10 --port 8321 --checkpoint-every 1 "
     "--out live-out", 143),
    ("live traffic-retry-storm --speed 0 --port 0 --checkpoint-every 3600 "
     "--out live-out", 0),
    ("replay --out live-out", 0),
    ("shard run smart-city-federated --quick --shards 4 --out shard-out", 0),
    ("shard verify --out shard-out --workers 2", 0),
    ("shard run smart-city-federated --quick --shards 4 --checkpoint-every 5 "
     "--stop-after 12 --out shard-cr", 0),
    ("shard resume --out shard-cr", 0),
    ("shard verify --out shard-cr --workers 2", 0),
    ("profile run smart-city-partition --quick --out prof-out", 0),
    ("profile run traffic-overload --quick --out prof-traffic", 0),
    ("profile run harness-crash --quick --out prof-crash", 0),
    ("profile run smart-city-partition --quick --seed 5 --out prof-seed5", 0),
    ("profile diff prof-out/profile.json prof-seed5/profile.json", 0),
    ("profile diff $newest_baseline $newest_current", 0),
)

#: The CLI contract step's malformed invocations: each is a usage error.
USAGE_ERRORS = (
    ["live", "--checkpoint-every", "0"],
    ["live", "--speed", "-1"],
    ["shard", "run", "--shards", "0"],
    ["resume", "control-outage", "--out", "/tmp/x"],
    ["maturity", "--shards", "9"],
    ["checkpoint", "control-outage", "--at", "nan"],
    ["resume", "--until", "nan"],
    ["resume", "--until", "inf"],
    ["live", "--speed", "nan"],
    ["live", "--checkpoint-every", "nan"],
    ["live", "--port", "70000"],
    ["shard", "run", "--stop-after", "0"],
)

#: The bench step's ``regress.py`` invocations.
REGRESS = (["--self-test"], ["--trajectory"], ["--quick", "--out", "bench-out"])

_MALFORMED_SPECS = {"list": "[]", "axis": '{"topology": 5}',
                    "nan": '{"horizon": NaN}'}
_LIVE_PORT = 8321


# --------------------------------------------------------------------------- #
# The inventory: every def outside a function body
# --------------------------------------------------------------------------- #
def inventory():
    """``{key: (path, first line, lines)}``; ``key`` is ``module:qualname``.

    The first line is the first decorator's (what ``co_firstlineno``
    holds); a repeated qualname (a property's setter) gets ``#2``.
    """
    table = {}
    for path in sorted(glob.glob(os.path.join(PACKAGE_ROOT, "**", "*.py"),
                                 recursive=True)):
        parts = os.path.relpath(path, os.path.dirname(PACKAGE_ROOT))
        parts = parts[:-3].split(os.sep)
        if parts[-1] == "__init__":
            parts.pop()
        module = ".".join(parts)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for qualname, node in _defs(tree.body, ""):
            key, n = f"{module}:{qualname}", 1
            while key in table:
                n += 1
                key = f"{module}:{qualname}#{n}"
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            table[key] = (path, first, node.end_lineno - node.lineno + 1)
    return table


def _defs(body, prefix):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from _defs(node.body, f"{prefix}{node.name}.")
        else:
            yield from _defs([child for child in ast.iter_child_nodes(node)
                              if isinstance(child, (ast.stmt,
                                                    ast.excepthandler))],
                             prefix)


# --------------------------------------------------------------------------- #
# The recorder: code objects that started, here and in forked workers
# --------------------------------------------------------------------------- #
class Recorder:
    def __init__(self, directory):
        self.directory = directory
        # Keyed by identity, not held in a set: code objects compare equal
        # across files when name, first line and body match (two one-line
        # ``start`` methods at line 99 of two modules), and a set keeps one.
        self.codes = codes = {}

        def trace(frame, _event, _arg):
            code = frame.f_code
            codes[id(code)] = code

        self.trace = trace
        multiprocessing.util.register_after_fork(self, Recorder._forked)

    def _forked(self):
        # A worker starts from its parent's set; it reports what it runs.
        self.codes.clear()
        multiprocessing.util.Finalize(self, self.dump, exitpriority=0)

    def dump(self):
        sys.settrace(None)          # the set must not grow while it is read
        path = os.path.join(self.directory, f"worker-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sorted(self.positions(self.codes)), fh)

    @staticmethod
    def positions(codes):
        return {(code.co_filename, code.co_firstlineno)
                for code in codes.values()}

    def __enter__(self):
        threading.settrace(self.trace)
        sys.settrace(self.trace)
        return self

    def __exit__(self, *_exc):
        sys.settrace(None)
        threading.settrace(None)

    def executed(self):
        """``(file, first line)`` of every code object that started."""
        seen = self.positions(self.codes)
        for path in glob.glob(os.path.join(self.directory, "worker-*.json")):
            with open(path, encoding="utf-8") as fh:
                seen.update(map(tuple, json.load(fh)))
        return {(os.path.realpath(f), line) for f, line in seen}


# --------------------------------------------------------------------------- #
# CI's commands, in process
# --------------------------------------------------------------------------- #
def _call(function, *args):
    """``function(*args)`` with output discarded; returns its exit code."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        try:
            return function(*args) or 0
        except SystemExit as exc:
            return exc.code or 0


def _prepare(line, cwd):
    """Write the file CI writes before ``line``, as its shell does."""
    def path(*names):
        return os.path.join(cwd, *names)

    if line == "resume --out det-bad-c":
        os.makedirs(path("det-bad-c"), exist_ok=True)
        with open(path("det-bad-c", "checkpoint.json"), "w") as fh:
            fh.write("[]\n")
    elif line == "replay --out det-bad-j":
        os.makedirs(path("det-bad-j"), exist_ok=True)
        with open(path("det-a", "journal.jsonl")) as fh:
            lines = fh.readlines()
        target = path("det-bad-j", "journal.jsonl")
        if not os.path.exists(target):      # a record that is not an object
            lines = lines[:3] + ["[]\n"]
        else:                               # a field of the wrong type
            lines[4] = re.sub(r'"i":[0-9]*', '"i":"x"', lines[4], count=1)
        with open(target, "w") as fh:
            fh.writelines(lines)
    elif line == "shard resume --out det-bad-m":
        manifest = path("det-bad-m", "manifest.json")
        with open(manifest) as fh:
            text = re.sub(r'"shards": *2', '"shards": 0', fh.read())
        with open(manifest, "w") as fh:
            fh.write(text)
    elif line.startswith("chaos shrink chaos-bad/"):
        os.makedirs(path("chaos-bad"), exist_ok=True)
        for name, text in _MALFORMED_SPECS.items():
            with open(path("chaos-bad", f"{name}.json"), "w") as fh:
                fh.write(text + "\n")


def _expand(line, cwd):
    """The argv lists ``line`` stands for, as CI's shell expands it."""
    newest = {} if "$newest" not in line else {
        "$newest_baseline": _newest(os.path.join(
            REPO_ROOT, "benchmarks", "baselines")),
        "$newest_current": _newest(os.path.join(cwd, "bench-out")),
    }
    specs = list(_MALFORMED_SPECS) if "$spec" in line else [None]
    for spec in specs:
        argv = []
        for token in shlex.split(line):
            token = newest.get(token, token)
            if spec:
                token = token.replace("$spec", spec)
            matches = sorted(glob.glob(token)) if "*" in token else [token]
            argv.extend(matches or [token])
        yield argv


def _run_example(path):
    runpy.run_path(path, run_name="__main__")


def _newest(directory):
    names = glob.glob(os.path.join(directory, "BENCH_*.json"))
    return max(names, key=lambda name: int(re.findall(r"\d+", name)[-1]),
               default=os.path.join(directory, "BENCH_1.json"))


def _scrape_then_drain(port):
    """The live smoke's curls, then SIGTERM to this process."""
    def scrape():
        base = f"http://127.0.0.1:{port}"
        deadline = time.monotonic() + 30
        while True:
            try:
                urllib.request.urlopen(base + "/healthz", timeout=5).read()
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)
        for route in ("/metrics", "/healthz", "/"):
            urllib.request.urlopen(base + route, timeout=5).read()
        time.sleep(1.5)             # as CI does before its SIGTERM
        os.kill(os.getpid(), signal.SIGTERM)

    thread = threading.Thread(target=scrape, daemon=True)
    thread.start()
    return thread


def run_ci(cwd):
    """Run every CI command that runs ``repro`` code; list wrong exits."""
    from repro.cli import command_table, main

    failures = []

    def expect(code, wants, what):
        if code not in wants:
            failures.append(f"{what}: exit {code}, CI wants {wants[0]}")

    for row in command_table():
        expect(_call(main, row.name.split() + ["-h"]), (0,), f"{row.name} -h")
    for argv in USAGE_ERRORS:
        expect(_call(main, list(argv)), (2,), " ".join(argv))
    bench_diff = CI_COMMANDS[-1]
    for line, want in CI_COMMANDS[:-1]:
        _prepare(line, cwd)
        scraper = _scrape_then_drain(_LIVE_PORT) if want == 143 else None
        for argv in _expand(line, cwd):
            expect(_call(main, argv), (want,), " ".join(argv))
        if scraper is not None:
            scraper.join()
    for path in sorted(glob.glob(EXAMPLES)):
        expect(_call(_run_example, path), (0,), path)
    spec = importlib.util.spec_from_file_location(
        "regress", os.path.join(REPO_ROOT, "benchmarks", "regress.py"))
    regress = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regress)
    for argv in REGRESS:
        # A timing gate can break on a loaded host (exit 1); the snapshot
        # run has executed every bench by then.
        expect(_call(regress.main, list(argv)), (0, 1), "regress.py "
               + " ".join(argv))
    for argv in _expand(bench_diff[0], cwd):
        expect(_call(main, argv), (bench_diff[1],), bench_diff[0])
    return failures


# --------------------------------------------------------------------------- #
# The check
# --------------------------------------------------------------------------- #
_REASON = re.compile(r"(?:item (\d+)(?:\([a-z]\))?|safety)")


def load_table():
    with open(TABLE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def open_items():
    """Numbers of the items under ROADMAP's open items."""
    with open(ROADMAP_PATH, encoding="utf-8") as fh:
        return set(re.findall(r"^- \*\*(\d+)\.", fh.read(), re.M))


def problems(functions, missing, table):
    """Why ``missing`` (unexecuted keys) disagrees with ``table``."""
    found, items = [], open_items()
    for key in sorted(set(missing) - set(table)):
        found.append(f"never ran and not listed: {key}")
    for key in sorted(set(table) - set(missing)):
        state = "now runs" if key in functions else "is gone"
        found.append(f"listed but {state}: {key}")
    for key, reason in sorted(table.items()):
        match = _REASON.fullmatch(reason)
        if not match or (match.group(1) and match.group(1) not in items):
            found.append(f"{key}: reason {reason!r} names no open ROADMAP "
                         "item and is not 'safety'")
    return found


def summary(functions, missing, table):
    lines = sum(n for _path, _first, n in functions.values())
    by_reason = {}
    for key in missing:
        reason = table.get(key, "?")
        count, body = by_reason.get(reason, (0, 0))
        by_reason[reason] = (count + 1, body + functions[key][2])
    out = [f"{len(functions)} functions ({lines} lines); "
           f"{len(missing)} never ran "
           f"({sum(functions[k][2] for k in missing)} lines)"]
    for reason, (count, body) in sorted(by_reason.items()):
        out.append(f"  {reason:<12} {count:>4} functions {body:>5} lines")
    return "\n".join(out)


def main(argv):
    if argv not in ([], ["--regen"]):
        sys.exit("usage: PYTHONPATH=src python tests/executed_map.py "
                 "[--regen]")
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    scratch = tempfile.mkdtemp(prefix="executed-map-")
    home = os.getcwd()
    try:
        os.chdir(scratch)
        with Recorder(scratch) as recorder:
            failures = run_ci(scratch)
        executed = recorder.executed()
    finally:
        os.chdir(home)
        shutil.rmtree(scratch, ignore_errors=True)
    functions = inventory()
    missing = {key for key, (path, first, _n) in functions.items()
               if (os.path.realpath(path), first) not in executed}
    table = load_table() if os.path.exists(TABLE_PATH) else {}
    if argv:
        table = {key: table.get(key, "?") for key in sorted(missing)}
        with open(TABLE_PATH, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(summary(functions, missing, table))
    found = failures + problems(functions, missing, table)
    for line in found:
        print(line)
    if found:
        print("EXECUTED MAP: FAIL -- list a function that stays with the "
              "ROADMAP item that decides it (or 'safety'), or delete it")
        return 1
    print("EXECUTED MAP: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
