#!/usr/bin/env python3
"""The repo benchmark: six workloads, four timed end-to-end metrics plus the
error rate, and per-layer cost attribution.  See README.md beside this file.

One **run** of a workload repeats it in fresh child processes for
``--seconds`` seconds and reports one value per metric over those
repetitions.  The driver contract (BENCHMARK.json's ``command``) is one run::

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

whose last output line is one JSON object ``{correct, attempted, failed,
metrics}``: the end-to-end metrics (``--trace 0``) or the per-layer metrics
of traced repetitions (``--trace 1``).

Set mode (no ``--workload``) takes ``--runs`` such runs of every workload,
round-robin::

    python3 benchmarks/perf/run.py [--seed S] [--runs N] [--seconds S]
                                   [--trace] [--out DIR]
    python3 benchmarks/perf/run.py --smoke        # tiny inputs, traced
    python3 benchmarks/perf/run.py --compare A.json B.json
    python3 benchmarks/perf/run.py --self-test

prints every metric by name with its unit, checks outputs, writes one result
JSON under ``--out`` (default ``bench-out/perf/``), and exits 1 when a check
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import compare as compare_mod  # noqa: E402
from ladder import LADDER_METRICS  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCHEMA = 2
DEFAULT_OUT = os.path.join(ROOT, "bench-out", "perf")
#: A child that runs this long is stuck; the driver allows 180 s per run.
CHILD_TIMEOUT_S = 170.0
#: The ladder is fifty legs in one process; set mode only, so the driver's
#: per-run limit does not apply.
LADDER_TIMEOUT_S = 600.0
#: Fewest repetitions one run reports on.
MIN_REPS = 3
#: The two timings of the measured region, which ``--self-test`` judges.
TIMED_REGION = ("wall_s", "cpu_s")
#: ``--self-test`` injects this share of the timed region as a busy-wait and
#: calls a timing flagged when it worsens by more than half of it -- the
#: issue's bound, not BENCHMARK.json's, which is as wide as host drift
#: between runs taken minutes apart; the self-test alternates its sets.
SELF_TEST_SLOWDOWN = 0.20
SELF_TEST_BOUND = 0.10


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not a failed check)."""


# --------------------------------------------------------------------------- #
# Child processes
# --------------------------------------------------------------------------- #
def _run_script(script: str, args: List[str], scratch: str,
                timeout: float = CHILD_TIMEOUT_S) -> Dict[str, Any]:
    """Run one benchmark script to completion; parse its last stdout line."""
    command = [sys.executable, os.path.join(HERE, script), *args,
               "--scratch", scratch]
    try:
        done = subprocess.run(
            command, env=dict(os.environ, PYTHONHASHSEED="0"), cwd=ROOT,
            capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(
            f"{script} {' '.join(args)} exceeded {timeout:.0f}s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{script} {' '.join(args)} exited {done.returncode}:\n"
            f"{done.stderr.strip()}")
    return json.loads(lines[-1])


class Scratch:
    """A directory inside the checkout for the children's files."""

    def __init__(self, out_dir: str) -> None:
        os.makedirs(out_dir, exist_ok=True)
        self.base = tempfile.mkdtemp(prefix="tmp-", dir=out_dir)
        self._count = 0

    def fresh(self) -> str:
        self._count += 1
        return os.path.join(self.base, f"run-{self._count}")

    def close(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)


def run_child(scratch: Scratch, workload: str, seed: int, smoke: bool,
              trace: bool, slowdown: float = 0.0,
              keep_spans: Optional[str] = None) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; its files are deleted after."""
    directory = scratch.fresh()
    args = ["--workload", workload, "--seed", str(seed),
            "--trace", str(int(trace)), "--spawned", repr(time.monotonic())]
    if smoke:
        args.append("--smoke")
    if slowdown:
        args += ["--slowdown", repr(slowdown)]
    try:
        result = _run_script("child.py", args, directory)
        if keep_spans and result.get("spans_file"):
            shutil.copyfile(result["spans_file"], keep_spans)
            result["spans_file"] = keep_spans
        return result
    finally:
        shutil.rmtree(directory, ignore_errors=True)


# --------------------------------------------------------------------------- #
# One run: repetitions of one workload for a fixed time
# --------------------------------------------------------------------------- #
def fold_run(name: str, reps: List[Dict[str, Any]],
             reference: Optional[Dict[str, Any]],
             end_to_end: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold one run's repetitions into one value per metric, and checks.

    The value is the best repetition's (the lowest, for a lower-is-better
    metric).  Repetitions of one seed are identical deterministic work, so
    they differ only by host noise, which only ever adds time -- and on the
    reference box adds it in phases longer than a run: in two of seven
    ten-seed passes the median repetition's interquartile spread was 28 %,
    above the widest bound a benchmark may set; the fastest's, on the same
    samples, 9 % and 23.5 % (README, "End-to-end metrics").

    Besides the checks each repetition made on its own outputs, two are
    made across them: every repetition must report identical exact counts,
    and a workload that re-runs another's spec must end on the digest of
    ``reference``, a run of that other workload on the same seed.
    """
    attempted = failed = 0
    errors: List[str] = []
    failed_checks: List[str] = []
    for rep in reps:
        attempted += len(rep["checks"])
        for check, ok in rep["checks"].items():
            if not ok:
                failed += 1
                failed_checks.append(check)
        if rep["error"]:
            errors.append(rep["error"])

    complete = [rep for rep in reps if not rep["error"]]
    exact = complete[0]["exact"] if complete else {}
    attempted += 1
    if not complete or any(rep["exact"] != exact for rep in complete[1:]):
        failed += 1
        failed_checks.append("repeats_identical")
    if reference is not None:
        attempted += 1
        if (not complete or reference["errors"]
                or exact.get("digest") != reference["exact"].get("digest")):
            failed += 1
            failed_checks.append(f"digest_matches_{reference['workload']}")

    measured = [rep for rep in reps if rep["metrics"]]
    samples = {m["name"]: [rep["metrics"][m["name"]] for rep in measured]
               for m in end_to_end}
    best = {m["name"]: min if m["better"] == "lower" else max
            for m in end_to_end}
    traced = [rep for rep in reps if rep["layers"]]
    return {
        "workload": name, "repetitions": len(reps),
        "attempted": attempted, "failed": failed,
        "failed_checks": failed_checks, "errors": errors, "exact": exact,
        "samples": samples,
        # A run whose every repetition raised has no metrics.
        "metrics": {key: best[key](values)
                    for key, values in samples.items() if values},
        "facts": {key: median(rep["facts"][key] for rep in complete)
                  for key in (complete[0]["facts"] if complete else {})},
        "per_layer": {key: median(rep["layers"][key] for rep in traced)
                      for key in (traced[0]["layers"] if traced else {})},
        "spans_file": traced[-1]["spans_file"] if traced else None,
    }


def measure_run(scratch: Scratch, name: str, seed: int, seconds: float,
                smoke: bool, trace: bool, end_to_end: List[Dict[str, Any]],
                reference: Optional[Dict[str, Any]] = None,
                min_reps: int = MIN_REPS,
                keep_spans: Optional[str] = None) -> Dict[str, Any]:
    """Repeat ``name`` in fresh children until ``seconds`` have passed."""
    reps: List[Dict[str, Any]] = []
    started = time.monotonic()
    while len(reps) < min_reps or time.monotonic() - started < seconds:
        reps.append(run_child(scratch, name, seed, smoke, trace,
                              keep_spans=keep_spans))
    return fold_run(name, reps, reference, end_to_end)


def layer_metrics(name: str, traced: Dict[str, Any],
                  untraced: List[Dict[str, Any]]) -> Dict[str, float]:
    """A traced run's per-layer metrics, completed from untraced runs."""
    layers = dict(traced["per_layer"])
    if not layers:
        return {}
    for key in WORKLOADS[name].untraced_facts:
        values = [run["facts"][key] for run in untraced if key in run["facts"]]
        if values:
            layers[key] = median(values)
    walls = [run["metrics"]["wall_s"] for run in untraced if run["metrics"]]
    if walls and traced["metrics"]:
        layers["trace.overhead"] = (traced["metrics"]["wall_s"]
                                    / median(walls) - 1.0)
    return layers


# --------------------------------------------------------------------------- #
# Driver mode: one run of one workload
# --------------------------------------------------------------------------- #
def driver_run(name: str, seed: int, seconds: float, trace: bool,
               smoke: bool) -> int:
    benchmark = load_benchmark()
    end_to_end = benchmark["end_to_end"]
    scratch = Scratch(DEFAULT_OUT)
    try:
        reference = None
        if WORKLOADS[name].digest_of:
            # Doubles as the warm-up: it fills the .pyc caches before
            # anything is timed.
            reference = measure_run(scratch, WORKLOADS[name].digest_of, seed,
                                    0.0, smoke, False, end_to_end, min_reps=1)
        if trace:
            # Half the time untraced: trace.overhead needs the base.
            runs = [measure_run(scratch, name, seed, seconds / 2, smoke,
                                traced, end_to_end, reference, min_reps=1)
                    for traced in (False, True)]
            layers = layer_metrics(name, runs[1], runs[:1])
        else:
            runs = [measure_run(scratch, name, seed, seconds, smoke, False,
                                end_to_end, reference)]
    finally:
        scratch.close()

    for run in runs:
        for error in run["errors"]:
            print(error, file=sys.stderr)
        if run["failed_checks"]:
            print(f"failed checks: {run['failed_checks']}", file=sys.stderr)
    print(json.dumps({"samples": runs[0]["samples"]}), file=sys.stderr)
    # A run whose every repetition raised still reports (as incorrect).
    if trace:
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0),
                               "unit": m["unit"]}
                   for m in benchmark["per_layer"]}
    else:
        metrics = {m["name"]: {"value": runs[0]["metrics"].get(m["name"], 0.0),
                               "unit": m["unit"]} for m in end_to_end}
    failed = sum(run["failed"] for run in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


# --------------------------------------------------------------------------- #
# Set mode: several runs of all six workloads, round-robin
# --------------------------------------------------------------------------- #
def host_info() -> Dict[str, Any]:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        load = list(os.getloadavg())
    except OSError:
        load = []
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": model, "loadavg": load}


def fold_set(name: str, timed: List[Dict[str, Any]],
             traced: Optional[Dict[str, Any]],
             end_to_end: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One workload's runs: a value per run, median/min/max over the runs."""
    runs = timed + ([traced] if traced else [])
    attempted = sum(run["attempted"] for run in runs) + 1
    failed = sum(run["failed"] for run in runs)
    failed_checks = [check for run in runs for check in run["failed_checks"]]
    exact = runs[0]["exact"]
    if any(run["exact"] != exact for run in runs[1:]):
        failed += 1
        failed_checks.append("runs_identical")
    summary: Dict[str, Any] = {
        "end_to_end": {}, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "failed_checks": failed_checks,
        "errors": [error for run in runs for error in run["errors"]],
        "exact": exact,
        "repetitions": [run["repetitions"] for run in timed],
        "samples": [run["samples"] for run in timed],
        "per_layer": layer_metrics(name, traced, timed) if traced else {},
        "spans_file": traced["spans_file"] if traced else None,
    }
    for metric in end_to_end:
        values = [run["metrics"][metric["name"]] for run in timed
                  if run["metrics"]]
        summary["end_to_end"][metric["name"]] = {
            "unit": metric["unit"], "values": values, "n": len(values),
            "median": median(values) if values else None,
            "min": min(values) if values else None,
            "max": max(values) if values else None,
        }
    return summary


def one_round(scratch: Scratch, seed: int, seconds: float, smoke: bool,
              trace: bool, end_to_end: List[Dict[str, Any]], min_reps: int,
              spans_dir: Optional[str] = None) -> Dict[str, Dict[str, Any]]:
    """One run of each workload, in order; digests refer to this round's runs.
    """
    done: Dict[str, Dict[str, Any]] = {}
    for name, workload in WORKLOADS.items():
        spans = (os.path.join(spans_dir, f"spans-{name}.jsonl")
                 if spans_dir else None)
        done[name] = measure_run(
            scratch, name, seed, seconds, smoke, trace, end_to_end,
            reference=done.get(workload.digest_of), min_reps=min_reps,
            keep_spans=spans)
    return done


def run_set(seed: int, runs: int, seconds: float, trace: bool, smoke: bool,
            out_dir: str, min_reps: int = MIN_REPS) -> Dict[str, Any]:
    """One full set: warm-up, ``runs`` timed rounds, then one traced round."""
    end_to_end = load_benchmark()["end_to_end"]
    host = host_info()
    nproc = host["nproc"] or 1
    if host["loadavg"] and host["loadavg"][0] > nproc / 2:
        print(f"WARNING: load average {host['loadavg'][0]:.2f} > nproc/2 "
              f"({nproc / 2:g}); timings will be noisy", file=sys.stderr)
    scratch = Scratch(out_dir)
    timed: Dict[str, List[Dict[str, Any]]] = {name: [] for name in WORKLOADS}
    traced: Dict[str, Dict[str, Any]] = {}
    ladder = None
    try:
        run_child(scratch, "traffic_bare", seed, True, trace=False)
        for _ in range(runs):
            for name, run in one_round(scratch, seed, seconds, smoke, False,
                                       end_to_end, min_reps).items():
                timed[name].append(run)
        if trace:
            traced = one_round(scratch, seed, seconds, smoke, True,
                               end_to_end, min_reps, spans_dir=out_dir)
            try:
                quick = ["--smoke", "--reps", "1"] if smoke else []
                ladder = _run_script(
                    "ladder.py", ["--seed", str(seed), *quick],
                    scratch.fresh(), timeout=LADDER_TIMEOUT_S)
            except BenchmarkError as exc:  # keep the set, fail the ladder
                ladder = {"error": str(exc), "legs": {}, "rungs": {},
                          "checks": {"ladder_ran": False}}
    finally:
        scratch.close()

    return {
        "schema": SCHEMA, "host": host, "seed": seed, "smoke": smoke,
        "runs": runs, "seconds": seconds, "trace": trace,
        "workloads": {name: fold_set(name, timed[name], traced.get(name),
                                     end_to_end) for name in WORKLOADS},
        "ladder": ladder,
    }


def print_set(result: Dict[str, Any]) -> None:
    """Every metric by name, with its unit."""
    for name, summary in result["workloads"].items():
        print(f"== {name} ==")
        for metric, row in summary["end_to_end"].items():
            if row["n"]:
                print(f"{name} {metric} = {row['median']:.4f} {row['unit']} "
                      f"(median of {row['n']} runs, min {row['min']:.4f}, "
                      f"max {row['max']:.4f})")
        print(f"{name} error_rate = {summary['error_rate']:g} ratio "
              f"({summary['failed']} of {summary['attempted']} checks failed)")
        for key, value in summary["exact"].items():
            print(f"{name} exact {key} = {value}")
        units = {key: unit for key, unit, _ in PER_LAYER}
        for key, value in summary["per_layer"].items():
            print(f"{name} {key} = {value:.6g} {units.get(key, '')}".rstrip())
        if summary["spans_file"]:
            print(f"{name} spans written to {summary['spans_file']}")
        for check in summary["failed_checks"]:
            print(f"{name} FAILED CHECK {check}")
        for error in summary["errors"]:
            print(error, file=sys.stderr)
    ladder = result.get("ladder")
    if ladder:
        print("== ladder ==")
        for key in LADDER_METRICS:
            if key in ladder["rungs"]:
                print(f"{key} = {ladder['rungs'][key]:.3f} us")
        for check, ok in ladder["checks"].items():
            if not ok:
                print(f"ladder FAILED CHECK {check}")


def set_ok(result: Dict[str, Any]) -> bool:
    ladder_checks = (result.get("ladder") or {}).get("checks", {})
    return all(ladder_checks.values()) and all(
        summary["failed"] == 0 for summary in result["workloads"].values())


def write_result(result: Dict[str, Any], out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    path = os.path.join(out_dir, f"result-seed{result['seed']}-{stamp}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# --------------------------------------------------------------------------- #
# Self-test
# --------------------------------------------------------------------------- #
def self_test(out_dir: str, runs: int) -> int:
    """An injected slowdown must be flagged where injected and nowhere else.

    Three sets of smoke-size runs: a base, a same-code rerun, and one with
    a busy-wait of 20 % of the timed region injected on the benchmark's
    side of ``traffic_bare``.  Their repetitions alternate (base, rerun,
    slowed, base, ...), so that the three runs of a workload share one
    stretch of host time and its noise.  Against the base and under
    ``SELF_TEST_BOUND``, the slowed set must come out ``regressed`` on
    ``traffic_bare`` wall and cpu time and on no other workload's; the
    rerun must come out regressed nowhere.  (``setup_s`` and
    ``peak_rss_mb`` verdicts are printed but not judged: at smoke size they
    are a few hundred milliseconds of interpreter start-up.)
    """
    end_to_end = [dict(metric, bound=SELF_TEST_BOUND)
                  if metric["name"] in TIMED_REGION else metric
                  for metric in load_benchmark()["end_to_end"]]
    victim = "traffic_bare"
    slowdowns = {"base": 0.0, "rerun": 0.0, "slowed": SELF_TEST_SLOWDOWN}
    timed: Dict[str, Dict[str, List[Dict[str, Any]]]] = {
        label: {name: [] for name in WORKLOADS} for label in slowdowns}
    scratch = Scratch(out_dir)
    try:
        run_child(scratch, victim, 0, True, trace=False)
        for _ in range(runs):
            for name, workload in WORKLOADS.items():
                reps: Dict[str, List[Dict[str, Any]]] = {
                    label: [] for label in slowdowns}
                for _ in range(MIN_REPS):
                    for label, slowdown in slowdowns.items():
                        reps[label].append(run_child(
                            scratch, name, 0, True, trace=False,
                            slowdown=slowdown if name == victim else 0.0))
                for label, runs_so_far in timed.items():
                    reference = (runs_so_far[workload.digest_of][-1]
                                 if workload.digest_of else None)
                    runs_so_far[name].append(fold_run(
                        name, reps[label], reference, end_to_end))
    finally:
        scratch.close()
    sets = {label: {"seed": 0, "smoke": True, "workloads": {
        name: fold_set(name, timed[label][name], None, end_to_end)
        for name in WORKLOADS}} for label in slowdowns}

    def regressed(other: Dict[str, Any]) -> List[str]:
        rows, mismatches = compare_mod.compare(sets["base"], other, end_to_end)
        print(compare_mod.render(rows, mismatches))
        return sorted({f"{row['workload']}.{row['metric']}" for row in rows
                       if row["verdict"] == "regressed"
                       and row["metric"] in TIMED_REGION}
                      | {f"mismatch: {text}" for text in mismatches})

    print("-- base vs same-code rerun --")
    rerun_flags = regressed(sets["rerun"])
    print(f"-- base vs {victim} slowed by {SELF_TEST_SLOWDOWN:.0%} --")
    slowed_flags = regressed(sets["slowed"])
    ok = (not rerun_flags
          and slowed_flags == [f"{victim}.cpu_s", f"{victim}.wall_s"])
    print(f"rerun flagged: {rerun_flags or 'nothing'}")
    print(f"slowed flagged: {slowed_flags or 'nothing'}")
    print(f"SELF-TEST: {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of one run (default: run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--smoke", action="store_true",
                        help="scaled-down inputs; alone: one traced set of "
                             "one repetition each")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    if args.compare:
        ok, text = compare_mod.compare_files(
            args.compare[0], args.compare[1], load_benchmark()["end_to_end"])
        print(text)
        return 0 if ok else 1
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"{ROOT}/src/repro not found: the benchmark measures the "
              f"program in this checkout and there is none", file=sys.stderr)
        return 2
    seconds = (args.seconds if args.seconds is not None
               else load_benchmark()["run_seconds"])
    try:
        if args.self_test:
            return self_test(args.out, args.runs)
        if args.workload:
            return driver_run(args.workload, args.seed, seconds,
                              bool(args.trace), args.smoke)
        if args.smoke:
            result = run_set(args.seed, 1, 0.0, True, True, args.out,
                             min_reps=1)
        else:
            result = run_set(args.seed, args.runs, seconds, bool(args.trace),
                             False, args.out)
    except BenchmarkError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    print_set(result)
    print(f"result written to {write_result(result, args.out)}")
    return 0 if set_ok(result) else 1


if __name__ == "__main__":
    sys.exit(main())
