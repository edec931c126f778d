"""Compare two result files of ``run.py`` under the benchmark's own bounds.

Every (end-to-end metric, workload) pair gets one verdict, from the values
the two sets' runs reported:

``regressed``   B's median is worse than A's by more than the bound;
``unresolved``  not regressed, but a set's min-max range is wider than the
                bound, so "unchanged" cannot be told from noise -- unless
                every run of B reads better than every run of A;
``improved``    B's median is better by more than the bound (or, where a
                range is wider than the bound, every run of B beats every
                run of A);
``unchanged``   otherwise.

Counts that the simulator must reproduce exactly (events, digests, bytes)
are compared for equality, and B may not fail more checks than A.
"""

from __future__ import annotations

import json
from statistics import median
from typing import Any, Dict, List, Tuple

PASSING = ("unchanged", "improved")


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """Verdict for one pair plus B's relative worsening (+ is worse)."""
    a_med, b_med = median(a), median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b_med - a_med) / a_med if a_med else 0.0
    if worse > bound:
        return "regressed", worse
    if better == "lower":
        b_beats_a = max(b) < min(a)
    else:
        b_beats_a = min(b) > max(a)
    widest = max((max(v) - min(v)) / median(v) if median(v) else 0.0
                 for v in (a, b))
    if widest > bound:
        return ("improved" if b_beats_a else "unresolved"), worse
    return ("improved" if worse < -bound else "unchanged"), worse


def compare(a: Dict[str, Any], b: Dict[str, Any],
            end_to_end: List[Dict[str, Any]]) -> Tuple[List[Dict[str, Any]],
                                                      List[str]]:
    """Rows for every pair both files hold, and the exact-count mismatches."""
    rows: List[Dict[str, Any]] = []
    mismatches: List[str] = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            mismatches.append(f"{name}: missing from B")
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in end_to_end:
            key = metric["name"]
            va = wa["end_to_end"][key]["values"]
            vb = wb["end_to_end"][key]["values"]
            if not va or not vb:  # every repetition of a run raised
                sides = " and ".join(side for side, values
                                     in (("A", va), ("B", vb)) if not values)
                mismatches.append(f"{name}: no {key} measured in {sides}")
                continue
            outcome, worse = verdict(va, vb, metric["better"],
                                     metric["bound"])
            rows.append({
                "workload": name, "metric": key, "unit": metric["unit"],
                "a_median": median(va), "b_median": median(vb),
                "a_range": [min(va), max(va)], "b_range": [min(vb), max(vb)],
                "worse_by": worse, "bound": metric["bound"],
                "verdict": outcome,
            })
        if wb["error_rate"] > wa["error_rate"]:
            mismatches.append(
                f"{name}: error_rate rose {wa['error_rate']:g} -> "
                f"{wb['error_rate']:g} (bound 0, absolute)")
        if (a.get("seed"), a.get("smoke")) == (b.get("seed"), b.get("smoke")):
            for key in sorted(set(wa["exact"]) | set(wb["exact"])):
                if wa["exact"].get(key) != wb["exact"].get(key):
                    mismatches.append(
                        f"{name}: exact count {key!r} differs: "
                        f"{wa['exact'].get(key)!r} != {wb['exact'].get(key)!r}")
    return rows, mismatches


def render(rows: List[Dict[str, Any]], mismatches: List[str]) -> str:
    lines = [f"{'workload':<17}{'metric':<13}{'A median':>12}{'B median':>12}"
             f"{'worse by':>10}{'bound':>7}  verdict"]
    for row in rows:
        lines.append(
            f"{row['workload']:<17}{row['metric']:<13}"
            f"{row['a_median']:>12.4f}{row['b_median']:>12.4f}"
            f"{row['worse_by']:>+10.1%}{row['bound']:>7.0%}  "
            f"{row['verdict']}")
    lines.extend(f"MISMATCH {text}" for text in mismatches)
    return "\n".join(lines)


def passes(rows: List[Dict[str, Any]], mismatches: List[str]) -> bool:
    return not mismatches and all(row["verdict"] in PASSING for row in rows)


def compare_files(path_a: str, path_b: str,
                  end_to_end: List[Dict[str, Any]]) -> Tuple[bool, str]:
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    rows, mismatches = compare(a, b, end_to_end)
    ok = passes(rows, mismatches)
    text = render(rows, mismatches)
    return ok, text + f"\nCOMPARE: {'OK' if ok else 'FAIL'}"
