"""The profiling plane: subsystem cost attribution and differential profiling.

The kernel :class:`~repro.observability.instrument.Instrument` answers
"which event label was expensive"; this module answers the questions the
speed campaign and regression triage actually ask:

* **Which architectural plane pays?**  Every kernel event label and span
  category is classified into a plane -- transport, coordination, mape,
  traffic, security, persistence, telemetry, faults, workload, kernel --
  and wall-time / event-count / queue-lag roll up per plane and per label
  (:func:`capture_profile`).
* **Where does a request's latency live?**  Traffic request spans carry
  queue/service/network/retry segments (stamped by
  :class:`~repro.traffic.client.TrafficClient`); the critical-path
  analysis sums them per segment and reports the top-K slowest traces
  (:func:`request_critical_paths`).
* **What changed between two runs?**  :func:`diff_profiles` attributes
  the delta between two profile snapshots to planes and labels, ranked
  by absolute wall-time delta -- ``benchmarks/regress.py`` calls it so a
  tripped bench tripwire names the responsible subsystem, and
  ``python -m repro profile diff`` exposes it directly.

Export surfaces: collapsed-stack flamegraphs in Brendan Gregg's
``frame;frame value`` format (:func:`collapsed_kernel_stacks`,
:func:`collapsed_span_stacks` -- feed to ``flamegraph.pl`` or
https://www.speedscope.app), a per-plane Chrome-trace view (written by
:func:`repro.observability.export.write_profile_chrome_trace` over
:func:`plane_of_category`), Prometheus ``repro_profile_*``
families (:func:`profile_prom_lines`), and the HTML report's "Profile"
section (rendered by :mod:`repro.observability.export`).

Everything here is *read-only over telemetry already collected*: capture
consumes the instrument and span recorder after (or between) events, never
schedules work, never touches an RNG -- so an armed profile leaves
journals, digests and replay byte-identical, and its cost falls under the
PR-6 telemetry budget (the instrument's own recording is metered by the
:class:`~repro.observability.overhead.OverheadMeter`).
"""

from __future__ import annotations

import os
import re
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.observability.instrument import Instrument, InstrumentSnapshot
from repro.schema import Field, check, load_document, write_document

PROFILE_SCHEMA = 1

#: The architectural planes cost is attributed to, in report order.
PLANES = (
    "transport", "coordination", "mape", "traffic", "security",
    "persistence", "telemetry", "faults", "workload", "kernel",
)

#: Kernel event-label prefix (the part before ``:``, or the whole label)
#: -> plane.  Unlisted prefixes fall through to prefix-dot rules
#: (``traffic.*``, ``security.*``) and then to "workload" -- an unknown
#: label is most likely scenario-specific application work.
_LABEL_PLANES: Dict[str, str] = {
    # transport: message delivery and link-state churn
    "deliver": "transport", "partition": "transport", "heal": "transport",
    # coordination: membership, consensus, failure detection, leases
    "gossip": "coordination", "swim": "coordination",
    "swim-timeout": "coordination", "swim-suspicion": "coordination",
    "swim-indirect-timeout": "coordination", "raft-timer": "coordination",
    "fd": "coordination", "phi": "coordination",
    "bully-timeout": "coordination", "lease-keeper": "coordination",
    "quorum-timeout": "coordination", "sync": "coordination",
    "share": "coordination",
    # mape: the adaptation control loop and orchestration
    "mape": "mape", "orchestrator-reconcile": "mape",
    "regional-planning": "mape", "revert": "mape", "balance-probe": "mape",
    # telemetry: monitors, probes, meters -- observability's own cost
    "slo-monitor": "telemetry", "probe": "telemetry",
    "probe-timeout": "telemetry", "meter": "telemetry",
    "telemetry": "telemetry",
    # faults: the injector's own scheduling
    "inject": "faults",
    # workload: device/application behavior.  Bare "traffic:" is the
    # smart-city road-traffic sensor tick; the serving plane's labels are
    # dotted ("traffic.timeout:...") and classify via the dot rule below.
    "sense": "workload", "vitals": "workload", "roam": "workload",
    "sample": "workload", "aggregate-push": "workload",
    "demand-surge": "workload", "stream-epoch": "workload",
    "technician": "workload", "traffic": "workload",
}

#: Span category -> plane (spans carry simulated-time cost; kernel labels
#: carry wall-clock cost -- both attribute to the same plane vocabulary).
_CATEGORY_PLANES: Dict[str, str] = {
    "message": "transport",
    "coordination": "coordination",
    "adaptation": "mape",
    "governance": "mape",
    "injection": "faults",
    "fault": "faults",
    "recovery": "faults",
    "persistence": "persistence",
    "traffic": "traffic",
    "request": "traffic",
    "alert": "telemetry",
    "violation": "telemetry",
}


def plane_of_label(label: str) -> str:
    """Classify a kernel event label into an architectural plane."""
    if not label:
        return "kernel"
    prefix = label.split(":", 1)[0]
    plane = _LABEL_PLANES.get(prefix)
    if plane is not None:
        return plane
    if "." in prefix:
        head = prefix.split(".", 1)[0]
        if head == "traffic":
            return "traffic"
        if head == "security":
            return "security"
    return "workload"


def plane_of_category(category: str) -> str:
    """Classify a span category into an architectural plane."""
    return _CATEGORY_PLANES.get(category, "workload")


# --------------------------------------------------------------------------- #
# Capture
# --------------------------------------------------------------------------- #
def _span_self_times(recorder: Any, now: float) -> List[Tuple[Any, float]]:
    """``(span, self_seconds)`` for every sampled span.

    Self time is the span's duration minus the summed durations of its
    direct children (clamped at zero: concurrent children can overlap
    their parent in simulated time).
    """
    children = recorder.children_index()
    out: List[Tuple[Any, float]] = []
    for span in recorder:
        total = span.duration_or(now)
        child_s = sum(c.duration_or(now) for c in children.get(span.span_id, ()))
        out.append((span, max(0.0, total - child_s)))
    return out


def capture_profile(
    instrument: Optional[Union[Instrument, InstrumentSnapshot]] = None,
    spans: Optional[Any] = None,
    meta: Optional[Dict[str, Any]] = None,
    now: Optional[float] = None,
    top_labels: int = 40,
    top_traces: int = 5,
) -> Dict[str, Any]:
    """Build a JSON-ready profile snapshot.

    ``instrument`` may be a live :class:`Instrument`, an
    :class:`InstrumentSnapshot` (e.g. a ``delta`` bracketing one window),
    or None.  ``spans`` is a :class:`~repro.observability.spans.SpanRecorder`
    (or None); ``now`` the simulated clock used to value still-open spans.
    Pure function of telemetry already collected -- calling it perturbs
    nothing the digest or journal sees.
    """
    profile: Dict[str, Any] = {
        "schema": PROFILE_SCHEMA,
        "meta": dict(meta or {}),
        "planes": {},
        "labels": {},
    }

    if instrument is not None:
        labels = instrument.labels  # dict on both Instrument and snapshot
        plane_stats: Dict[str, Dict[str, float]] = {}
        label_rows: Dict[str, Dict[str, Any]] = {}
        for label, stats in labels.items():
            plane = plane_of_label(label)
            agg = plane_stats.setdefault(plane, {
                "count": 0, "total_ms": 0.0, "queue_s": 0.0, "max_us": 0.0,
            })
            agg["count"] += stats.count
            agg["total_ms"] += stats.total_s * 1e3
            agg["queue_s"] += stats.queue_s
            agg["max_us"] = max(agg["max_us"], stats.max_s * 1e6)
            row = stats.to_dict()
            row["plane"] = plane
            label_rows[label] = row
        for agg in plane_stats.values():
            agg["mean_us"] = (agg["total_ms"] * 1e3 / agg["count"]
                              if agg["count"] else 0.0)
        profile["planes"] = {
            plane: plane_stats[plane]
            for plane in sorted(plane_stats,
                                key=lambda p: -plane_stats[p]["total_ms"])
        }
        hottest = sorted(label_rows.items(),
                         key=lambda kv: -kv[1]["total_ms"])[:top_labels]
        profile["labels"] = dict(hottest)
        profile["kernel"] = {
            "events": instrument.events,
            "busy_ms": instrument.total_busy_s * 1e3,
            "mean_event_us": (instrument.total_busy_s / instrument.events * 1e6
                              if instrument.events else 0.0),
            "mean_queue_depth": instrument.mean_queue_depth,
            "max_queue_depth": instrument.max_queue_depth,
        }

    if spans is not None:
        clock = float(now) if now is not None else latest_span_time(spans)
        span_planes: Dict[str, Dict[str, float]] = {}
        for span, self_s in _span_self_times(spans, clock):
            plane = plane_of_category(span.category)
            agg = span_planes.setdefault(plane, {"count": 0, "self_s": 0.0})
            agg["count"] += 1
            agg["self_s"] += self_s
        profile["span_planes"] = {
            plane: span_planes[plane]
            for plane in sorted(span_planes,
                                key=lambda p: -span_planes[p]["self_s"])
        }
        critical = request_critical_paths(spans, top_k=top_traces, now=clock)
        if critical["requests"]:
            profile["critical_path"] = critical

    return profile


def latest_span_time(recorder: Any) -> float:
    """The latest start or end among ``recorder``'s spans (0.0 if none)."""
    latest = 0.0
    for span in recorder:
        if span.end is not None and span.end > latest:
            latest = span.end
        elif span.start > latest:
            latest = span.start
    return latest


def save_profile(profile: Dict[str, Any], path: Any) -> None:
    write_document(path, profile)


_ROWS = Field("object", required=False, items=Field("object", fields={
    "total_ms": Field("number", required=False),
    "count": Field("number", required=False),
}))

#: What :func:`diff_profiles` reads of a profile.
_PROFILE = Field("object", fields={
    "meta": Field("object", required=False),
    "kernel": Field("object", required=False),
    "planes": _ROWS,
    "labels": _ROWS,
    "critical_path": Field("object", required=False, null=True, fields={
        "segments": Field("object", items=Field("number"))}),
})
_BENCH = Field("object", fields={
    "profiles": Field("object", required=False, items=_PROFILE)})


def load_profile(path: Any) -> Dict[str, Any]:
    """Load a ``capture_profile`` snapshot or a BENCH snapshot (which holds
    some under ``profiles``); a ``ValueError`` naming ``path`` if it is
    unreadable, not JSON or not of the shape :func:`diff_profiles` reads.
    A BENCH snapshot may be partial here: only its profiles are read."""
    data = load_document(path, Field("any"))
    bench = isinstance(data, dict) and "benches" in data
    check(data, _BENCH if bench else _PROFILE, str(path))
    return data


#: The ``schema`` a BENCH snapshot carries.
BENCH_SCHEMA = 1

_BENCHES = Field("object", items=Field("object", items=Field("number")))

#: A ``BENCH_<n>.json`` snapshot as ``benchmarks/regress.py`` writes it.
BENCH_SNAPSHOT = Field("object", fields={
    "schema": Field("integer", choices=(BENCH_SCHEMA,),
                    label="snapshot schema"),
    "quick": Field("boolean"),
    "label": Field("string"),
    "benches": _BENCHES,
    "profiles": Field("object", required=False),
})

#: What the report's bench-trajectory rows read of a snapshot.
BENCH_TRAJECTORY = Field("object", fields={"benches": _BENCHES})

_BENCH_NAME = re.compile(r"BENCH_(\d+)\.json").fullmatch


class SnapshotError(ValueError):
    """A snapshot file that cannot be read or does not have its shape."""


def numbered_snapshots(directory: str) -> List[Tuple[int, str]]:
    """``(n, path)`` of every ``BENCH_<n>.json`` in ``directory``, oldest
    first (by name, BENCH_9 would sort after BENCH_12); any other name
    (``BENCH_old.json``) is not a snapshot, and a missing directory holds
    none."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    return sorted((int(match[1]), os.path.join(directory, match[0]))
                  for match in map(_BENCH_NAME, names) if match)


def load_snapshot(path: str) -> Dict[str, Any]:
    """The parsed ``BENCH_<n>.json``, or :class:`SnapshotError` naming it."""
    return load_document(path, BENCH_SNAPSHOT, SnapshotError)


# --------------------------------------------------------------------------- #
# Request critical paths
# --------------------------------------------------------------------------- #
#: Request latency segments, in lifecycle order.  ``queue`` is time spent
#: in the server's queue, ``service`` in the handler, ``network`` on the
#: wire (both directions), ``retry`` waiting between attempts (backoff +
#: failed earlier attempts).
SEGMENTS = ("queue", "service", "network", "retry")


def request_critical_paths(
    spans: Any,
    top_k: int = 5,
    now: Optional[float] = None,
) -> Dict[str, Any]:
    """Decompose traffic request spans into latency segments.

    Request spans (category ``request``) are stamped by
    :class:`~repro.traffic.client.TrafficClient` with ``queue_s`` /
    ``service_s`` / ``network_s`` / ``retry_s`` attrs that sum to the
    span's end-to-end duration by construction.  Returns totals per
    segment, the dominant segment, and the ``top_k`` slowest traces.
    """
    clock = float(now) if now is not None else latest_span_time(spans)
    # Truncated spans (in flight when the run ended) have no e2e latency
    # to decompose; only completed requests (ok or failed) count.
    requests = [s for s in spans if s.category == "request"
                and s.end is not None and s.status != "truncated"]
    totals = {segment: 0.0 for segment in SEGMENTS}
    latency_sum = 0.0
    failed = 0
    rows: List[Dict[str, Any]] = []
    for span in requests:
        latency = span.duration_or(clock)
        latency_sum += latency
        if span.status != "ok":
            failed += 1
        segments = {segment: float(span.attrs.get(f"{segment}_s", 0.0))
                    for segment in SEGMENTS}
        for segment, value in segments.items():
            totals[segment] += value
        rows.append({
            "trace_id": span.trace_id,
            "name": span.name,
            "status": span.status,
            "latency_s": latency,
            "segments": segments,
            "attempts": int(span.attrs.get("attempts", 1)),
        })
    rows.sort(key=lambda r: -r["latency_s"])
    count = len(requests)
    dominant = max(totals, key=lambda s: totals[s]) if count else None
    return {
        "requests": count,
        "failed": failed,
        "mean_latency_s": latency_sum / count if count else 0.0,
        "segments": totals,
        "dominant_segment": dominant,
        "top": rows[:top_k],
    }


# --------------------------------------------------------------------------- #
# Flamegraphs (Brendan Gregg collapsed-stack format)
# --------------------------------------------------------------------------- #
def collapsed_kernel_stacks(profile: Dict[str, Any]) -> List[str]:
    """``plane;subsystem;label <wall_us>`` lines from a profile snapshot.

    The synthetic three-frame stack (plane -> label prefix -> full label)
    makes the flamegraph's first tier the subsystem cost attribution and
    lets standard tooling (flamegraph.pl, speedscope) drill into labels.
    """
    lines: List[str] = []
    for label, row in profile.get("labels", {}).items():
        value = int(round(row["total_ms"] * 1e3))  # ms -> integer us
        if value <= 0:
            value = 1 if row.get("count") else 0
        if not value:
            continue
        plane = row.get("plane") or plane_of_label(label)
        prefix = label.split(":", 1)[0] if label else "(unlabeled)"
        frames = [plane, prefix]
        if label != prefix:
            frames.append(label)
        lines.append(f"{';'.join(frames)} {value}")
    return sorted(lines)


def collapsed_span_stacks(recorder: Any, now: Optional[float] = None) -> List[str]:
    """Collapsed stacks over the span tree, valued by *simulated* self time.

    Frames are ``plane;ancestor;...;span-name`` along each span's parent
    chain; values are integer simulated microseconds of self time, so the
    flamegraph shows where simulated time (not wall time) went -- the view
    that explains request latency rather than host CPU.
    """
    clock = float(now) if now is not None else latest_span_time(recorder)
    merged: Dict[str, int] = {}
    for span, self_s in _span_self_times(recorder, clock):
        value = int(round(self_s * 1e6))
        if value <= 0:
            continue
        names: List[str] = [span.name]
        parent_id = span.parent_id
        depth = 0
        while parent_id is not None and depth < 64:
            parent = recorder.get(parent_id)
            if parent is None:
                break
            names.append(parent.name)
            parent_id = parent.parent_id
            depth += 1
        names.append(plane_of_category(span.category))
        stack = ";".join(reversed(names))
        merged[stack] = merged.get(stack, 0) + value
    return sorted(f"{stack} {value}" for stack, value in merged.items())


def write_flamegraph(path: Any, lines: Iterable[str]) -> int:
    """Write collapsed stacks as they come; returns the lines written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for count, row in enumerate(lines, 1):
            fh.write(row + "\n")
    return count


# --------------------------------------------------------------------------- #
# Differential profiling
# --------------------------------------------------------------------------- #
def _delta_rows(before: Dict[str, Any], after: Dict[str, Any],
                key: str) -> List[Dict[str, Any]]:
    names = set(before.get(key, {})) | set(after.get(key, {}))
    rows: List[Dict[str, Any]] = []
    for name in names:
        b = before.get(key, {}).get(name, {})
        a = after.get(key, {}).get(name, {})
        b_ms = float(b.get("total_ms", 0.0))
        a_ms = float(a.get("total_ms", 0.0))
        delta = a_ms - b_ms
        rows.append({
            "name": name,
            "before_ms": b_ms,
            "after_ms": a_ms,
            "delta_ms": delta,
            "ratio": (a_ms / b_ms) if b_ms > 0 else None,
            "before_events": int(b.get("count", 0)),
            "after_events": int(a.get("count", 0)),
        })
    rows.sort(key=lambda r: -abs(r["delta_ms"]))
    return rows


def diff_profiles(before: Dict[str, Any],
                  after: Dict[str, Any],
                  top_labels: int = 15) -> Dict[str, Any]:
    """Attribute the wall-time delta between two profiles.

    Returns plane rows (every plane, ranked by absolute delta) and the
    ``top_labels`` most-moved labels; ``top_plane`` names the subsystem
    responsible for the largest absolute delta -- the answer regression
    triage wants first.
    """
    plane_rows = _delta_rows(before, after, "planes")
    label_rows = _delta_rows(before, after, "labels")[:top_labels]
    top = plane_rows[0] if plane_rows else None
    diff: Dict[str, Any] = {
        "schema": PROFILE_SCHEMA,
        "before": before.get("meta", {}),
        "after": after.get("meta", {}),
        "planes": plane_rows,
        "labels": label_rows,
        "top_plane": top["name"] if top else None,
        "top_plane_delta_ms": top["delta_ms"] if top else 0.0,
    }
    cp_before = before.get("critical_path")
    cp_after = after.get("critical_path")
    if cp_before and cp_after:
        segments = {}
        for segment in SEGMENTS:
            b = float(cp_before["segments"].get(segment, 0.0))
            a = float(cp_after["segments"].get(segment, 0.0))
            segments[segment] = {"before_s": b, "after_s": a,
                                 "delta_s": a - b}
        diff["critical_path"] = {
            "segments": segments,
            "top_segment": max(segments,
                               key=lambda s: abs(segments[s]["delta_s"])),
        }
    return diff


def render_profile_diff(diff: Dict[str, Any], limit: int = 10) -> str:
    """Human-readable diff table (used by the CLI and regress.py)."""
    lines: List[str] = []
    top = diff.get("top_plane")
    if top is not None:
        delta = diff.get("top_plane_delta_ms", 0.0)
        direction = "slower" if delta >= 0 else "faster"
        lines.append(f"top mover: {top} ({delta:+.2f} ms wall, {direction})")
    header = f"{'plane':<14} {'before ms':>10} {'after ms':>10} {'delta ms':>10} {'ratio':>7}"
    lines.append(header)
    lines.append("-" * len(header))
    for row in diff.get("planes", [])[:limit]:
        ratio = f"{row['ratio']:.2f}x" if row["ratio"] is not None else "new"
        lines.append(
            f"{row['name']:<14} {row['before_ms']:>10.2f} {row['after_ms']:>10.2f} "
            f"{row['delta_ms']:>+10.2f} {ratio:>7}")
    labels = diff.get("labels", [])
    if labels:
        lines.append("")
        lines.append(f"{'label':<32} {'delta ms':>10} {'events':>14}")
        for row in labels[:limit]:
            events = f"{row['before_events']}->{row['after_events']}"
            lines.append(
                f"{row['name']:<32} {row['delta_ms']:>+10.2f} {events:>14}")
    critical = diff.get("critical_path")
    if critical:
        lines.append("")
        lines.append("request critical path (summed seconds per segment):")
        for segment in SEGMENTS:
            row = critical["segments"][segment]
            lines.append(
                f"  {segment:<8} {row['before_s']:>9.3f} -> {row['after_s']:>9.3f} "
                f"({row['delta_s']:+.3f})")
        lines.append(f"  top segment: {critical['top_segment']}")
    return "\n".join(lines)


def profiles_from_bench(snapshot: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The ``profiles`` section of a BENCH snapshot (empty for old ones).

    BENCH_*.json gained a top-level ``profiles`` key alongside
    ``benches``; ``compare_snapshots`` ignores it, so old baselines stay
    comparable and new ones carry the attribution data ``profile diff``
    reads.
    """
    profiles = snapshot.get("profiles")
    return dict(profiles) if isinstance(profiles, dict) else {}


def diff_bench_profiles(before: Dict[str, Any],
                        after: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Per-scenario profile diffs between two BENCH snapshots."""
    b_profiles = profiles_from_bench(before)
    a_profiles = profiles_from_bench(after)
    out: Dict[str, Dict[str, Any]] = {}
    for name in sorted(set(b_profiles) & set(a_profiles)):
        out[name] = diff_profiles(b_profiles[name], a_profiles[name])
    return out


#: Bench name -> plane, for regressions on snapshots that predate profile
#: capture: the bench's own subject is the best available attribution.
BENCH_PLANES: Dict[str, str] = {
    "kernel": "kernel",
    "traffic": "traffic",
    "security": "security",
    "persistence": "persistence",
    "observability": "telemetry",
    "histogram": "telemetry",
    "smart_city": "workload",
    "mape_outage": "mape",
}


def attribute_regressions(
    regressions: Iterable[str],
    before: Dict[str, Any],
    after: Dict[str, Any],
) -> List[str]:
    """Name the plane responsible for each regressed bench metric.

    ``regressions`` are ``"bench.metric: ..."`` strings from
    ``compare_snapshots``.  With profiles on both snapshots the diff's
    top plane is reported; otherwise the bench-name heuristic
    (:data:`BENCH_PLANES`) attributes by subject.
    """
    diffs = {name: diff for name, diff in diff_bench_profiles(before, after).items()
             if diff.get("top_plane")}
    fallback = next(iter(diffs.values()), None)
    lines: List[str] = []
    for regression in regressions:
        bench = regression.split(".", 1)[0]
        diff = diffs.get(bench, fallback)
        if diff is not None:
            source = "" if bench in diffs else " (nearest profiled scenario)"
            lines.append(
                f"{bench}: profile diff attributes the delta to plane "
                f"'{diff['top_plane']}' ({diff['top_plane_delta_ms']:+.2f} ms)"
                f"{source}")
        else:
            plane = BENCH_PLANES.get(bench)
            if plane:
                lines.append(f"{bench}: no profile data; bench subject maps "
                             f"to plane '{plane}'")
    # Dedup while preserving order: several regressed metrics of one bench
    # produce the same attribution line.
    unique: List[str] = []
    for line in lines:
        if line not in unique:
            unique.append(line)
    return unique


# --------------------------------------------------------------------------- #
# Prometheus / HTML surfaces
# --------------------------------------------------------------------------- #
def profile_prom_lines(profile: Dict[str, Any]) -> List[str]:
    """``repro_profile_*`` families from a profile snapshot."""
    lines: List[str] = []
    planes = profile.get("planes", {})
    if planes:
        busy = "repro_profile_plane_busy_seconds"
        events = "repro_profile_plane_events_total"
        queue = "repro_profile_plane_queue_seconds"
        lines.append(f"# TYPE {busy} gauge")
        for plane in sorted(planes):
            lines.append(
                f'{busy}{{plane="{plane}"}} {planes[plane]["total_ms"] / 1e3!r}')
        lines.append(f"# TYPE {events} counter")
        for plane in sorted(planes):
            lines.append(f'{events}{{plane="{plane}"}} {planes[plane]["count"]}')
        lines.append(f"# TYPE {queue} gauge")
        for plane in sorted(planes):
            lines.append(
                f'{queue}{{plane="{plane}"}} {planes[plane]["queue_s"]!r}')
    kernel = profile.get("kernel")
    if kernel:
        metric = "repro_profile_kernel_events_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {kernel['events']}")
        metric = "repro_profile_kernel_busy_seconds"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {kernel['busy_ms'] / 1e3!r}")
    routes = profile.get("route_cache")
    if routes:
        for key in ("hits", "misses", "invalidations"):
            metric = f"repro_profile_route_cache_{key}_total"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {routes[key]}")
    critical = profile.get("critical_path")
    if critical:
        metric = "repro_profile_request_segment_seconds"
        lines.append(f"# TYPE {metric} gauge")
        for segment in SEGMENTS:
            lines.append(
                f'{metric}{{segment="{segment}"}} '
                f'{float(critical["segments"].get(segment, 0.0))!r}')
        metric = "repro_profile_request_mean_latency_seconds"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {float(critical['mean_latency_s'])!r}")
    return lines


def route_cache_line(profile: Dict[str, Any]) -> Optional[str]:
    """One-line route-cache health for the CLI and the HTML report."""
    routes = profile.get("route_cache")
    if not routes:
        return None
    return (f"route cache: {routes['hit_rate']:.1%} hit rate "
            f"({routes['hits']} hits, {routes['misses']} misses, "
            f"{routes['invalidations']} invalidations)")

