"""Exporters: JSONL, Chrome trace-event, Prometheus, HTML, snapshots.

Spans and trace events are simulator-domain data; these functions turn
them into artifacts standard tooling reads:

* ``write_spans_jsonl`` / ``write_events_jsonl`` -- one JSON object per
  line, grep/jq-friendly, stable field order.
* ``write_chrome_trace`` -- the Trace Event Format consumed by
  ``chrome://tracing`` and https://ui.perfetto.dev: spans become complete
  ("X") slices on one thread per category, trace events become instants.
  Simulated seconds are mapped to microseconds so one trace-viewer "us"
  equals one simulated microsecond.
* ``prometheus_text`` / ``write_prometheus`` -- Prometheus text
  exposition (format 0.0.4) of counters, series summaries and streaming
  histograms, so a run's final state scrapes into any Prometheus stack.
* ``write_html_report`` -- a single self-contained HTML file with the
  KPI tables, SLO statuses and availability bars of one observed run.
* ``write_metrics_snapshot`` / ``write_profile`` -- JSON dumps of the
  :meth:`MetricsRecorder.snapshot` and :meth:`Instrument.report` dicts.

All writers take a path, write atomically-enough (single open/write), and
return the number of records written so CLIs can report artifact sizes.
"""

from __future__ import annotations

import html as _html
import json
import re
from typing import IO, Any, Dict, Iterable, List, Optional, Union

from repro.observability.histogram import StreamingHistogram
from repro.observability.instrument import Instrument
from repro.observability.kpis import availability_kpis
from repro.observability.overhead import (
    telemetry_health,
    telemetry_prom_lines,
)
from repro.observability.profile import (
    profile_plane_rows,
    profile_prom_lines,
    profile_segment_rows,
    route_cache_line,
)
from repro.observability.spans import Span
from repro.simulation.metrics import MetricsRecorder
from repro.simulation.trace import TraceEvent

PathLike = Union[str, "os.PathLike[str]"]  # noqa: F821 - typing alias only

_US = 1e6  # simulated seconds -> trace-viewer microseconds


def _default(obj: Any) -> str:
    """Fallback serializer: repr anything JSON doesn't know (sets, objects)."""
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)  # type: ignore[return-value]
    return repr(obj)


def _write_jsonl(records: List[Dict[str, Any]], path: PathLike) -> int:
    """One JSON object per line; returns the number of lines written.

    One encoder per file and one write: byte for byte what
    ``json.dumps(record, default=_default) + "\n"`` per record gives,
    without a ``JSONEncoder`` built and a ``write`` issued per record.
    """
    encode = json.JSONEncoder(default=_default).encode
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join([encode(record) + "\n" for record in records]))
    return len(records)


def write_spans_jsonl(spans: Iterable[Span], path: PathLike) -> int:
    """One span per line; returns the number of spans written."""
    return _write_jsonl([span.to_dict() for span in spans], path)


def event_to_dict(event: TraceEvent) -> Dict[str, Any]:
    return {
        "time": event.time,
        "category": event.category,
        "name": event.name,
        "subject": event.subject,
        "attrs": event.attrs,
    }


def write_events_jsonl(events: Iterable[TraceEvent], path: PathLike) -> int:
    """One trace event per line; returns the number of events written."""
    return _write_jsonl([event_to_dict(event) for event in events], path)


#: What a Chrome-trace ``args`` value may be as it stands; anything else is
#: shown by its ``repr``.  The exact-class set answers for every plain
#: value without a call; ``isinstance`` still decides for subclasses.
_SCALARS = (int, float, str, bool, type(None))
_SCALAR_CLASSES = frozenset(_SCALARS)


def _chrome_args(args: Dict[str, Any], attrs: Dict[str, Any]) -> Dict[str, Any]:
    """``args`` plus ``attrs``, non-scalar values replaced by their repr."""
    args.update(attrs)
    for key, value in attrs.items():
        if (value.__class__ not in _SCALAR_CLASSES
                and not isinstance(value, _SCALARS)):
            args[key] = repr(value)
    return args


def chrome_trace_events(
    spans: Iterable[Span] = (),
    events: Iterable[TraceEvent] = (),
) -> List[Dict[str, Any]]:
    """Build the Trace Event Format record list for spans + trace events.

    Each span/event category gets its own named thread so Perfetto's track
    view groups the stack layer by layer (messages, mape, faults, ...).
    """
    records: List[Dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
         "args": {"name": "repro simulation"}},
    ]
    tids: Dict[str, int] = {}

    def tid_for(category: str) -> int:
        tid = tids.get(category)
        if tid is None:
            tid = tids[category] = len(tids) + 1
            records.append({
                "ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
                "args": {"name": category},
            })
        return tid

    for span in spans:
        end = span.end if span.end is not None else span.start
        args = {"trace_id": span.trace_id, "span_id": span.span_id,
                "status": span.status}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        records.append({
            "ph": "X",
            "name": span.name,
            "cat": span.category,
            "ts": span.start * _US,
            "dur": max((end - span.start) * _US, 1.0),
            "pid": 1,
            "tid": tid_for(span.category),
            "args": _chrome_args(args, span.attrs),
        })
    for event in events:
        records.append({
            "ph": "i",
            "name": event.name,
            "cat": event.category,
            "ts": event.time * _US,
            "pid": 1,
            "tid": tid_for(f"events:{event.category}"),
            "s": "t",
            "args": _chrome_args({"subject": event.subject}, event.attrs),
        })
    return records


def write_chrome_trace(
    path: PathLike,
    spans: Iterable[Span] = (),
    events: Iterable[TraceEvent] = (),
) -> int:
    """Write a chrome://tracing / Perfetto-loadable JSON file."""
    records = chrome_trace_events(spans=spans, events=events)
    payload = {"traceEvents": records, "displayTimeUnit": "ms"}
    with open(path, "w", encoding="utf-8") as fh:
        # dumps, not dump: dump streams through the pure-Python encoder one
        # token at a time; dumps encodes in C, byte for byte the same.
        fh.write(json.dumps(payload, default=_default))
    return len(records)


def write_metrics_snapshot(metrics: MetricsRecorder, path: PathLike) -> Dict[str, Any]:
    """Dump ``metrics.snapshot()`` (series summaries + counters) as JSON."""
    snapshot = metrics.snapshot()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True, default=_default)
    return snapshot


def write_profile(instrument: Optional[Instrument], path: PathLike) -> Dict[str, Any]:
    """Dump the kernel profile report as JSON (empty report if detached)."""
    report = instrument.report() if instrument is not None else {"events": 0}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=_default)
    return report


# --------------------------------------------------------------------------- #
# Shared render inputs (file exporters + live HTTP endpoints)
# --------------------------------------------------------------------------- #
def report_inputs(system: Any, scenario: Optional[str] = None,
                  kpi_report: Optional[Any] = None,
                  shards: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Assemble everything the Prometheus and HTML renderers consume.

    One assembly path for ``python -m repro report`` (file artifacts) and
    the live telemetry server (``/metrics``, dashboard), so served and
    written telemetry can never drift.  Pure reads: safe to call mid-run
    from an HTTP handler thread under the service lock (in particular it
    never finishes open spans -- end-of-run callers do that themselves
    before asking for a report).

    Returns a dict with ``kpi_report``, ``histograms``, ``per_kind``,
    ``per_source``, ``telemetry``, ``profile`` and ``availability``.
    ``shards`` (a federation summary dict with ``rows`` from
    :meth:`~repro.shard.driver.FederationResult.shard_rows`) is passed
    through verbatim for the ``repro_shard_*`` Prometheus families and
    the HTML "Shards" table.
    """
    report = kpi_report if kpi_report is not None else system.kpi_report()
    histograms: Dict[str, StreamingHistogram] = {}
    if report.repair_latency is not None and report.repair_latency.count:
        histograms["repair_latency_seconds"] = report.repair_latency
    per_kind = system.network.stats.per_kind
    for kind, hist in sorted(per_kind.items()):
        if hist.count:
            histograms[f"network_latency_seconds_{kind}"] = hist
    meta = {"scenario": scenario} if scenario else None
    return {
        "kpi_report": report,
        "histograms": histograms,
        "per_kind": per_kind,
        "per_source": system.network.stats.per_source,
        "telemetry": telemetry_health(system),
        "profile": system.profile_snapshot(meta=meta),
        "availability": availability_kpis(system.metrics, system.sim.now),
        "shards": shards,
    }


# --------------------------------------------------------------------------- #
# Prometheus text exposition
# --------------------------------------------------------------------------- #
_PROM_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str, prefix: str = "repro_") -> str:
    """Sanitize a recorder metric name into a Prometheus metric name."""
    sanitized = _PROM_NAME_RE.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return prefix + sanitized


def _prom_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def prometheus_text(
    metrics: MetricsRecorder,
    histograms: Optional[Dict[str, StreamingHistogram]] = None,
    prefix: str = "repro_",
    per_source: Optional[Dict[str, List[int]]] = None,
    telemetry: Optional[Dict[str, Any]] = None,
    profile: Optional[Dict[str, Any]] = None,
    shards: Optional[Dict[str, Any]] = None,
) -> str:
    """Render recorder state in the Prometheus text exposition format.

    Counters become ``counter`` metrics; each sample/level series becomes
    a ``summary`` (count/sum-free: quantile gauges from the recorder's
    nearest-rank percentiles plus ``_count``); streaming histograms
    become classic cumulative-``le`` ``histogram`` metrics that
    downstream aggregation can sum across runs.  ``per_source`` (the
    transport's :attr:`NetworkStats.per_source` map) adds per-sender
    ``src``-labeled message/byte counters -- the attribution substrate
    flooding detection reads.  ``telemetry`` (a
    :func:`~repro.observability.overhead.telemetry_health` dict) appends
    the telemetry-budget gauges: ring-buffer drops, span retention and
    the ``repro_observability_overhead_*`` self-metering family.
    ``profile`` (a :func:`~repro.observability.profile.capture_profile`
    snapshot) appends the ``repro_profile_*`` plane-attribution and
    request-segment families.  ``shards`` (a federation summary with
    per-shard ``rows``) appends the ``repro_shard_*`` families: events,
    mailbox depth, window count and synchronization-wait wall time.
    """
    lines: List[str] = []
    if per_source:
        msg_metric = prefix + "network_source_messages_total"
        byte_metric = prefix + "network_source_bytes_total"
        lines.append(f"# TYPE {msg_metric} counter")
        for src in sorted(per_source):
            lines.append(f'{msg_metric}{{src="{src}"}} {per_source[src][0]}')
        lines.append(f"# TYPE {byte_metric} counter")
        for src in sorted(per_source):
            lines.append(f'{byte_metric}{{src="{src}"}} {per_source[src][1]}')
    for name in metrics.counter_names:
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_prom_value(metrics.counter(name))}")
    summaries = metrics.summary(include_counters=False)
    for name in sorted(summaries):
        entry = summaries[name]
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} summary")
        for q_label, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            if key in entry:
                lines.append(
                    f'{metric}{{quantile="{q_label}"}} {_prom_value(entry[key])}')
        lines.append(f"{metric}_count {_prom_value(entry['count'])}")
        for suffix in ("mean", "min", "max"):
            if suffix in entry:
                lines.append(
                    f"{metric}_{suffix} {_prom_value(entry[suffix])}")
    for name in sorted(histograms or {}):
        hist = histograms[name]
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} histogram")
        for bound, cumulative in zip(hist.bounds, hist.cumulative_counts()):
            lines.append(
                f'{metric}_bucket{{le="{_prom_value(bound)}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{metric}_sum {_prom_value(hist.total)}")
        lines.append(f"{metric}_count {hist.count}")
    if telemetry is not None:
        lines.extend(telemetry_prom_lines(telemetry, prefix=prefix))
    if profile is not None:
        lines.extend(profile_prom_lines(profile, prefix=prefix))
    if shards is not None:
        lines.extend(shard_prom_lines(shards, prefix=prefix))
    return "\n".join(lines) + ("\n" if lines else "")


def shard_prom_lines(shards: Dict[str, Any], prefix: str = "repro_") -> List[str]:
    """The ``repro_shard_*`` federation families.

    ``shards`` is the summary dict the shard CLI builds from a
    :class:`~repro.shard.driver.FederationResult`: scalar run facts
    (``shards``, ``windows``, ``lookahead``, ``wall_s``) plus per-shard
    ``rows`` (:meth:`~repro.shard.driver.FederationResult.shard_rows`).
    Per-shard series carry a ``shard`` label so dashboards can spot a
    straggler (high ``sync_wait``) or a hot mailbox at a glance.
    """
    lines: List[str] = []
    for key, suffix, kind in (
        ("shards", "shard_count", "gauge"),
        ("windows", "shard_windows_total", "counter"),
        ("lookahead", "shard_lookahead_seconds", "gauge"),
        ("wall_s", "shard_wall_seconds", "gauge"),
        ("devices", "shard_devices", "gauge"),
    ):
        if key in shards and shards[key] is not None:
            metric = prefix + suffix
            lines.append(f"# TYPE {metric} {kind}")
            lines.append(f"{metric} {_prom_value(shards[key])}")
    rows = shards.get("rows") or []
    for key, suffix, kind in (
        ("events", "shard_events_total", "counter"),
        ("mailbox_peak", "shard_mailbox_depth_peak", "gauge"),
        ("injected", "shard_mailbox_injected_total", "counter"),
        ("sync_wait_s", "shard_sync_wait_seconds_total", "counter"),
        ("wall_s", "shard_run_wall_seconds_total", "counter"),
    ):
        if not rows or key not in rows[0]:
            continue
        metric = prefix + suffix
        lines.append(f"# TYPE {metric} {kind}")
        for row in rows:
            lines.append(
                f'{metric}{{shard="{row["shard"]}"}} {_prom_value(row[key])}')
    return lines


def write_prometheus(
    metrics: MetricsRecorder,
    path: PathLike,
    histograms: Optional[Dict[str, StreamingHistogram]] = None,
    prefix: str = "repro_",
    per_source: Optional[Dict[str, List[int]]] = None,
    telemetry: Optional[Dict[str, Any]] = None,
    profile: Optional[Dict[str, Any]] = None,
    shards: Optional[Dict[str, Any]] = None,
) -> int:
    """Write the Prometheus exposition; returns the number of lines."""
    text = prometheus_text(metrics, histograms=histograms, prefix=prefix,
                           per_source=per_source, telemetry=telemetry,
                           profile=profile, shards=shards)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text.count("\n")


# --------------------------------------------------------------------------- #
# HTML resilience report
# --------------------------------------------------------------------------- #
_HTML_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 60rem; color: #1a2332; }
h1 { font-size: 1.5rem; } h2 { font-size: 1.15rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; margin: 0.75rem 0; }
th, td { text-align: left; padding: 0.35rem 0.6rem;
         border-bottom: 1px solid #dde3ea; font-size: 0.9rem; }
th { background: #f2f5f8; font-weight: 600; }
.ok { color: #1b7f4d; font-weight: 600; }
.breach { color: #b3261e; font-weight: 600; }
.kpi-grid { display: flex; flex-wrap: wrap; gap: 0.75rem; margin: 1rem 0; }
.kpi { border: 1px solid #dde3ea; border-radius: 0.5rem;
       padding: 0.6rem 1rem; min-width: 9rem; }
.kpi .value { font-size: 1.3rem; font-weight: 700; }
.kpi .label { font-size: 0.75rem; color: #5b6776; text-transform: uppercase; }
.bar { background: #eef1f5; border-radius: 3px; height: 0.7rem;
       width: 12rem; display: inline-block; vertical-align: middle; }
.bar > span { background: #2f6fd6; height: 100%; display: block;
              border-radius: 3px; }
footer { margin-top: 2.5rem; font-size: 0.75rem; color: #8a94a1; }
"""


def _html_cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return _html.escape(str(value))


def _html_table(headers: List[str], rows: List[List[Any]],
                classes: Optional[List[Optional[str]]] = None) -> str:
    head = "".join(f"<th>{_html.escape(str(h))}</th>" for h in headers)
    body = []
    for i, row in enumerate(rows):
        cls = classes[i] if classes and i < len(classes) and classes[i] else None
        attr = f' class="{cls}"' if cls else ""
        cells = "".join(f"<td>{_html_cell(c)}</td>" for c in row)
        body.append(f"<tr{attr}>{cells}</tr>")
    return (f"<table><thead><tr>{head}</tr></thead>"
            f"<tbody>{''.join(body)}</tbody></table>")


def bench_trajectory_rows(
    snapshots: List[Dict[str, Any]],
) -> List[List[Any]]:
    """Per-metric drift rows across an ordered list of bench snapshots.

    ``snapshots`` are loaded ``BENCH_*.json`` payloads (oldest first),
    each ``{"label": ..., "benches": {bench: {metric: value}}}``.  Rows
    are ``[bench.metric, first, last, drift, drift%]`` for every metric
    present in the newest snapshot; metrics absent from the oldest show
    "-" for first/drift so new benches don't read as infinite growth.
    """
    if not snapshots:
        return []
    first, last = snapshots[0], snapshots[-1]
    rows: List[List[Any]] = []
    for bench in sorted(last.get("benches", {})):
        newest = last["benches"][bench]
        oldest = first.get("benches", {}).get(bench, {})
        for metric in sorted(newest):
            new_value = newest[metric]
            if not isinstance(new_value, (int, float)):
                continue
            old_value = oldest.get(metric)
            if isinstance(old_value, (int, float)):
                drift = new_value - old_value
                pct = (f"{drift / old_value:+.1%}" if old_value else
                       ("0.0%" if not drift else "new"))
                rows.append([f"{bench}.{metric}", old_value, new_value,
                             drift, pct])
            else:
                rows.append([f"{bench}.{metric}", "-", new_value, "-", "new"])
    return rows


def chaos_campaign_rows(campaign: Dict[str, Any]) -> List[List[Any]]:
    """Case rows for a campaign dict (``CampaignResult.to_dict()``)."""
    rows: List[List[Any]] = []
    for index, case in enumerate(campaign.get("cases", [])):
        violations = case.get("violations") or []
        rows.append([
            index,
            case.get("describe", "?"),
            case.get("spec_digest", "?"),
            case.get("events", 0),
            ", ".join(violations) if violations else "ok",
        ])
    return rows


def _render_chaos_section(chaos: Dict[str, Any]) -> str:
    """The "Chaos campaign" report section.

    ``chaos`` carries ``campaign`` (a ``CampaignResult.to_dict()``) and
    optionally ``corpus`` (a list of ``BundleVerdict.to_dict()``).
    """
    parts: List[str] = []
    campaign = chaos.get("campaign")
    if campaign:
        parts.append("<h2>Chaos campaign</h2>")
        parts.append(
            f"<p>Seed <code>{campaign.get('seed')}</code>: "
            f"{campaign.get('runs', 0)} sampled specs, "
            f"{campaign.get('violations', 0)} violation(s), "
            f"{campaign.get('wall_s', 0.0):.1f}s wall.</p>")
        rows = chaos_campaign_rows(campaign)
        classes = ["ok" if row[-1] == "ok" else "breach" for row in rows]
        parts.append(_html_table(
            ["case", "spec", "digest", "events", "verdict"], rows,
            classes=classes))
        findings = campaign.get("findings") or []
        if findings:
            parts.append("<h3>Shrunk findings</h3>")
            parts.append(_html_table(
                ["found", "shrunk to", "attempts", "violations", "bundle"],
                [[f.get("found", {}).get("describe", "?"),
                  f.get("shrunk_describe", "?"),
                  f.get("shrink_attempts", 0),
                  ", ".join(f.get("shrunk_violations") or []),
                  f.get("bundle") or "-"] for f in findings]))
    corpus = chaos.get("corpus")
    if corpus:
        parts.append("<h2>Failure corpus</h2>")
        classes = ["ok" if v.get("ok") else "breach" for v in corpus]
        parts.append(_html_table(
            ["bundle", "barrier (s)", "events", "verdict"],
            [[v.get("bundle", "?"),
              "-" if v.get("barrier_time") is None else v["barrier_time"],
              "-" if v.get("barrier_fired") is None else v["barrier_fired"],
              "replayed (digest match)" if v.get("ok")
              else (v.get("error") or "failed")] for v in corpus],
            classes=classes))
    return "".join(parts)


def _render_shards_section(shards: Dict[str, Any]) -> str:
    """The "Shards" report section (federation summary + per-shard rows).

    ``shards`` is the summary dict built from a
    :class:`~repro.shard.driver.FederationResult`: scalar run facts plus
    per-shard ``rows``.
    """
    parts: List[str] = ["<h2>Shards</h2>"]
    facts: List[str] = []
    if shards.get("shards") is not None:
        facts.append(f"{shards['shards']} shard(s)")
    if shards.get("workers") is not None:
        facts.append(f"{shards['workers']} worker(s)")
    if shards.get("windows") is not None:
        facts.append(f"{shards['windows']} lookahead window(s)")
    if shards.get("lookahead") is not None:
        facts.append(f"W={shards['lookahead']:g}s")
    if shards.get("devices"):
        facts.append(f"{shards['devices']:,} devices")
    if shards.get("wall_s") is not None:
        facts.append(f"{shards['wall_s']:.1f}s wall")
    if facts:
        parts.append(f"<p>{_html.escape(', '.join(facts))}.</p>")
    rows = shards.get("rows") or []
    if rows:
        parts.append(_html_table(
            ["shard", "domains", "events", "wall (s)", "sync wait (s)",
             "mailbox peak", "injected", "digest"],
            [[row.get("shard"),
              ", ".join(row.get("domains") or []),
              row.get("events"),
              "-" if row.get("wall_s") is None else f"{row['wall_s']:.2f}",
              ("-" if row.get("sync_wait_s") is None
               else f"{row['sync_wait_s']:.2f}"),
              row.get("mailbox_peak"),
              row.get("injected"),
              (row.get("digest") or "-")[:16]] for row in rows]))
    digest = shards.get("federation_digest")
    if digest:
        parts.append(
            f"<p>Federation digest: <code>{_html.escape(str(digest))}</code> "
            "(verify with <code>python -m repro shard verify</code>).</p>")
    return "".join(parts)


def write_chaos_report(path: PathLike, title: str,
                       campaign: Optional[Dict[str, Any]] = None,
                       corpus: Optional[List[Dict[str, Any]]] = None) -> int:
    """Standalone self-contained HTML page for a chaos campaign/corpus."""
    body = _render_chaos_section({"campaign": campaign, "corpus": corpus})
    document = (
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">"
        f"<title>{_html.escape(title)}</title>"
        f"<style>{_HTML_STYLE}</style></head><body>"
        f"<h1>{_html.escape(title)}</h1>"
        f"{body}"
        "<footer>Generated by <code>python -m repro chaos</code> — all data "
        "derives deterministically from the campaign seed.</footer>"
        "</body></html>"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(document)
    return len(document.encode("utf-8"))


def render_html_report(
    title: str,
    kpi_report: Any,
    slo_monitor: Any = None,
    availability_per_device: Optional[Dict[str, float]] = None,
    network_kinds: Optional[Dict[str, StreamingHistogram]] = None,
    per_source: Optional[Dict[str, List[int]]] = None,
    incidents: Optional[List[Dict[str, Any]]] = None,
    telemetry: Optional[Dict[str, Any]] = None,
    bench_trajectory: Optional[List[List[Any]]] = None,
    profile: Optional[Dict[str, Any]] = None,
    chaos: Optional[Dict[str, Any]] = None,
    shards: Optional[Dict[str, Any]] = None,
    refresh: Optional[float] = None,
) -> str:
    """Build the self-contained HTML resilience report.

    ``refresh`` (seconds) adds a ``<meta http-equiv="refresh">`` tag --
    the live telemetry server serves an auto-refreshing dashboard from
    the same renderer the file exporter uses.

    ``kpi_report`` is a :class:`~repro.observability.kpis.KpiReport`;
    ``slo_monitor`` (optional) a :class:`~repro.observability.slo.SloMonitor`.
    Everything (style included) is inlined: the file opens anywhere, no
    network access, no external assets.

    ``incidents`` entries are dicts with ``reason``, ``time`` and the
    diagnosis ``rows`` (:meth:`~repro.observability.diagnosis.Diagnosis.table_rows`),
    plus an optional ``bundle`` path.  ``telemetry`` is a
    :func:`~repro.observability.overhead.telemetry_health` dict;
    ``bench_trajectory`` rows come from :func:`bench_trajectory_rows`;
    ``profile`` is a :func:`~repro.observability.profile.capture_profile`
    snapshot rendered as the "Profile" section (per-plane cost
    attribution + request critical-path breakdown).

    ``kpi_report`` may be ``None`` for federation-level reports (a
    sharded run has per-shard systems but no single-system KPI report);
    ``shards`` (the federation summary dict) then renders the "Shards"
    table standalone.
    """
    parts: List[str] = []
    if kpi_report is not None:
        headline = [
            ("availability", kpi_report.availability, "{:.4f}"),
            ("worst device", kpi_report.worst_availability, "{:.4f}"),
            ("degraded time (s)", kpi_report.degraded_time, "{:.1f}"),
            ("disruptions", len(kpi_report.arcs), "{}"),
            ("SLO alerts", kpi_report.alerts, "{}"),
            ("violations", kpi_report.violations, "{}"),
        ]
        tiles = []
        for label, value, fmt in headline:
            rendered = "-" if value is None else fmt.format(value)
            tiles.append(
                f'<div class="kpi"><div class="value">{rendered}</div>'
                f'<div class="label">{_html.escape(label)}</div></div>')
        parts.append(f'<div class="kpi-grid">{"".join(tiles)}</div>')

        parts.append("<h2>Resilience KPIs by disruption vector</h2>")
        parts.append(_html_table(
            ["vector", "faults", "resolved", "MTTD mean (s)", "MTTR mean (s)",
             "msgs/disruption", "disrupted time (s)"],
            kpi_report.vector_rows()))

    if shards:
        parts.append(_render_shards_section(shards))

    if slo_monitor is not None:
        parts.append("<h2>SLOs</h2>")
        rows = slo_monitor.table_rows()
        classes = ["breach" if row[-1] == "BREACH" else "ok" for row in rows]
        parts.append(_html_table(
            ["SLO", "kind", "objective", "measured", "burn rate", "status"],
            rows, classes=classes))
        parts.append(
            f"<p>{slo_monitor.evaluations} evaluations, "
            f"{slo_monitor.breach_events} breach event(s).</p>")

    if network_kinds:
        parts.append("<h2>Message latency by kind</h2>")
        parts.append(_html_table(
            ["kind", "delivered", "mean (s)", "p50 (s)", "p99 (s)", "max (s)"],
            [[kind, hist.count, hist.mean, hist.quantile(0.5),
              hist.quantile(0.99), hist.max]
             for kind, hist in sorted(network_kinds.items())
             if hist.count]))

    if per_source:
        total_msgs = sum(entry[0] for entry in per_source.values()) or 1
        parts.append("<h2>Messages by source</h2>")
        parts.append(_html_table(
            ["source", "messages", "bytes", "share"],
            [[src, entry[0], entry[1], f"{entry[0] / total_msgs:.1%}"]
             for src, entry in sorted(per_source.items(),
                                      key=lambda kv: -kv[1][0])]))

    security = getattr(kpi_report, "security", None)
    if security:
        parts.append("<h2>Security</h2>")
        parts.append(_html_table(
            ["signal", "value"],
            [["compromised nodes", ", ".join(security.get("compromised", [])) or "-"],
             ["quarantined nodes", ", ".join(security.get("quarantined", [])) or "-"],
             ["distrusted nodes", ", ".join(security.get("distrusted", [])) or "-"],
             ["key rotations", security.get("key_rotations", 0)],
             ["auth drops", security.get("dropped_auth", 0)],
             ["quarantine drops", security.get("dropped_quarantined", 0)]]))
        trust = security.get("trust") or {}
        if trust:
            parts.append(_html_table(
                ["node", "aggregate trust"],
                [[node, f"{score:.3f}"] for node, score in sorted(trust.items())]))

    if kpi_report is not None and kpi_report.convergence:
        parts.append("<h2>Protocol convergence</h2>")
        parts.append(_html_table(
            ["protocol", "rounds", "mean (s)", "p95 (s)", "max (s)"],
            [[name, int(stats["rounds"]), stats["mean"], stats["p95"],
              stats["max"]]
             for name, stats in sorted(kpi_report.convergence.items())]))

    if availability_per_device:
        parts.append("<h2>Per-device availability</h2>")
        bar_rows = []
        for device, value in sorted(availability_per_device.items()):
            width = max(0.0, min(1.0, value)) * 100.0
            bar = (f'<div class="bar"><span style="width:{width:.1f}%">'
                   f"</span></div> {value:.4f}")
            bar_rows.append(f"<tr><td>{_html.escape(device)}</td>"
                            f"<td>{bar}</td></tr>")
        parts.append("<table><thead><tr><th>device</th><th>availability</th>"
                     f"</tr></thead><tbody>{''.join(bar_rows)}</tbody></table>")

    if kpi_report is not None and kpi_report.arcs:
        parts.append("<h2>Disruption arcs</h2>")
        parts.append(_html_table(
            ["fault", "vector", "injected at (s)", "MTTD (s)", "MTTR (s)",
             "messages", "resolved"],
            [[arc.fault, arc.vector.value, arc.injected_at,
              "-" if arc.mttd is None else arc.mttd,
              "-" if arc.mttr is None else arc.mttr,
              arc.messages, "yes" if arc.resolved else "no"]
             for arc in kpi_report.arcs]))

    if incidents:
        parts.append("<h2>Incidents</h2>")
        for incident in incidents:
            reason = incident.get("reason", "?")
            time = incident.get("time", 0.0)
            parts.append(
                f'<p class="breach">Trigger: {_html.escape(str(reason))} '
                f"at t={time:g}s.</p>")
            rows = incident.get("rows") or []
            if rows:
                parts.append(_html_table(
                    ["rank", "kind", "subject", "t (s)", "score", "summary"],
                    rows))
            bundle = incident.get("bundle")
            if bundle:
                parts.append(
                    f"<p>Bundle: <code>{_html.escape(str(bundle))}</code> "
                    "(replay with <code>python -m repro incident replay"
                    "</code>).</p>")

    if telemetry:
        parts.append("<h2>Telemetry budget</h2>")
        trace_h = telemetry.get("trace", {})
        spans_h = telemetry.get("spans", {})
        series_h = telemetry.get("series", {})
        rows = [
            ["trace events buffered", trace_h.get("events", 0)],
            ["trace ring-buffer drops", trace_h.get("dropped", 0)],
            ["trace subscriber errors", trace_h.get("subscriber_errors", 0)],
            ["spans retained", spans_h.get("recorded", 0)],
            ["spans retained (approx bytes)", spans_h.get("approx_bytes", 0)],
            ["spans sampled out", spans_h.get("sampled_out", 0)],
            ["metric series", series_h.get("count", 0)],
            ["metric points retained", series_h.get("points", 0)],
        ]
        sampling = spans_h.get("sampling")
        if sampling:
            rows.append(["span sampling rate", sampling.get("rate")])
        overhead = telemetry.get("overhead")
        if overhead:
            rows.extend([
                ["telemetry records", overhead.get("records", 0)],
                ["recording wall time (s)",
                 overhead.get("recording_wall_s", 0.0)],
            ])
            fraction = overhead.get("recording_fraction")
            if fraction is not None:
                rows.append(["recording fraction of run", f"{fraction:.2%}"])
        parts.append(_html_table(["signal", "value"], rows))

    if profile:
        parts.append("<h2>Profile</h2>")
        plane_rows = profile_plane_rows(profile)
        if plane_rows:
            parts.append(_html_table(
                ["plane", "events", "wall (ms)", "share", "mean (µs)",
                 "queue lag (s)"],
                plane_rows))
        kernel = profile.get("kernel")
        if kernel:
            parts.append(
                f"<p>{kernel['events']} kernel events, "
                f"{kernel['busy_ms']:.1f} ms busy, mean queue depth "
                f"{kernel['mean_queue_depth']:.1f} "
                f"(max {kernel['max_queue_depth']}).</p>")
        routes = route_cache_line(profile)
        if routes:
            parts.append(f"<p>{routes}.</p>")
        segment_rows = profile_segment_rows(profile)
        if segment_rows:
            parts.append("<h2>Request critical path</h2>")
            parts.append(_html_table(
                ["segment", "summed time (s)", "share"], segment_rows))
            critical = profile["critical_path"]
            parts.append(
                f"<p>{critical['requests']} requests "
                f"({critical['failed']} failed), mean latency "
                f"{critical['mean_latency_s'] * 1e3:.2f} ms; dominant "
                f"segment: <strong>{_html.escape(str(critical['dominant_segment']))}"
                "</strong>.</p>")
            top = critical.get("top") or []
            if top:
                parts.append(_html_table(
                    ["trace", "request", "status", "latency (ms)", "queue (ms)",
                     "service (ms)", "network (ms)", "retry (ms)", "attempts"],
                    [[row["trace_id"], row["name"], row["status"],
                      row["latency_s"] * 1e3,
                      row["segments"]["queue"] * 1e3,
                      row["segments"]["service"] * 1e3,
                      row["segments"]["network"] * 1e3,
                      row["segments"]["retry"] * 1e3,
                      row["attempts"]] for row in top]))

    if chaos:
        parts.append(_render_chaos_section(chaos))

    if bench_trajectory:
        parts.append("<h2>Bench trajectory</h2>")
        parts.append(_html_table(
            ["metric", "first", "last", "drift", "drift %"],
            bench_trajectory))

    body = "".join(parts)
    meta_refresh = (f'<meta http-equiv="refresh" content="{refresh:g}">'
                    if refresh else "")
    if kpi_report is not None:
        horizon_line = f"<p>Simulated horizon: {kpi_report.horizon:.1f}s.</p>"
    elif shards and shards.get("horizon") is not None:
        horizon_line = (f"<p>Simulated horizon: {shards['horizon']:.1f}s "
                        f"across {shards.get('shards', '?')} shard(s).</p>")
    else:
        horizon_line = ""
    return (
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">"
        f"{meta_refresh}"
        f"<title>{_html.escape(title)}</title>"
        f"<style>{_HTML_STYLE}</style></head><body>"
        f"<h1>{_html.escape(title)}</h1>"
        f"{horizon_line}"
        f"{body}"
        "<footer>Generated by <code>python -m repro report</code> — all data "
        "derives deterministically from the run's seed.</footer>"
        "</body></html>"
    )


def write_html_report(
    path: PathLike,
    title: str,
    kpi_report: Any,
    slo_monitor: Any = None,
    availability_per_device: Optional[Dict[str, float]] = None,
    network_kinds: Optional[Dict[str, StreamingHistogram]] = None,
    per_source: Optional[Dict[str, List[int]]] = None,
    incidents: Optional[List[Dict[str, Any]]] = None,
    telemetry: Optional[Dict[str, Any]] = None,
    bench_trajectory: Optional[List[List[Any]]] = None,
    profile: Optional[Dict[str, Any]] = None,
    chaos: Optional[Dict[str, Any]] = None,
    shards: Optional[Dict[str, Any]] = None,
) -> int:
    """Write the HTML resilience report; returns bytes written."""
    document = render_html_report(
        title, kpi_report, slo_monitor=slo_monitor,
        availability_per_device=availability_per_device,
        network_kinds=network_kinds, per_source=per_source,
        incidents=incidents, telemetry=telemetry,
        bench_trajectory=bench_trajectory, profile=profile, chaos=chaos,
        shards=shards)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(document)
    return len(document.encode("utf-8"))
