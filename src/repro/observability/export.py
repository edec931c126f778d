"""Exporters: JSONL, Chrome trace-event, Prometheus, HTML, snapshots.

Spans and trace events are simulator-domain data; these functions turn
them into artifacts standard tooling reads:

* ``write_spans_jsonl`` / ``write_events_jsonl`` -- one JSON object per
  line, grep/jq-friendly, stable field order.
* ``write_chrome_trace`` -- the Trace Event Format consumed by
  ``chrome://tracing`` and https://ui.perfetto.dev: spans become complete
  ("X") slices on one thread per category, trace events become instants.
  Simulated seconds are mapped to microseconds so one trace-viewer "us"
  equals one simulated microsecond.  ``write_profile_chrome_trace``
  writes the same document with one thread per plane.
* ``prometheus_text`` / ``write_prometheus`` -- Prometheus text
  exposition (format 0.0.4) of counters, series summaries and streaming
  histograms, so a run's final state scrapes into any Prometheus stack.
* report sections (:class:`Section`) -- every report table (KPIs, SLOs,
  incident chain, shards, chaos, profile, ...) defined once as plain
  data, printed by the CLI as text or ``--json`` and rendered here as
  HTML.
* ``render_html_report`` / ``write_html_report`` / ``write_chaos_report``
  -- self-contained HTML pages over those sections, sharing one document
  shell.
* ``write_metrics_snapshot`` / ``write_profile`` -- JSON dumps of the
  :meth:`MetricsRecorder.snapshot` and :meth:`Instrument.report` dicts.

All writers take a path and return the number of records written so CLIs
can report artifact sizes.  The JSONL and Chrome-trace writers stream:
they encode records as their generators yield them and write
:data:`_CHUNK` records at a time, so an export holds one chunk, never the
record list or the whole document.  A trace event's line is formatted,
not serialised: its fixed keys come from a template and only its
``attrs`` (or Chrome ``args``) go through the encoder.
"""

from __future__ import annotations

import html as _html
import json
import re
from itertools import islice
from json.encoder import c_make_encoder, encode_basestring_ascii
from math import isfinite
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Union,
)

from repro.observability.histogram import StreamingHistogram
from repro.observability.instrument import Instrument
from repro.observability.kpis import availability_kpis
from repro.observability.overhead import (
    telemetry_health,
    telemetry_prom_lines,
)
from repro.observability.profile import (
    SEGMENTS,
    latest_span_time,
    plane_of_category,
    profile_prom_lines,
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


#: Encoded records per ``write``: a streaming writer holds this many.
_CHUNK = 512


def _value_encoder() -> Callable[[Any], str]:
    """``json.dumps(value, default=_default)``, from one C encoder.

    ``JSONEncoder.encode`` builds a C encoder on every call, through two
    Python frames; an export encodes thousands of small values, so it
    builds one and calls it.  Made per export: the circular-reference
    markers an aborted encode leaves behind die with it.
    """
    if c_make_encoder is None:  # pragma: no cover - CPython has _json
        return json.JSONEncoder(default=_default).encode
    iterencode = c_make_encoder({}, _default, encode_basestring_ascii, None,
                                ": ", ", ", False, False, True)

    def encode(value: Any) -> str:
        return "".join(iterencode(value, 0))
    return encode


#: Encoded strings one export keeps (:class:`_Quoted`).  A trace holds a
#: few dozen distinct categories, names and subjects; an export that
#: meets more starts over at this many.
_QUOTED_MEMO_SIZE = 256


class _Quoted(dict):
    """``str`` -> its JSON text, encoded on first lookup."""

    __slots__ = ()

    def __missing__(self, text: str) -> str:
        if len(self) >= _QUOTED_MEMO_SIZE:
            self.clear()
        quoted = self[text] = encode_basestring_ascii(text)
        return quoted


def _chunks(lines: Iterator[str]) -> Iterator[List[str]]:
    """``lines``, :data:`_CHUNK` at a time.

    One encode per record, not per chunk: encoding a chunk as one list
    holds the fragments of all its records until the final join (1.4 MiB
    more peak RSS on the repo benchmark's ``traffic_observed``).
    """
    chunk = list(islice(lines, _CHUNK))
    while chunk:
        yield chunk
        chunk = list(islice(lines, _CHUNK))


def _write_lines(lines: Iterator[str], path: PathLike) -> int:
    """One JSON text per line; returns the number of lines written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for chunk in _chunks(lines):
            fh.write("\n".join(chunk) + "\n")
            count += len(chunk)
    return count


def _write_jsonl(records: Iterable[Dict[str, Any]], path: PathLike) -> int:
    """One JSON object per line, each byte for byte ``json.dumps(record,
    default=_default)``; returns the number of lines written."""
    return _write_lines(map(_value_encoder(), records), path)


def write_spans_jsonl(spans: Iterable[Span], path: PathLike) -> int:
    """One span per line; returns the number of spans written."""
    return _write_jsonl((span.to_dict() for span in spans), path)


def event_to_dict(event: TraceEvent) -> Dict[str, Any]:
    return {
        "time": event.time,
        "category": event.category,
        "name": event.name,
        "subject": event.subject,
        "attrs": event.attrs,
    }


def _event_lines(events: Iterable[TraceEvent]) -> Iterator[str]:
    """Each event's JSON text, :func:`event_to_dict`'s record as
    ``json.dumps`` prints it.

    A finite ``float`` prints as its ``repr`` and a ``str`` as
    ``encode_basestring_ascii`` gives it, so those slots are formatted and
    only ``attrs`` is encoded.  An event with a slot the line cannot print
    (a non-``float`` or non-finite time, a non-``str`` category, name or
    subject) is encoded whole.  The line is an f-string, not a ``%``
    template: an f-string allocates the line at its length, ``%`` up to a
    quarter over it, and a writer holds a chunk of lines.
    """
    encode = _value_encoder()
    quoted = _Quoted()
    for event in events:
        time, category = event.time, event.category
        name, subject = event.name, event.subject
        if (time.__class__ is float and isfinite(time)
                and category.__class__ is str and name.__class__ is str
                and subject.__class__ is str):
            yield (f'{{"time": {time!r}, "category": {quoted[category]}, '
                   f'"name": {quoted[name]}, "subject": {quoted[subject]}, '
                   f'"attrs": {encode(event.attrs)}}}')
        else:
            yield encode(event_to_dict(event))


def write_events_jsonl(events: Iterable[TraceEvent], path: PathLike) -> int:
    """One trace event per line; returns the number of events written."""
    return _write_lines(_event_lines(events), path)


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


def _metadata(name: str, tid: int, value: str) -> Dict[str, Any]:
    """A Trace Event Format metadata ("M") record naming a process/thread."""
    return {"ph": "M", "name": name, "pid": 1, "tid": tid,
            "args": {"name": value}}


def _chrome_trace_lines(spans: Iterable[Span],
                        events: Iterable[TraceEvent]) -> Iterator[str]:
    """The Trace Event Format records for spans + trace events, as JSON text.

    Each span/event category gets its own named thread so Perfetto's track
    view groups the stack layer by layer (messages, mape, faults, ...);
    a thread's ``thread_name`` record comes just before its first record.
    Span slices are encoded; a trace event's instant is formatted as
    :func:`_event_lines` formats its line, or encoded whole when its name
    or category is not a ``str`` or its timestamp not a finite ``float``.
    """
    encode = _value_encoder()
    yield encode(_metadata("process_name", 0, "repro simulation"))
    tids: Dict[str, int] = {}
    for span in spans:
        tid = tids.get(span.category)
        if tid is None:
            tid = tids[span.category] = len(tids) + 1
            yield encode(_metadata("thread_name", tid, span.category))
        end = span.end if span.end is not None else span.start
        args = {"trace_id": span.trace_id, "span_id": span.span_id,
                "status": span.status}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        yield encode({
            "ph": "X",
            "name": span.name,
            "cat": span.category,
            "ts": span.start * _US,
            "dur": max((end - span.start) * _US, 1.0),
            "pid": 1,
            "tid": tid,
            "args": _chrome_args(args, span.attrs),
        })
    quoted = _Quoted()
    for event in events:
        category, name = event.category, event.name
        thread = f"events:{category}"
        tid = tids.get(thread)
        if tid is None:
            tid = tids[thread] = len(tids) + 1
            yield encode(_metadata("thread_name", tid, thread))
        ts = event.time * _US
        args = _chrome_args({"subject": event.subject}, event.attrs)
        if (ts.__class__ is float and isfinite(ts)
                and name.__class__ is str and category.__class__ is str):
            yield (f'{{"ph": "i", "name": {quoted[name]}, '
                   f'"cat": {quoted[category]}, "ts": {ts!r}, "pid": 1, '
                   f'"tid": {tid}, "s": "t", "args": {encode(args)}}}')
        else:
            yield encode({"ph": "i", "name": name, "cat": category,
                          "ts": ts, "pid": 1, "tid": tid, "s": "t",
                          "args": args})


def _write_chrome_document(path: PathLike, lines: Iterator[str]) -> int:
    """The one Chrome-trace document writer; returns the records written.

    Byte for byte what ``json.dumps(..., default=_default)`` gives for
    the whole document with the records of ``lines`` listed: ``dumps``
    joins list items with ``", "``, within a chunk and between chunks
    alike.
    """
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"traceEvents": [')
        for chunk in _chunks(lines):
            if count:
                fh.write(", ")
            fh.write(", ".join(chunk))
            count += len(chunk)
        fh.write('], "displayTimeUnit": "ms"}')
    return count


def write_chrome_trace(
    path: PathLike,
    spans: Iterable[Span] = (),
    events: Iterable[TraceEvent] = (),
) -> int:
    """Write a chrome://tracing / Perfetto-loadable JSON file."""
    return _write_chrome_document(path, _chrome_trace_lines(spans, events))


def _plane_trace_events(recorder: Any,
                        clock: float) -> Iterator[Dict[str, Any]]:
    """Yield the per-plane view's records: one thread per plane, open
    spans drawn up to ``clock``."""
    yield _metadata("process_name", 0, "repro profile (planes)")
    tids: Dict[str, int] = {}
    for span in recorder:
        plane = plane_of_category(span.category)
        tid = tids.get(plane)
        if tid is None:
            tid = tids[plane] = len(tids) + 1
            yield _metadata("thread_name", tid, plane)
        end = span.end if span.end is not None else clock
        yield {
            "ph": "X", "name": span.name, "cat": plane,
            "ts": span.start * _US,
            "dur": max((end - span.start) * _US, 1.0),
            "pid": 1, "tid": tid,
            "args": {"trace_id": span.trace_id, "status": span.status,
                     "category": span.category},
        }


def write_profile_chrome_trace(path: PathLike, recorder: Any,
                               now: Optional[float] = None) -> int:
    """Chrome-trace view with one thread per *plane* (not per category).

    Complements :func:`write_chrome_trace` (one thread per span category):
    here the track list *is* the subsystem cost attribution
    (:func:`~repro.observability.profile.plane_of_category`), so
    Perfetto's per-track duration aggregates read directly as per-plane
    simulated-time cost.
    """
    clock = float(now) if now is not None else latest_span_time(recorder)
    return _write_chrome_document(
        path, map(_value_encoder(), _plane_trace_events(recorder, clock)))


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
    report = system.kpi_report()
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


def _prom_name(name: str) -> str:
    """Sanitize a recorder metric name into a Prometheus metric name."""
    sanitized = _PROM_NAME_RE.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return "repro_" + sanitized


def _prom_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def prometheus_text(
    metrics: MetricsRecorder,
    histograms: Optional[Dict[str, StreamingHistogram]] = None,
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
        msg_metric = "repro_network_source_messages_total"
        byte_metric = "repro_network_source_bytes_total"
        lines.append(f"# TYPE {msg_metric} counter")
        for src in sorted(per_source):
            lines.append(f'{msg_metric}{{src="{src}"}} {per_source[src][0]}')
        lines.append(f"# TYPE {byte_metric} counter")
        for src in sorted(per_source):
            lines.append(f'{byte_metric}{{src="{src}"}} {per_source[src][1]}')
    for name in metrics.counter_names:
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_prom_value(metrics.counter(name))}")
    summaries = metrics.summary(include_counters=False)
    for name in sorted(summaries):
        entry = summaries[name]
        metric = _prom_name(name)
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
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} histogram")
        for bound, cumulative in zip(hist.bounds, hist.cumulative_counts()):
            lines.append(
                f'{metric}_bucket{{le="{_prom_value(bound)}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{metric}_sum {_prom_value(hist.total)}")
        lines.append(f"{metric}_count {hist.count}")
    if telemetry is not None:
        lines.extend(telemetry_prom_lines(telemetry))
    if profile is not None:
        lines.extend(profile_prom_lines(profile))
    if shards is not None:
        lines.extend(shard_prom_lines(shards))
    return "\n".join(lines) + ("\n" if lines else "")


def shard_prom_lines(shards: Dict[str, Any]) -> List[str]:
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
            metric = "repro_" + suffix
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
        metric = "repro_" + suffix
        lines.append(f"# TYPE {metric} {kind}")
        for row in rows:
            lines.append(
                f'{metric}{{shard="{row["shard"]}"}} {_prom_value(row[key])}')
    return lines


def write_prometheus(metrics: MetricsRecorder, path: PathLike,
                     **families: Any) -> int:
    """Write :func:`prometheus_text`; returns the number of lines."""
    text = prometheus_text(metrics, **families)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text.count("\n")


# --------------------------------------------------------------------------- #
# Report sections: each table defined once, rendered as text, --json and HTML
# --------------------------------------------------------------------------- #
class Section(NamedTuple):
    """One report table as plain data.

    Built here, once, from the object the section reads (a ``KpiReport``,
    an ``SloMonitor``, a ``Diagnosis``, a federation or campaign summary,
    a profile snapshot).  The CLI prints ``headers`` and ``rows`` as text
    or ``--json`` under a title naming its command; the HTML renderers put
    ``title`` in a heading over the same rows, ``classes`` (``"ok"`` /
    ``"breach"`` per row, or ``None``) colouring them.
    """

    title: str
    headers: List[str]
    rows: List[List[Any]]
    classes: Optional[List[str]] = None


def vector_kpi_section(report: Any) -> Section:
    """MTTD / MTTR / message cost per disruption vector of a ``KpiReport``."""
    return Section(
        "Resilience KPIs by disruption vector",
        ["vector", "faults", "resolved", "MTTD mean (s)", "MTTR mean (s)",
         "msgs/disruption", "disrupted (s)"],
        report.vector_rows())


def run_kpi_section(report: Any) -> Section:
    """Fleet availability, degradation, alerts and convergence, one row each."""
    rows: List[List[Any]] = [
        ["availability (fleet mean)", report.availability],
        ["availability (worst device)", report.worst_availability],
        ["degraded device-time (s)", report.degraded_time],
        ["runtime-monitor violations", report.violations],
        ["SLO breach alerts", report.alerts],
    ]
    for protocol, stats in sorted(report.convergence.items()):
        rows.append([f"convergence: {protocol} mean (s)", stats["mean"]])
        rows.append([f"convergence: {protocol} p95 (s)", stats["p95"]])
    return Section("Run-level KPIs", ["KPI", "value"], rows)


def arc_section(report: Any) -> Section:
    return Section(
        "Disruption arcs",
        ["fault", "vector", "injected at (s)", "MTTD (s)", "MTTR (s)",
         "messages", "resolved"],
        [[arc.fault, arc.vector.value, arc.injected_at,
          "-" if arc.mttd is None else arc.mttd,
          "-" if arc.mttr is None else arc.mttr,
          arc.messages, "yes" if arc.resolved else "no"]
         for arc in report.arcs])


def security_section(security: Dict[str, Any]) -> Section:
    """The ``KpiReport.security`` summary: who is out, and why."""

    def nodes(key: str) -> str:
        return ", ".join(security.get(key, [])) or "-"

    return Section("Security", ["signal", "value"], [
        ["compromised nodes", nodes("compromised")],
        ["quarantined nodes", nodes("quarantined")],
        ["distrusted nodes", nodes("distrusted")],
        ["key rotations", security.get("key_rotations", 0)],
        ["auth drops", security.get("dropped_auth", 0)],
        ["quarantine drops", security.get("dropped_quarantined", 0)]])


def trust_section(security: Dict[str, Any]) -> Section:
    return Section("Trust", ["node", "aggregate trust"],
                   [[node, f"{score:.3f}"] for node, score
                    in sorted((security.get("trust") or {}).items())])


def slo_section(monitor: Any) -> Section:
    """Latest status of every objective on an ``SloMonitor``."""
    rows = [[status.spec.name, status.spec.kind, status.spec.objective,
             "-" if status.measured is None else round(status.measured, 4),
             "-" if status.burn_rate is None else round(status.burn_rate, 3),
             "BREACH" if status.breached else "ok"]
            for status in monitor.latest()]
    return Section(
        "SLOs", ["SLO", "kind", "objective", "measured", "burn rate", "status"],
        rows, ["breach" if row[-1] == "BREACH" else "ok" for row in rows])


def incident_section(diagnosis: Optional[Any]) -> Section:
    """The ranked causal chain of a ``Diagnosis`` (empty before one exists)."""
    return Section(
        "Incident causal chain",
        ["rank", "kind", "subject", "t (s)", "score", "summary"],
        diagnosis.table_rows() if diagnosis is not None else [])


def shard_section(shards: Dict[str, Any]) -> Section:
    """Per-shard rows of a federation summary
    (:meth:`~repro.shard.driver.FederationResult.report_summary`)."""

    def seconds(value: Optional[float]) -> str:
        return "-" if value is None else f"{value:.2f}"

    return Section(
        "Shards",
        ["shard", "domains", "events", "wall (s)", "sync wait (s)",
         "mailbox peak", "injected", "digest"],
        [[row.get("shard"), ", ".join(row.get("domains") or []),
          row.get("events"), seconds(row.get("wall_s")),
          seconds(row.get("sync_wait_s")), row.get("mailbox_peak"),
          row.get("injected"), (row.get("digest") or "-")[:16]]
         for row in shards.get("rows") or []])


def chaos_case_section(campaign: Dict[str, Any]) -> Section:
    """One row per sampled spec of a ``CampaignResult.to_dict()``."""
    rows = [[index, case.get("describe", "?"), case.get("spec_digest", "?"),
             case.get("events", 0),
             ", ".join(case.get("violations") or []) or "ok"]
            for index, case in enumerate(campaign.get("cases", []))]
    return Section("Chaos campaign",
                   ["case", "spec", "digest", "events", "verdict"], rows,
                   ["ok" if row[-1] == "ok" else "breach" for row in rows])


def chaos_finding_section(campaign: Dict[str, Any]) -> Section:
    return Section(
        "Shrunk findings",
        ["found", "shrunk to", "attempts", "violations", "bundle"],
        [[f.get("found", {}).get("describe", "?"),
          f.get("shrunk_describe", "?"), f.get("shrink_attempts", 0),
          ", ".join(f.get("shrunk_violations") or []), f.get("bundle") or "-"]
         for f in campaign.get("findings") or []])


def latency_section(per_kind: Dict[str, StreamingHistogram]) -> Section:
    return Section(
        "Message latency by kind",
        ["kind", "delivered", "mean (s)", "p50 (s)", "p99 (s)", "max (s)"],
        [[kind, hist.count, hist.mean, hist.quantile(0.5),
          hist.quantile(0.99), hist.max]
         for kind, hist in sorted(per_kind.items()) if hist.count])


def source_section(per_source: Dict[str, List[int]]) -> Section:
    total = sum(entry[0] for entry in per_source.values()) or 1
    return Section(
        "Messages by source", ["source", "messages", "bytes", "share"],
        [[src, entry[0], entry[1], f"{entry[0] / total:.1%}"]
         for src, entry in sorted(per_source.items(),
                                  key=lambda kv: -kv[1][0])])


def telemetry_section(telemetry: Dict[str, Any]) -> Section:
    """A :func:`~repro.observability.overhead.telemetry_health` dict."""
    trace = telemetry.get("trace", {})
    spans = telemetry.get("spans", {})
    series = telemetry.get("series", {})
    rows: List[List[Any]] = [
        ["trace events buffered", trace.get("events", 0)],
        ["trace ring-buffer drops", trace.get("dropped", 0)],
        ["trace subscriber errors", trace.get("subscriber_errors", 0)],
        ["spans retained", spans.get("recorded", 0)],
        ["spans retained (approx bytes)", spans.get("approx_bytes", 0)],
        ["spans sampled out", spans.get("sampled_out", 0)],
        ["metric series", series.get("count", 0)],
        ["metric points retained", series.get("points", 0)],
    ]
    sampling = spans.get("sampling")
    if sampling:
        rows.append(["span sampling rate", sampling.get("rate")])
    overhead = telemetry.get("overhead")
    if overhead:
        rows.append(["telemetry records", overhead.get("records", 0)])
        rows.append(["recording wall time (s)",
                     overhead.get("recording_wall_s", 0.0)])
        fraction = overhead.get("recording_fraction")
        if fraction is not None:
            rows.append(["recording fraction of run", f"{fraction:.2%}"])
    return Section("Telemetry budget", ["signal", "value"], rows)


def profile_plane_section(profile: Dict[str, Any]) -> Section:
    """Per-plane cost attribution of a
    :func:`~repro.observability.profile.capture_profile` snapshot."""
    planes = profile.get("planes", {})
    total_ms = sum(stats["total_ms"] for stats in planes.values()) or 1.0
    return Section(
        "Profile",
        ["plane", "events", "wall (ms)", "share", "mean (us)",
         "queue lag (s)"],
        [[plane, stats["count"], stats["total_ms"],
          f"{stats['total_ms'] / total_ms:.1%}", stats.get("mean_us", 0.0),
          stats.get("queue_s", 0.0)] for plane, stats in planes.items()])


def critical_path_section(profile: Dict[str, Any]) -> Section:
    """Summed request time per segment; the dominant one marked."""
    critical = profile.get("critical_path") or {}
    return Section(
        "Request critical path", ["segment", "summed (s)", "dominant"],
        [[segment, critical["segments"][segment],
          "<-" if segment == critical["dominant_segment"] else ""]
         for segment in (SEGMENTS if critical else ())])


def slowest_request_section(profile: Dict[str, Any]) -> Section:
    top = (profile.get("critical_path") or {}).get("top") or []
    return Section(
        "Slowest requests",
        ["trace", "request", "status", "latency (ms)", "queue (ms)",
         "service (ms)", "network (ms)", "retry (ms)", "attempts"],
        [[row["trace_id"], row["name"], row["status"], row["latency_s"] * 1e3,
          *(row["segments"][segment] * 1e3 for segment in SEGMENTS),
          row["attempts"]] for row in top])


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


def bench_trajectory_section(rows: List[List[Any]]) -> Section:
    """:func:`bench_trajectory_rows` of the committed BENCH baselines."""
    return Section("Bench trajectory",
                   ["metric", "first", "last", "drift", "drift %"], rows)


# --------------------------------------------------------------------------- #
# HTML rendering: one document shell, sections as heading + table + notes
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
                classes: Optional[List[str]] = None) -> str:
    head = "".join(f"<th>{_html.escape(str(h))}</th>" for h in headers)
    body = []
    for i, row in enumerate(rows):
        attr = f' class="{classes[i]}"' if classes else ""
        cells = "".join(f"<td>{_html_cell(c)}</td>" for c in row)
        body.append(f"<tr{attr}>{cells}</tr>")
    return (f"<table><thead><tr>{head}</tr></thead>"
            f"<tbody>{''.join(body)}</tbody></table>")


def _html_section(section: Section, *notes: str) -> str:
    """The section's heading and table, then its (HTML) note paragraphs."""
    return (f"<h2>{_html.escape(section.title)}</h2>"
            + _html_table(section.headers, section.rows, section.classes)
            + "".join(notes))


def _html_document(title: str, body: str,
                   refresh: Optional[float] = None) -> str:
    """The self-contained page every HTML artifact shares: inline style,
    no external assets, a footer that names no particular command."""
    meta_refresh = (f'<meta http-equiv="refresh" content="{refresh:g}">'
                    if refresh else "")
    return (
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">"
        f"{meta_refresh}"
        f"<title>{_html.escape(title)}</title>"
        f"<style>{_HTML_STYLE}</style></head><body>"
        f"<h1>{_html.escape(title)}</h1>"
        f"{body}"
        "<footer>Generated by <code>python -m repro</code> — all data "
        "derives deterministically from the run's seed.</footer>"
        "</body></html>"
    )


def _write_html(path: PathLike, document: str) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(document)
    return len(document.encode("utf-8"))


def _kpi_tiles(report: Any) -> str:
    headline = [
        ("availability", report.availability, "{:.4f}"),
        ("worst device", report.worst_availability, "{:.4f}"),
        ("degraded time (s)", report.degraded_time, "{:.1f}"),
        ("disruptions", len(report.arcs), "{}"),
        ("SLO alerts", report.alerts, "{}"),
        ("violations", report.violations, "{}"),
    ]
    tiles = "".join(
        f'<div class="kpi"><div class="value">'
        f'{"-" if value is None else fmt.format(value)}</div>'
        f'<div class="label">{_html.escape(label)}</div></div>'
        for label, value, fmt in headline)
    return f'<div class="kpi-grid">{tiles}</div>'


def _availability_bars(per_device: Dict[str, float]) -> str:
    rows = []
    for device, value in sorted(per_device.items()):
        width = max(0.0, min(1.0, value)) * 100.0
        rows.append(f"<tr><td>{_html.escape(device)}</td><td>"
                    f'<div class="bar"><span style="width:{width:.1f}%">'
                    f"</span></div> {value:.4f}</td></tr>")
    return ("<h2>Per-device availability</h2>"
            "<table><thead><tr><th>device</th><th>availability</th>"
            f"</tr></thead><tbody>{''.join(rows)}</tbody></table>")


def _shard_notes(shards: Dict[str, Any]) -> List[str]:
    facts: List[str] = []
    for key, fmt in (("shards", "{} shard(s)"), ("workers", "{} worker(s)"),
                     ("windows", "{} lookahead window(s)"),
                     ("lookahead", "W={:g}s"), ("devices", "{:,} devices"),
                     ("wall_s", "{:.1f}s wall")):
        if shards.get(key) is not None and (key != "devices" or shards[key]):
            facts.append(fmt.format(shards[key]))
    notes = [f"<p>{_html.escape(', '.join(facts))}.</p>"] if facts else []
    digest = shards.get("federation_digest")
    if digest:
        notes.append(
            f"<p>Federation digest: <code>{_html.escape(str(digest))}</code> "
            "(verify with <code>python -m repro shard verify</code>).</p>")
    return notes


def _profile_sections(profile: Dict[str, Any]) -> str:
    notes = []
    kernel = profile.get("kernel")
    if kernel:
        notes.append(
            f"<p>{kernel['events']} kernel events, "
            f"{kernel['busy_ms']:.1f} ms busy, mean queue depth "
            f"{kernel['mean_queue_depth']:.1f} "
            f"(max {kernel['max_queue_depth']}).</p>")
    routes = route_cache_line(profile)
    if routes:
        notes.append(f"<p>{routes}.</p>")
    parts = [_html_section(profile_plane_section(profile), *notes)]
    critical = profile.get("critical_path")
    if critical:
        parts.append(_html_section(
            critical_path_section(profile),
            f"<p>{critical['requests']} requests "
            f"({critical['failed']} failed), mean latency "
            f"{critical['mean_latency_s'] * 1e3:.2f} ms.</p>"))
        if critical.get("top"):
            parts.append(_html_section(slowest_request_section(profile)))
    return "".join(parts)


def render_html_report(
    title: str,
    kpi_report: Any,
    slo_monitor: Any = None,
    availability_per_device: Optional[Dict[str, float]] = None,
    network_kinds: Optional[Dict[str, StreamingHistogram]] = None,
    per_source: Optional[Dict[str, List[int]]] = None,
    flight: Any = None,
    telemetry: Optional[Dict[str, Any]] = None,
    bench_trajectory: Optional[List[List[Any]]] = None,
    profile: Optional[Dict[str, Any]] = None,
    shards: Optional[Dict[str, Any]] = None,
    refresh: Optional[float] = None,
) -> str:
    """Build the self-contained HTML resilience report.

    Each argument feeds the report sections defined above:
    ``kpi_report`` (a :class:`~repro.observability.kpis.KpiReport`) the
    headline tiles, per-vector and run-level KPIs, security and disruption
    arcs; ``slo_monitor`` the SLOs; ``flight`` (a triggered
    :class:`~repro.observability.flight.FlightRecorder`) the incident
    trigger and causal chain; ``telemetry`` the telemetry budget;
    ``profile`` the per-plane cost attribution and request critical path;
    ``bench_trajectory`` (:func:`bench_trajectory_rows`) the BENCH drift.

    ``kpi_report`` is ``None`` for a federation (a sharded run has
    per-shard systems but no single-system KPI report): ``shards`` (the
    federation summary dict) then renders the "Shards" table standalone.
    ``refresh`` (seconds) adds a ``<meta http-equiv="refresh">`` tag for
    the live service's auto-refreshing dashboard.
    """
    parts: List[str] = []
    if kpi_report is not None:
        parts.append(f"<p>Simulated horizon: {kpi_report.horizon:.1f}s.</p>")
        parts.append(_kpi_tiles(kpi_report))
        parts.append(_html_section(vector_kpi_section(kpi_report)))
    elif shards and shards.get("horizon") is not None:
        parts.append(f"<p>Simulated horizon: {shards['horizon']:.1f}s "
                     f"across {shards.get('shards', '?')} shard(s).</p>")
    if shards:
        parts.append(_html_section(shard_section(shards), *_shard_notes(shards)))
    if slo_monitor is not None:
        parts.append(_html_section(
            slo_section(slo_monitor),
            f"<p>{slo_monitor.evaluations} evaluations, "
            f"{slo_monitor.breach_events} breach event(s).</p>"))
    if network_kinds:
        parts.append(_html_section(latency_section(network_kinds)))
    if per_source:
        parts.append(_html_section(source_section(per_source)))
    security = getattr(kpi_report, "security", None)
    if security:
        parts.append(_html_section(security_section(security)))
        if security.get("trust"):
            parts.append(_html_section(trust_section(security)))
    if kpi_report is not None:
        parts.append(_html_section(run_kpi_section(kpi_report)))
    if availability_per_device:
        parts.append(_availability_bars(availability_per_device))
    if kpi_report is not None and kpi_report.arcs:
        parts.append(_html_section(arc_section(kpi_report)))
    if flight is not None and flight.triggered:
        trigger = flight.triggers[0]
        parts.append(_html_section(
            incident_section(flight.diagnosis),
            f'<p class="breach">Trigger: {_html.escape(str(trigger.reason))} '
            f"at t={trigger.time:g}s.</p>"))
    if telemetry:
        parts.append(_html_section(telemetry_section(telemetry)))
    if profile:
        parts.append(_profile_sections(profile))
    if bench_trajectory:
        parts.append(_html_section(bench_trajectory_section(bench_trajectory)))
    return _html_document(title, "".join(parts), refresh=refresh)


def write_html_report(path: PathLike, *args: Any, **kwargs: Any) -> int:
    """Write :func:`render_html_report`'s document; returns bytes written."""
    return _write_html(path, render_html_report(*args, **kwargs))


def write_chaos_report(path: PathLike, campaign: Dict[str, Any]) -> int:
    """The HTML page of one chaos campaign (``CampaignResult.to_dict()``)."""
    body = _html_section(
        chaos_case_section(campaign),
        f"<p>Seed <code>{campaign.get('seed')}</code>: "
        f"{campaign.get('runs', 0)} sampled specs, "
        f"{campaign.get('violations', 0)} violation(s), "
        f"{campaign.get('wall_s', 0.0):.1f}s wall.</p>")
    if campaign.get("findings"):
        body += _html_section(chaos_finding_section(campaign))
    return _write_html(path, _html_document(
        f"Chaos campaign (seed {campaign.get('seed')})", body))
