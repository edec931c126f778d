"""Observability: spans, profiling, KPIs, SLOs, exportable telemetry.

The paper's Section VII keeps "models alive at runtime"; this package is
both the instrumentation surface those models are built from and the
quantitative layer monitored against goals:

* :class:`~repro.observability.spans.SpanRecorder` -- causal spans with
  trace/parent links, propagated through the transport, the MAPE loop,
  coordination protocols and the fault injector, so one disruption can be
  followed from injection to repaired state.
* :class:`~repro.observability.instrument.Instrument` -- a kernel profiler
  recording per-event wall-clock cost, per-label counts and queue depth;
  near-zero overhead when detached.
* :mod:`~repro.observability.kpis` -- resilience KPIs (MTTD/MTTR,
  availability, convergence, message overhead) derived from recorded
  telemetry, broken down by the roadmap's five disruption vectors.
* :mod:`~repro.observability.slo` -- SLO specs evaluated periodically
  *inside* the simulation; breaches fire alert events and feed the MAPE
  Monitor phase so goal burn triggers adaptation.
* :class:`~repro.observability.histogram.StreamingHistogram` --
  memory-bounded, mergeable latency distributions for million-event runs.
* :mod:`~repro.observability.export` -- JSONL, Chrome trace-event
  (Perfetto-loadable), Prometheus text, HTML report, metrics-snapshot and
  profile writers.
* :mod:`~repro.observability.flight` -- the always-on flight recorder:
  on an SLO breach, gate failure, crash fault or replay divergence it
  dumps a self-contained incident bundle whose triggering window is
  deterministically replayable (``python -m repro incident show|replay``).
* :mod:`~repro.observability.diagnosis` -- ranks the causal chain behind
  a trigger (fault arc → degraded subsystem → SLO breach) from the span
  tree's fault index and recorded series.
* :mod:`~repro.observability.profile` -- the profiling plane: per-plane
  subsystem cost attribution (transport/coordination/mape/traffic/...),
  collapsed-stack flamegraphs, request critical-path decomposition, and
  differential profiling (``python -m repro profile run|diff``) that
  names the subsystem responsible for a bench regression.
* :mod:`~repro.observability.overhead` -- the telemetry budget:
  deterministic head-based span sampling (:class:`SpanSampler`),
  self-metering of recording cost (:class:`OverheadMeter`) and the
  ``repro_observability_overhead_*`` / telemetry-health Prometheus lines.

Enable it on a system with :meth:`repro.core.system.IoTSystem.enable_observability`,
or run ``python -m repro trace <scenario>`` / ``python -m repro monitor
<scenario>`` for ready-made artifacts.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "chrome_trace_events": "export",
    "prometheus_text": "export",
    "write_chrome_trace": "export",
    "write_events_jsonl": "export",
    "write_html_report": "export",
    "write_metrics_snapshot": "export",
    "write_profile": "export",
    "write_profile_chrome_trace": "export",
    "write_prometheus": "export",
    "write_spans_jsonl": "export",
    "CausalLink": "diagnosis",
    "Diagnosis": "diagnosis",
    "diagnose": "diagnosis",
    "FlightRecorder": "flight",
    "IncidentTrigger": "flight",
    "capture_divergence_incident": "flight",
    "capture_gate_incident": "flight",
    "load_manifest": "flight",
    "replay_incident": "flight",
    "StreamingHistogram": "histogram",
    "log_bounds": "histogram",
    "Instrument": "instrument",
    "InstrumentSnapshot": "instrument",
    "LabelStats": "instrument",
    "capture_profile": "profile",
    "collapsed_kernel_stacks": "profile",
    "collapsed_span_stacks": "profile",
    "diff_profiles": "profile",
    "load_profile": "profile",
    "plane_of_category": "profile",
    "plane_of_label": "profile",
    "profile_prom_lines": "profile",
    "render_profile_diff": "profile",
    "request_critical_paths": "profile",
    "save_profile": "profile",
    "write_flamegraph": "profile",
    "OverheadMeter": "overhead",
    "SpanSampler": "overhead",
    "attach_meter": "overhead",
    "telemetry_health": "overhead",
    "telemetry_prom_lines": "overhead",
    "DisruptionArc": "kpis",
    "KpiReport": "kpis",
    "VectorKpis": "kpis",
    "classify_fault_vector": "kpis",
    "compute_kpi_report": "kpis",
    "disruption_arcs": "kpis",
    "kpi_report_for_system": "kpis",
    "ReachabilityProbe": "slo",
    "SloMonitor": "slo",
    "SloSpec": "slo",
    "SloStatus": "slo",
    "default_slos": "slo",
    "Span": "spans",
    "SpanContext": "spans",
    "SpanRecorder": "spans",
}
__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
