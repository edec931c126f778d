"""Command-line runner for the reproduction experiments.

``python -m repro <command>`` runs a quick (or full) version of each
experiment, prints its tables and exits 1 if a paper claim on them breaks
(:mod:`repro.paper`).  ``--json`` emits the same tables as machine-readable
JSON on stdout.

The commands live in one table (:func:`command_table`): name, handler and
the arguments the handler takes, one row each; a command's help is its
handler's docstring and its defaults are the handler's keyword defaults.
The parser, ``python -m repro -h`` and each ``<command> -h`` are generated
from the table, and scenario choices come from the scenario registry
(:mod:`repro.scenarios`), so a newly registered scenario is runnable under
every verb without a CLI edit.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import signal
import sys
import textwrap
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

# When --json is active, tables accumulate here instead of printing.
_JSON_COLLECTOR: Optional[List[Dict[str, object]]] = None


# --------------------------------------------------------------------------- #
# Signal handling
# --------------------------------------------------------------------------- #
class _HarnessSignal(BaseException):
    """SIGINT/SIGTERM during a batch command, converted to an exception.

    Derives from BaseException so scenario-level ``except Exception``
    recovery paths (flight-recorder guards, gate handlers) don't swallow
    it; ``main()`` catches it, flushes any armed flight recorder as a
    ``harness-crash`` incident, and exits ``128 + signum`` (130 for
    Ctrl-C) instead of dumping a KeyboardInterrupt traceback.
    """

    def __init__(self, signum: int) -> None:
        super().__init__(f"interrupted by signal {signum}")
        self.signum = signum


# Armed flight recorders to flush if a signal lands mid-run:
# (flight, bundle_dir, journal_path) registered by _run_monitored.
_SIGNAL_FLIGHTS: List[Tuple[object, Optional[str], Optional[str]]] = []


def _raise_harness_signal(signum: int, _frame: object) -> None:
    raise _HarnessSignal(signum)


def _install_signal_handlers(
        handler: Callable[[int, object], None] = _raise_harness_signal
) -> List[Tuple[int, Any]]:
    """Route SIGINT/SIGTERM to ``handler``; returns the replaced handlers.

    Batch commands raise :class:`_HarnessSignal`.  Best-effort: embedding
    contexts (non-main threads, restricted platforms) simply keep their
    default handlers.
    """
    previous = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous.append((signum, signal.signal(signum, handler)))
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    return previous


def _flush_signal_incidents(signum: int) -> List[str]:
    """Capture ``harness-crash`` incidents on every armed flight recorder."""
    try:
        name = signal.Signals(signum).name
    except ValueError:  # pragma: no cover - unknown signal number
        name = str(signum)
    bundles = []
    for flight, bundle_dir, journal_path in list(_SIGNAL_FLIGHTS):
        try:
            flight.trigger("harness-crash", detail={"signal": name})
            flight.finalize()
            flight.disarm()
            if bundle_dir is not None:
                bundles.append(flight.capture(bundle_dir,
                                              journal_path=journal_path))
        except Exception:  # pragma: no cover - best-effort teardown
            continue
    _SIGNAL_FLIGHTS.clear()
    return bundles


def _print_table(title: str, headers: List[str], rows: List[List[object]]) -> None:
    if _JSON_COLLECTOR is not None:
        _JSON_COLLECTOR.append(
            {"title": title, "headers": list(headers),
             "rows": [list(row) for row in rows]})
        return

    def fmt(cell: object) -> str:
        return f"{cell:.4f}" if isinstance(cell, float) else str(cell)

    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(fmt(cell)))
    print(f"\n== {title} ==")
    print("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    print("-" * (sum(widths) + 2 * (len(widths) - 1)))
    for row in rows:
        print("  ".join(fmt(cell).ljust(widths[i]) for i, cell in enumerate(row)))


def _print_section(title: str, section: Any) -> None:
    """A report section (:class:`repro.observability.export.Section`)."""
    _print_table(title, section.headers, section.rows)


def _print_block(title: str, text: str) -> None:
    """Pre-formatted text output (e.g. the maturity comparison table)."""
    if _JSON_COLLECTOR is not None:
        _JSON_COLLECTOR.append({"title": title, "text": text})
        return
    print(text)


def _progress(message: str) -> None:
    """Human-facing progress line; silent under --json."""
    if _JSON_COLLECTOR is None:
        print(message)


def _print_data(title: str, data: Dict[str, object]) -> None:
    """Structured payload: emitted under --json only (tables cover text)."""
    if _JSON_COLLECTOR is not None:
        _JSON_COLLECTOR.append({"title": title, "data": data})


def _fail(message: str, code: int = 2) -> int:
    """Report why a command exits non-zero: one stderr line, and an
    ``error`` entry so ``--json`` callers get the reason too."""
    print(f"error: {message}", file=sys.stderr)
    _print_data("error", {"error": message})
    return code


# --------------------------------------------------------------------------- #
# The paper's artifacts: tables plus the claims they must show
# --------------------------------------------------------------------------- #
#: Command name and help of each paper artifact, in EXPERIMENTS.md order.
#: Each is the function of that name in :mod:`repro.paper`, imported when
#: the command runs.
PAPER_ARTIFACTS: Tuple[Tuple[str, str], ...] = (
    ("maturity", "Tables 1-2: the ML1-ML4 comparison."),
    ("landscape", "Fig. 1: edge vs cloud latency and outage continuity."),
    ("verify", "Fig. 2: model checking and quantitative verification."),
    ("control", "Fig. 3: centralized vs decentralized control availability."),
    ("dataflows", "Fig. 4: privacy / freshness / availability of replication."),
    ("mape", "Fig. 5: MAPE placement vs time-to-repair."),
    ("ablations", "Ablations: remove one ML4 mechanism at a time."),
    ("sweep", "Satisfaction of ML1-ML4 vs disruption intensity."),
    ("mechanisms", "Coordination substrate: detection, SWIM, gossip, Raft."),
)


def run_paper(name: str, quick: bool = False) -> int:
    """Print one paper artifact's tables; exit 1 unless its claims hold."""
    from repro import paper

    tables, claims = getattr(paper, name)(quick)
    for table in tables:
        if "text" in table:
            _progress(f"\n{table['title']}\n")
            _print_block(**table)
        else:
            _print_table(**table)
    verdict = paper.judge(claims)
    _print_data(f"paper: {name}", {
        "ok": verdict.ok, "summary": verdict.summary,
        "failures": list(verdict.failures),
        "claims": [{"claim": claim, "holds": holds}
                   for claim, holds in claims]})
    _progress(f"\nPAPER GATE: {'OK' if verdict.ok else 'FAIL'} "
              f"({verdict.summary})")
    for failure in verdict.failures:
        _progress(f"  broken: {failure}")
    return 0 if verdict.ok else 1


def _paper_command(name: str, summary: str) -> "Command":
    def handler(quick: bool = False) -> int:
        return run_paper(name, quick)

    handler.__doc__ = summary
    return Command(name, handler)


def cmd_all(quick: bool = False) -> int:
    """Every paper artifact (Tables 1-2, Figs. 1-5, ablations, sweep,
    mechanisms), in order; exit 1 if any claim breaks."""
    return max([run_paper(name, quick) for name, _ in PAPER_ARTIFACTS])


# --------------------------------------------------------------------------- #
# trace: observed scenario runs with exportable artifacts
# --------------------------------------------------------------------------- #
def cmd_trace(quick: bool = False, scenario: str = "smart-city-partition",
              out: str = "trace-out") -> None:
    """Run an observed scenario; export spans, Chrome trace, profile."""
    from repro.observability.export import (
        write_chrome_trace,
        write_events_jsonl,
        write_metrics_snapshot,
        write_profile,
        write_spans_jsonl,
    )
    from repro.scenarios import describe_scenario, prepare

    _progress(f"running observed scenario {scenario!r}...")
    prepared = prepare(describe_scenario(scenario).spec(quick, observe=True))
    system = prepared.system
    system.run(until=prepared.horizon)
    spans = system.spans
    spans.finish_open(system.sim.now)
    if system.trace.dropped:
        system.metrics.increment("trace.dropped_events", system.trace.dropped)

    os.makedirs(out, exist_ok=True)
    span_path = os.path.join(out, "spans.jsonl")
    event_path = os.path.join(out, "events.jsonl")
    chrome_path = os.path.join(out, "trace.chrome.json")
    metrics_path = os.path.join(out, "metrics.json")
    profile_path = os.path.join(out, "profile.json")
    n_spans = write_spans_jsonl(spans, span_path)
    n_events = write_events_jsonl(system.trace, event_path)
    n_records = write_chrome_trace(chrome_path, spans=spans, events=system.trace)
    write_metrics_snapshot(system.metrics, metrics_path)
    profile = write_profile(system.sim.instrument, profile_path)

    faults = len(spans.select(category="injection"))
    recoveries = len(spans.select(category="recovery"))
    _print_table(
        f"trace: {scenario} (horizon {system.sim.now:.0f}s)",
        ["artifact", "path", "records"],
        [["spans (JSONL)", span_path, n_spans],
         ["events (JSONL)", event_path, n_events],
         ["Chrome trace", chrome_path, n_records],
         ["metrics snapshot", metrics_path,
          len(system.metrics.series_names) + len(system.metrics.counter_names)],
         ["kernel profile", profile_path, profile.get("events", 0)]])
    _print_table(
        "trace: causal summary",
        ["metric", "value"],
        [["fault injections", faults],
         ["recovery spans", recoveries],
         ["message spans", len(spans.select(category="message"))],
         ["kernel events profiled", profile.get("events", 0)],
         ["mean event cost (us)", float(profile.get("mean_event_us", 0.0))]])
    _progress(f"\nload {chrome_path} in chrome://tracing or https://ui.perfetto.dev")


# --------------------------------------------------------------------------- #
# monitor / report: live SLO evaluation + resilience KPIs
# --------------------------------------------------------------------------- #
def _run_monitored(quick: bool, scenario: str, strict: bool,
                   bundle_dir: Optional[str] = None):
    """Run ``scenario`` with SLO monitoring and a flight recorder armed.

    The monitoring stack is the scenario's own (``monitored`` param, see
    :func:`repro.observability.scenarios.monitored_setup`).  The run is
    rebuilt through the scenario registry, so a captured incident is
    deterministically replayable.  With ``bundle_dir`` the whole event
    stream is journaled there (the journal joins the bundle on a gate
    failure; callers remove the directory on success).  Returns
    ``(system, monitor, flight, journal_path)``.
    """
    from repro.observability.flight import flight_armed_run
    from repro.scenarios import describe_scenario

    spec = describe_scenario(scenario).spec(quick, monitored=True,
                                            strict=strict)
    # Registered in _SIGNAL_FLIGHTS for the whole drive: a SIGINT/SIGTERM
    # mid-run raises _HarnessSignal (a BaseException, so no scenario-level
    # handler catches it) and main() flushes the recorder as a
    # harness-crash incident.
    with flight_armed_run(spec, bundle_dir,
                          armed=_SIGNAL_FLIGHTS) as (run, flight):
        monitor = run.prepared.aux["monitor"]
        monitor.evaluate_now()   # end-of-run evaluation at the final horizon
    return run.system, monitor, flight, run.journal_path


def cmd_monitor(quick: bool = False, scenario: str = "smart-city-partition",
                strict: bool = False, out: str = "trace-out") -> int:
    """Run under live SLO evaluation; print resilience KPIs per disruption
    vector; exit 1 on an SLO breach (CI-gateable)."""
    import shutil

    from repro.observability.export import (
        incident_section,
        run_kpi_section,
        slo_section,
        vector_kpi_section,
    )

    _progress(f"running monitored scenario {scenario!r}"
              f"{' (strict SLOs)' if strict else ''}...")
    bundle_dir = os.path.join(out, "incidents", scenario)
    system, monitor, flight, journal_path = _run_monitored(
        quick, scenario, strict, bundle_dir=bundle_dir)
    system.spans.finish_open(system.sim.now)
    report = system.kpi_report()

    _print_section(
        f"monitor: resilience KPIs by disruption vector ({scenario}, "
        f"horizon {system.sim.now:.0f}s)", vector_kpi_section(report))
    _print_section("monitor: run-level KPIs", run_kpi_section(report))
    _print_section("monitor: SLOs", slo_section(monitor))
    _print_data("monitor: kpis", report.to_dict())
    _print_data("monitor: slos", monitor.to_dict())
    if monitor.ever_breached:
        if not flight.triggered:
            flight.trigger("gate-failure", detail={
                "gate": "slo", "breach_events": monitor.breach_events})
        bundle = flight.capture(bundle_dir, journal_path=journal_path)
        chain = incident_section(flight.diagnosis)
        if chain.rows:
            _print_section("monitor: incident causal chain", chain)
        _print_data("monitor: incident", {
            "bundle": bundle,
            "trigger": flight.triggers[0].to_dict(),
            "chain": chain.rows,
        })
        _progress(f"\nSLO GATE: FAIL ({monitor.breach_events} breach "
                  f"event(s); incident bundle: {bundle})")
        return 1
    shutil.rmtree(bundle_dir, ignore_errors=True)
    _progress("\nSLO GATE: OK (no objective breached)")
    return 0


_BASELINE_DIR = os.path.join(os.path.dirname(__file__), "..", "..",
                             "benchmarks", "baselines")


def _bench_trajectory_rows_if_available() -> Optional[List[List[object]]]:
    """Bench-trajectory rows from ``benchmarks/baselines``, if present.

    The report command may run from an installed package or another
    working directory; the trajectory section simply disappears when the
    baselines directory isn't reachable.  A baseline that cannot be read,
    or whose ``benches`` are not tables of numbers, is skipped.
    """
    from repro.observability import profile
    from repro.observability.export import bench_trajectory_rows
    from repro.schema import load_document

    snapshots = []
    for _n, path in profile.numbered_snapshots(_BASELINE_DIR):
        try:
            snapshots.append(load_document(path, profile.BENCH_TRAJECTORY))
        except ValueError:
            continue
    return bench_trajectory_rows(snapshots) if snapshots else None


def cmd_report(quick: bool = False, scenario: str = "smart-city-partition",
               out: str = "trace-out", strict: bool = False) -> int:
    """Run monitored; write the self-contained HTML resilience report plus a
    Prometheus exposition and the KPI/SLO JSON."""
    from repro.observability.export import (
        report_inputs,
        write_html_report,
        write_prometheus,
    )

    _progress(f"running monitored scenario {scenario!r}...")
    system, monitor, flight, _ = _run_monitored(quick, scenario, strict)
    system.spans.finish_open(system.sim.now)

    os.makedirs(out, exist_ok=True)
    html_path = os.path.join(out, "resilience-report.html")
    prom_path = os.path.join(out, "metrics.prom")
    kpi_path = os.path.join(out, "kpis.json")
    # One assembly path shared with the live telemetry server, so the
    # written artifacts and the served endpoints can never drift.
    inputs = report_inputs(system, scenario=scenario)
    report = inputs["kpi_report"]
    flight.finalize()
    n_bytes = write_html_report(
        html_path, f"Resilience report — {scenario}", report,
        slo_monitor=monitor,
        availability_per_device=inputs["availability"]["per_device"],
        network_kinds=inputs["per_kind"],
        per_source=inputs["per_source"],
        flight=flight,
        telemetry=inputs["telemetry"],
        bench_trajectory=_bench_trajectory_rows_if_available(),
        profile=inputs["profile"])
    n_lines = write_prometheus(system.metrics, prom_path,
                               histograms=inputs["histograms"],
                               per_source=inputs["per_source"],
                               telemetry=inputs["telemetry"],
                               profile=inputs["profile"])
    with open(kpi_path, "w", encoding="utf-8") as fh:
        json.dump({"kpis": report.to_dict(), "slos": monitor.to_dict()},
                  fh, indent=2, sort_keys=True, default=str)
    _print_table(
        f"report: {scenario} (horizon {system.sim.now:.0f}s)",
        ["artifact", "path", "size"],
        [["HTML resilience report", html_path, f"{n_bytes}B"],
         ["Prometheus exposition", prom_path, f"{n_lines} lines"],
         ["KPI/SLO JSON", kpi_path, "-"]])
    _progress(f"\nopen {html_path} in a browser")
    return 0


def _capture_incident(capture: Callable[..., str], *args: Any,
                      **kwargs: Any) -> None:
    """Capture a failed gate's incident bundle; the verdict stands even
    when the capture itself fails."""
    try:
        bundle = capture(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - must not mask the gate failure
        _progress(f"(incident capture failed: {exc})")
    else:
        _progress(f"incident bundle: {bundle}")


# --------------------------------------------------------------------------- #
# checkpoint / resume / replay: crash-resilient persistence
# --------------------------------------------------------------------------- #
def cmd_checkpoint(quick: bool = False, scenario: str = "control-outage",
                   out: str = "checkpoint-out", at: Optional[float] = None,
                   seed: Optional[int] = None) -> int:
    """Run a scenario up to --at (or its first harness crash), journaling
    every event; save a resumable checkpoint into --out."""
    from repro.persistence import default_paths, run_to_checkpoint
    from repro.scenarios import describe_scenario

    _progress(f"running {scenario!r} to its checkpoint point...")
    spec = describe_scenario(scenario).spec(quick, seed=seed)
    result = run_to_checkpoint(spec, out, at=at)
    checkpoint = result.checkpoint
    paths = default_paths(out)
    checkpoint_path, journal_path = paths["checkpoint"], paths["journal"]
    _print_table(
        f"checkpoint: {scenario}",
        ["field", "value"],
        [["checkpoint", checkpoint_path],
         ["journal", journal_path],
         ["simulated time (s)", checkpoint.time],
         ["events fired", checkpoint.fired],
         ["state digest", checkpoint.digest],
         ["checkpoint size (B)", os.path.getsize(checkpoint_path)]])
    _print_data("checkpoint", {
        "scenario": checkpoint.scenario, "time": checkpoint.time,
        "fired": checkpoint.fired, "digest": checkpoint.digest,
        "path": checkpoint_path, "journal": journal_path,
    })
    _progress(f"\nresume with: python -m repro resume --out {out}")
    return 0


def cmd_resume(out: str = "checkpoint-out",
               until: Optional[float] = None) -> int:
    """Load the checkpoint in --out, fast-forward to it, verify the state
    digest and run to the horizon; the journal continues where it left off."""
    from repro.observability.export import vector_kpi_section
    from repro.persistence import resume_run

    _progress(f"resuming from checkpoint in {out!r}...")
    result = resume_run(directory=out, until=until)
    system = result.system
    report = system.kpi_report()
    _print_table(
        f"resume: {result.spec.name} (horizon {system.sim.now:.0f}s)",
        ["field", "value"],
        [["fast-forwarded events", result.fast_forward_events],
         ["fast-forward wall time (s)", result.fast_forward_s],
         ["events fired (total)", system.sim.fired_count],
         ["final state digest", result.final_digest],
         ["journal", result.journal_path or "-"]])
    _print_section("resume: resilience KPIs by disruption vector",
                   vector_kpi_section(report))
    _print_data("resume: kpis", report.to_dict())
    return 0


def cmd_replay(out: str = "checkpoint-out",
               until: Optional[float] = None) -> int:
    """Re-run the journal in --out from its seed comparing every event and
    state digest; on divergence write a report and exit 1."""
    from repro.persistence import (
        default_paths,
        replay_journal,
        write_divergence_report,
    )

    paths = default_paths(out)
    journal_path, divergence_path = paths["journal"], paths["divergence"]
    _progress(f"replaying journal {journal_path!r} from its seed...")
    report = replay_journal(journal_path, until=until)
    rows = [
        ["scenario", report.scenario.get("name", "?")],
        ["journal records checked", report.records_checked],
        ["events replayed", report.events_replayed],
        ["journal complete", report.journal_complete],
        ["verdict", "MATCH" if report.ok else "DIVERGED"],
    ]
    if report.divergence is not None:
        d = report.divergence
        rows.extend([
            ["divergence at record", d.index],
            ["divergence at event", d.fired],
            ["divergence at time (s)", d.time],
            ["diverging field", d.field],
            ["recorded", str(d.recorded)],
            ["replayed", str(d.replayed)],
        ])
    _print_table("replay: deterministic verification", ["field", "value"], rows)
    _print_data("replay", report.to_dict())
    if not report.ok:
        write_divergence_report(report, divergence_path)
        _progress(f"\nREPLAY GATE: FAIL (divergence report: {divergence_path})")
        if report.divergence is not None:
            from repro.observability.flight import capture_divergence_incident

            _capture_incident(
                capture_divergence_incident, journal_path, report,
                os.path.join(out, "incidents", "replay-divergence"))
        return 1
    _progress("\nREPLAY GATE: OK (journal matches deterministic re-run)")
    return 0


# --------------------------------------------------------------------------- #
# traffic / security: gated scenarios (the gates live with the scenarios)
# --------------------------------------------------------------------------- #
def run_gated(family: str, scenario: str, quick: bool = False,
              out: str = "trace-out") -> int:
    """Run every variant of a gated scenario; exit 1 unless its gate holds.

    The registered descriptor's :class:`~repro.scenarios.Gate` says which
    variants to run, how to tabulate them and what the verdict is.  On a
    failure the verdict's variant is re-run journaled under a flight
    recorder, so the bundle under ``out``/incidents is self-contained and
    replayable even though the gate aggregates several runs.
    """
    from repro.observability.flight import capture_gate_incident
    from repro.scenarios import describe_scenario, gated_run

    descriptor = describe_scenario(f"{family}-{scenario}")
    gate = descriptor.gate
    results = {}
    for variant in gate.variants:
        _progress(f"running {scenario} variant {variant!r}...")
        prepared, results[variant] = gated_run(descriptor.spec(
            quick, **{descriptor.variant_param: variant}))
    _print_table(
        gate.title.format(horizon=prepared.horizon), list(gate.headers),
        [[round(cell, 4) if isinstance(cell, float) else cell
          for cell in gate.row(result)] for result in results.values()])
    _print_data(f"{family}: {scenario}", {"results": list(results.values())})
    verdict = gate.judge(results)
    _progress(f"\n{family.upper()} GATE: {'OK' if verdict.ok else 'FAIL'} "
              f"({verdict.summary})")
    if verdict.ok:
        return 0
    _capture_incident(
        capture_gate_incident,
        descriptor.spec(quick, **verdict.incident_params),
        os.path.join(out, "incidents", descriptor.name),
        reason="gate-failure",
        detail={"gate": descriptor.name, **verdict.detail})
    return 1


def cmd_traffic(quick: bool = False, scenario: str = "overload",
                out: str = "trace-out") -> int:
    """Serving under overload / a retry storm: run every variant; exit 1
    unless the resilient one holds its budget."""
    return run_gated("traffic", scenario, quick, out)


def cmd_security(quick: bool = False, scenario: str = "byzantine-gossip",
                 out: str = "trace-out") -> int:
    """An active adversary: exit 1 unless the naive variant fails AND the
    defended one holds with the attackers quarantined."""
    return run_gated("security", scenario, quick, out)


# --------------------------------------------------------------------------- #
# profile: subsystem cost attribution and differential profiling
# --------------------------------------------------------------------------- #
def cmd_profile_run(quick: bool = False,
                    scenario: str = "smart-city-partition",
                    out: str = "prof-out", seed: Optional[int] = None) -> int:
    """Run a scenario fully observed; capture per-plane cost attribution,
    flamegraphs and request critical paths.

    Artifacts under ``out``: ``profile.json`` (the snapshot ``profile
    diff`` consumes), ``kernel.folded`` / ``spans.folded`` (collapsed
    stacks for flamegraph.pl / speedscope), and ``profile.chrome.json``
    (per-plane Perfetto track view).
    """
    from repro.observability.export import (
        critical_path_section,
        profile_plane_section,
        write_profile_chrome_trace,
    )
    from repro.observability.overhead import telemetry_health
    from repro.observability.profile import (
        collapsed_kernel_stacks,
        collapsed_span_stacks,
        route_cache_line,
        save_profile,
        write_flamegraph,
    )
    from repro.scenarios import describe_scenario, prepare

    _progress(f"profiling scenario {scenario!r}...")
    prepared = prepare(describe_scenario(scenario).spec(quick, seed=seed))
    system = prepared.system
    system.enable_observability(meter=True)
    system.run(until=prepared.horizon)
    system.spans.finish_open(system.sim.now)
    profile = system.profile_snapshot(meta={
        "scenario": scenario, "horizon": prepared.horizon,
        "quick": bool(quick)})

    os.makedirs(out, exist_ok=True)
    profile_path = os.path.join(out, "profile.json")
    kernel_folded = os.path.join(out, "kernel.folded")
    span_folded = os.path.join(out, "spans.folded")
    chrome_path = os.path.join(out, "profile.chrome.json")
    save_profile(profile, profile_path)
    n_kernel = write_flamegraph(kernel_folded, collapsed_kernel_stacks(profile))
    n_spans = write_flamegraph(
        span_folded, collapsed_span_stacks(system.spans, now=system.sim.now))
    n_chrome = write_profile_chrome_trace(chrome_path, system.spans,
                                          now=system.sim.now)
    _print_table(
        f"profile: artifacts ({scenario}, horizon {system.sim.now:.0f}s)",
        ["artifact", "path", "records"],
        [["profile snapshot", profile_path, profile["kernel"]["events"]],
         ["kernel flamegraph (collapsed)", kernel_folded, n_kernel],
         ["span flamegraph (collapsed)", span_folded, n_spans],
         ["Chrome trace (planes)", chrome_path, n_chrome]])
    _print_section("profile: subsystem cost attribution",
                   profile_plane_section(profile))
    _progress(f"\n{route_cache_line(profile)}")
    if profile.get("critical_path"):
        _print_section("profile: request critical path",
                       critical_path_section(profile))
    health = telemetry_health(system)
    overhead = (health.get("overhead") or {}).get("recording_fraction")
    if overhead is not None:
        _progress(f"\ntelemetry overhead: {overhead:.2%} of run wall time "
                  "(budget: 10%)")
    _print_data("profile", profile)
    _progress(f"\ndiff against another run with: python -m repro profile "
              f"diff {profile_path} <other-profile.json>")
    return 0


def _profiles_in(data: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    """Named profiles inside a loaded JSON file.

    Accepts either a bare ``capture_profile`` snapshot or a regress.py
    BENCH snapshot (whose ``profiles`` section holds one per scenario).
    """
    from repro.observability.profile import profiles_from_bench

    if "benches" in data:
        return profiles_from_bench(data)
    return {"profile": data}


def cmd_profile_diff(path_a: str, path_b: str) -> int:
    """Attribute the delta between two profile snapshots (or two BENCH
    baselines) to subsystems."""
    from repro.observability.profile import (
        diff_profiles,
        load_profile,
        render_profile_diff,
    )

    try:
        before, after = load_profile(path_a), load_profile(path_b)
    except ValueError as exc:
        return _fail(f"profile: cannot load snapshot: {exc}")
    a_profiles, b_profiles = _profiles_in(before), _profiles_in(after)
    common = sorted(set(a_profiles) & set(b_profiles))
    if not common and len(a_profiles) == 1 and len(b_profiles) == 1:
        # One profile on each side under different names: compare them.
        common = [next(iter(a_profiles))]
        b_profiles = {common[0]: next(iter(b_profiles.values()))}
    if not common:
        return _fail("profile: the snapshots share no profiled scenarios "
                     f"({sorted(a_profiles)} vs {sorted(b_profiles)})")
    for name in common:
        diff = diff_profiles(a_profiles[name], b_profiles[name])
        _print_block(f"profile diff: {name}",
                     f"\n== profile diff: {name} ==\n"
                     + render_profile_diff(diff))
        _print_data(f"profile diff: {name}", diff)
    return 0


# --------------------------------------------------------------------------- #
# incident: inspect and replay captured incident bundles
# --------------------------------------------------------------------------- #
def cmd_incident_show(path: str) -> int:
    """Print a bundle's trigger, causal chain and evidence inventory."""
    from repro.observability.diagnosis import Diagnosis
    from repro.observability.export import incident_section
    from repro.observability.flight import FlightError, load_manifest

    try:
        manifest = load_manifest(path)
    except FlightError as exc:
        return _fail(f"incident: {exc}")
    trigger = manifest["trigger"]
    barrier = manifest["barrier"]
    scenario = manifest.get("scenario") or {}
    rows = [
        ["bundle", path],
        ["trigger", trigger["reason"]],
        ["trigger time (s)", trigger["time"]],
        ["trigger detail", json.dumps(trigger.get("detail", {}),
                                      sort_keys=True, default=str)],
        ["scenario", scenario.get("name", "-")],
        ["barrier time (s)", barrier["time"]],
        ["barrier events", barrier["fired"]],
        ["barrier digest", barrier["digest"][:16] + "..."],
        ["replayable", "yes" if manifest.get("evidence", {}).get("checkpoint")
         else "no (no checkpoint)"],
    ]
    for extra in manifest.get("additional_triggers", []):
        rows.append([f"also triggered ({extra['reason']})",
                     f"t={extra['time']:g}s"])
    _print_table("incident: summary", ["field", "value"], rows)
    diagnosis = Diagnosis.from_dict(manifest.get("diagnosis", {}))
    if diagnosis.chain:
        _print_section(
            f"incident: ranked causal chain (window {diagnosis.window:g}s)",
            incident_section(diagnosis))
    evidence = manifest.get("evidence", {})
    if evidence:
        _print_table("incident: evidence inventory", ["artifact", "records"],
                     [[key, value] for key, value in sorted(evidence.items())])
    _print_data("incident: manifest", manifest)
    return 0


def cmd_incident_replay(path: str) -> int:
    """Reproduce a bundle's triggering window and verify its state digest."""
    from repro.observability.flight import FlightError, replay_incident
    from repro.persistence import CheckpointError

    _progress(f"replaying incident bundle {path!r}...")
    try:
        result = replay_incident(path)
    except FlightError as exc:
        return _fail(f"incident: {exc}")
    except CheckpointError as exc:
        return _fail(f"INCIDENT REPLAY: DIVERGED ({exc})", 1)
    _print_table(
        "incident replay: deterministic verification",
        ["field", "value"],
        [["scenario", result["spec"].name],
         ["barrier time (s)", result["barrier_time"]],
         ["events fast-forwarded", result["barrier_fired"]],
         ["state digest", result["digest"][:16] + "..."],
         ["replay wall time (s)", result["replay_wall_s"]],
         ["verdict", "MATCH"]])
    _print_data("incident replay", {
        "scenario": result["spec"].to_dict(),
        "barrier_time": result["barrier_time"],
        "barrier_fired": result["barrier_fired"],
        "digest": result["digest"],
    })
    _progress("\nINCIDENT REPLAY: MATCH (triggering window reproduced "
              "bit-for-bit)")
    return 0


# --------------------------------------------------------------------------- #
# chaos: seeded spec-space search, shrinking and the replay corpus
# --------------------------------------------------------------------------- #
#: The documented demo seed (EXPERIMENTS.md CHAOS-1): this campaign
#: rediscovers the retry-storm metastable collapse on a naive config.
CHAOS_DEMO_SEED = 84
CHAOS_DEMO_RUNS = 6


def cmd_chaos_run(quick: bool = False, seed: int = CHAOS_DEMO_SEED,
                  runs: Optional[int] = None, out: str = "chaos-out",
                  corpus: str = "corpus") -> int:
    """Seeded chaos-search campaign over declarative specs; shrink every
    violation and emit replay bundles into --corpus."""
    from repro.chaos import ChaosCampaign
    from repro.observability.export import (
        chaos_case_section,
        chaos_finding_section,
        write_chaos_report,
    )

    if runs is None:
        runs = 3 if quick else CHAOS_DEMO_RUNS
    _progress(f"chaos campaign: seed {seed}, {runs} sampled specs, "
              f"corpus -> {corpus!r}...")
    campaign = ChaosCampaign(seed=seed, runs=runs, shrink=True,
                             corpus_dir=corpus, progress=_progress)
    result = campaign.run()
    payload = result.to_dict()
    _print_section("chaos campaign: cases", chaos_case_section(payload))
    if result.findings:
        _print_section("chaos campaign: shrunk findings",
                       chaos_finding_section(payload))
    _print_data("chaos campaign", payload)
    os.makedirs(out, exist_ok=True)
    report_path = os.path.join(out, "chaos-report.html")
    write_chaos_report(report_path, payload)
    _progress(f"\nchaos: {result.violation_count}/{len(result.cases)} "
              f"specs violated in {result.wall_s:.1f}s; "
              f"report: {report_path}")
    return 0


def cmd_chaos_shrink(path: str, out: str = "chaos-out") -> int:
    """Minimize one failing spec (a spec.json file or a bundle dir)."""
    from repro.chaos import load_bundle_spec, shrink_spec

    try:
        spec = load_bundle_spec(path)
    except ValueError as exc:
        return _fail(f"chaos shrink: cannot load a spec from {path!r} ({exc})")
    _progress(f"shrinking {spec.describe()} ({spec.axis_count()} axes)...")
    try:
        report = shrink_spec(spec)
    except ValueError as exc:
        return _fail(f"chaos shrink: {exc}", 1)
    os.makedirs(out, exist_ok=True)
    shrunk_path = os.path.join(out, f"chaos-shrunk-{report.spec.digest()}.json")
    with open(shrunk_path, "w", encoding="utf-8") as fh:
        fh.write(report.spec.to_json() + "\n")
    _print_table(
        "chaos shrink: minimal failing spec",
        ["field", "value"],
        [["found", spec.describe()],
         ["found axes", spec.axis_count()],
         ["shrunk", report.spec.describe()],
         ["shrunk axes", report.spec.axis_count()],
         ["attempts", report.attempts],
         ["violations", ", ".join(report.violations)],
         ["spec", shrunk_path]])
    _print_data("chaos shrink", {
        "found": spec.to_dict(), "shrunk": report.spec.to_dict(),
        "shrunk_digest": report.spec.digest(),
        "attempts": report.attempts,
        "violations": list(report.violations),
        "accepted": list(report.accepted), "spec_path": shrunk_path})
    return 0


def cmd_chaos_corpus(corpus: str = "corpus") -> int:
    """Replay every corpus bundle bit-for-bit; exit 1 on any divergence."""
    from repro.chaos import corpus_bundles, load_bundle_spec, replay_corpus

    for bundle in corpus_bundles(corpus):
        try:
            load_bundle_spec(bundle)
        except ValueError as exc:
            return _fail(f"chaos corpus: cannot load a spec from "
                         f"{bundle!r} ({exc})")
    _progress(f"replaying failure corpus {corpus!r}...")
    verdicts, ok = replay_corpus(corpus)
    payload = {"bundles": [v.to_dict() for v in verdicts], "ok": ok}
    _print_data("chaos corpus", payload)
    if not verdicts:
        _progress("chaos corpus: empty (nothing to replay)")
        return 0
    _print_table(
        "chaos corpus: replay verification",
        ["bundle", "barrier (s)", "events", "verdict"],
        [[os.path.basename(v.bundle),
          "-" if v.barrier_time is None else v.barrier_time,
          "-" if v.barrier_fired is None else v.barrier_fired,
          "MATCH" if v.ok else (v.error or "FAILED")] for v in verdicts])
    if ok:
        _progress(f"\nCHAOS CORPUS: MATCH ({len(verdicts)} bundle(s) "
                  "reproduced bit-for-bit)")
        return 0
    failed = sum(1 for v in verdicts if not v.ok)
    _progress(f"\nCHAOS CORPUS: DIVERGED ({failed}/{len(verdicts)} "
              "bundle(s) failed to reproduce)")
    return 1


def cmd_scenarios_list() -> int:
    """Every registered scenario with its plane, variants and description."""
    from repro.scenarios import catalog

    infos = catalog()
    _print_table(
        "scenarios: unified registry",
        ["name", "plane", "variants", "description"],
        [[info.name, info.plane,
          ", ".join(info.variants) if info.variants else "-",
          info.description] for info in infos])
    _print_data("scenarios",
                {"scenarios": [info.to_dict() for info in infos]})
    return 0


# --------------------------------------------------------------------------- #
# shard: parallel multi-domain federation runs
# --------------------------------------------------------------------------- #
def _shard_report(title: str, result, out: str) -> int:
    """Print a federation result; write the metrics/report artifacts."""
    from repro.observability.export import (
        shard_section,
        write_html_report,
        write_prometheus,
    )
    from repro.simulation.metrics import MetricsRecorder

    summary = result.report_summary()
    _print_section(f"{title}: per-shard statistics", shard_section(summary))
    _print_data(title, result.to_dict())
    if not result.complete:
        _progress(f"\n{title}: stopped mid-run (emulated kill); resume with "
                  f"'python -m repro shard resume --out {out}'")
        return 0
    prom_path = os.path.join(out, "metrics.prom")
    html_path = os.path.join(out, "report.html")
    # A federation has no single-system recorder: the shard families
    # carry the whole exposition, over an empty recorder.
    write_prometheus(MetricsRecorder(), prom_path, shards=summary)
    write_html_report(html_path, f"Federation: {result.spec.name}", None,
                      shards=summary)
    resumed = ("" if result.resumed_from_window is None
               else f" (resumed from window {result.resumed_from_window})")
    _progress(f"\n{title}: {result.shards} shard(s) x {result.windows} "
              f"window(s), {result.events} events, "
              f"{result.devices:,} devices in {result.wall_s:.1f}s "
              f"wall{resumed}")
    _progress(f"federation digest: {result.federation_digest}")
    _progress(f"report: {html_path}; metrics: {prom_path}; verify with "
              f"'python -m repro shard verify --out {out}'")
    return 0


def cmd_shard_run(quick: bool = False, scenario: str = "smart-city-federated",
                  shards: int = 4, workers: Optional[int] = None,
                  out: str = "shard-out", seed: Optional[int] = None,
                  checkpoint_every: int = 10,
                  stop_after: Optional[int] = None) -> int:
    """Partition a federated scenario into domain shards on worker
    processes, synchronized by conservative lookahead windows."""
    from repro.scenarios import describe_scenario
    from repro.shard import ShardedSimulator

    spec = describe_scenario(scenario).spec(quick, seed=seed)
    driver = ShardedSimulator(spec, shards=shards, workers=workers,
                              out_dir=out, checkpoint_every=checkpoint_every,
                              stop_after_window=stop_after)
    _progress(f"shard run: {scenario} across {driver.shards} shard(s), "
              f"{driver.workers} worker process(es) -> {out!r}...")
    result = driver.run()
    return _shard_report("shard run", result, out)


def cmd_shard_resume(out: str = "shard-out",
                     workers: Optional[int] = None) -> int:
    """Continue a killed federation run from its barrier checkpoints."""
    from repro.shard import ShardedSimulator

    _progress(f"shard resume: fast-forwarding shards in {out!r}...")
    result = ShardedSimulator.resume(out, workers=workers)
    return _shard_report("shard resume", result, out)


def cmd_shard_verify(out: str = "shard-out",
                     workers: Optional[int] = None) -> int:
    """Replay every shard journal; verify the federation digest chain
    bit-for-bit (exit 1 on a divergence)."""
    from repro.shard import verify_federation

    _progress(f"shard verify: replaying shards in {out!r}...")
    report = verify_federation(out, workers=workers or 1)
    _print_table(
        "shard verify: per-shard replay",
        ["shard", "records", "events", "digest", "verdict"],
        [[r["shard"], r["records_checked"], r["events"],
          (r["digest"] or "-")[:16],
          "MATCH" if r["ok"] else "DIVERGED"] for r in report["reports"]])
    _print_data("shard verify", report)
    if report["ok"]:
        _progress(f"\nSHARD VERIFY: MATCH ({report['shards']} shard(s) "
                  "reproduced bit-for-bit; federation digest chain intact)")
        return 0
    _progress("\nSHARD VERIFY: DIVERGED (see per-shard verdicts above)")
    return 1


def cmd_live(quick: bool = False, scenario: str = "traffic-retry-storm",
             out: str = "live-out", speed: float = 1.0,
             port: int = 8321, checkpoint_every: float = 10.0,
             reload_dir: Optional[str] = None,
             until: Optional[float] = None,
             seed: Optional[int] = None) -> int:
    """Run a scenario as a paced, operable service: telemetry endpoints,
    periodic checkpoints, hot reload, clean drain.

    Pacing, serving and checkpointing are all telemetry-only: the
    journal in ``--out`` stays byte-identical to a batch
    ``run_scenario`` of the same spec.  SIGINT/SIGTERM drain cleanly
    (final checkpoint + incident flush, exit ``128 + signum``); a
    SIGKILL'd service restarted on the same ``--out`` resumes from its
    last periodic checkpoint.
    """
    from repro.live import LiveService
    from repro.scenarios import describe_scenario

    spec = describe_scenario(scenario).spec(quick, seed=seed)
    service = LiveService(spec, out, speed=speed, port=port,
                          checkpoint_every=checkpoint_every,
                          reload_dir=reload_dir, until=until)
    service.start(log=_progress)
    _progress(f"live: {scenario} at speed {speed:g} "
              f"(horizon {service.horizon:g}s); Ctrl-C drains cleanly")

    # The batch handlers raise out of the run; a service instead drains
    # at the next event boundary so no checkpoint ever captures a
    # half-executed event.
    received: Dict[str, int] = {}

    def _drain_handler(signum: int, _frame: object) -> None:
        received["signum"] = signum
        service.request_drain()

    # The drain handler stays until the command returns: a signal that
    # lands while a completed run's tables print changes nothing, where
    # the batch handler would turn it into an exit 128 + signum.
    previous = _install_signal_handlers(_drain_handler)
    try:
        outcome = service.run()
        stats = service.executor.stats
        _print_table(
            f"live: {scenario} ({outcome})",
            ["signal", "value"],
            [["outcome", outcome],
             ["resumed from checkpoint", "yes" if service.resumed else "no"],
             ["simulated time (s)", service.system.sim.now],
             ["events fired", service.system.sim.fired_count],
             ["speed factor", speed],
             ["wall time (s)", stats.wall_s],
             ["pacing sleep (s)", stats.slept_s],
             ["max pacing lag (s)", stats.max_lag_s],
             ["checkpoints written", service.checkpoints_written],
             ["hot loads applied", len(service.hot_loads_applied)]])
        _print_data("live", {
            "outcome": outcome,
            "resumed": service.resumed,
            "checkpoints": service.checkpoints_written,
            "hot_loads": service.hot_loads_applied,
            "pacing": stats.to_dict(),
        })
    finally:
        for signum, handler in previous:
            signal.signal(signum, handler)
    if outcome == "drained" and "signum" in received:
        return 128 + received["signum"]
    return 0


# --------------------------------------------------------------------------- #
# The command table: one row per command; parser and dispatch come from it
# --------------------------------------------------------------------------- #
Arg = Tuple[Tuple[str, ...], Dict[str, Any]]


def _arg(*names: str, **kwargs: Any) -> Arg:
    """One ``add_argument`` call, as data."""
    return names, kwargs


def _at_least(minimum: float, cast: type = int, exclusive: bool = False,
              maximum: Optional[float] = None) -> Callable[[str], Any]:
    """argparse ``type=`` accepting finite ``cast`` values >= (or >)
    ``minimum`` and, if given, <= ``maximum``."""

    def parse(text: str) -> Any:
        value = cast(text)
        if ((cast is float and not math.isfinite(value)) or value < minimum
                or (exclusive and value == minimum)
                or (maximum is not None and value > maximum)):
            raise ValueError(text)
        return value

    # argparse words the error as "invalid <type name> value: '<text>'".
    bound = f"{'>' if exclusive else '>='} {minimum}"
    if maximum is not None:
        bound += f" and <= {maximum}"
    parse.__name__ = f"{cast.__name__} {bound}"
    return parse


@dataclass(frozen=True)
class Command:
    """One command: its handler plus the arguments the handler takes.

    The handler owns the rest -- its docstring's first paragraph is the
    command's help, its keyword defaults (``out="trace-out"``,
    ``shards=4``, the default scenario) are the arguments' defaults.
    """

    name: str                          # "trace", or "<group> <verb>"
    handler: Callable[..., Optional[int]]
    args: Tuple[Arg, ...] = ()         # its own positionals and flags
    default_verb: bool = False         # runs when its group gets no verb

    @property
    def help(self) -> str:
        return " ".join(inspect.getdoc(self.handler).split("\n\n")[0].split())


#: Accepted before or after any command.
_GLOBAL_ARGS: Tuple[Arg, ...] = (
    _arg("--quick", action="store_true",
         help="smaller/faster variant (each scenario declares its own)"),
    _arg("--json", action="store_true",
         help="emit tables as JSON instead of text"),
    _arg("--out", help="output directory for this command's artifacts"),
)

_STRICT = _arg("--strict", action="store_true",
               help="add strict SLOs (cloud availability) that sustained "
                    "outages breach")
_SEED = _arg("--seed", type=int, help="override the scenario seed")
_UNTIL = _arg("--until", type=_at_least(0, float),
              help="stop at this simulated time instead of the horizon")
_WORKERS = _arg("--workers", type=_at_least(1),
                help="worker processes (default: one per shard for "
                     "run/resume, serial for verify)")
_CORPUS = _arg("--corpus", help="failure-corpus directory")
_BUNDLE = _arg("path", help="incident bundle directory")


def command_table() -> Tuple[Command, ...]:
    """Every command; scenario choices are read from the registry."""
    from repro.scenarios import catalog

    scenarios = catalog()

    def scenario(choices: List[str]) -> Arg:
        return _arg("scenario", nargs="?", choices=choices, metavar="scenario",
                    help=f"one of {', '.join(choices)}")

    def gated(family: str) -> Arg:
        return scenario([s.name[len(family) + 1:] for s in catalog(family)
                         if s.gate is not None])

    every = scenario([s.name for s in scenarios])
    observed = scenario([s.name for s in scenarios if s.monitored])
    return (
        *(_paper_command(name, summary) for name, summary in PAPER_ARTIFACTS),
        Command("all", cmd_all),
        Command("trace", cmd_trace, (observed,)),
        Command("monitor", cmd_monitor, (observed, _STRICT)),
        Command("report", cmd_report, (observed, _STRICT)),
        Command("checkpoint", cmd_checkpoint, (
            every, _SEED,
            _arg("--at", type=_at_least(0, float),
                 help="simulated time to checkpoint at (default: the "
                      "scenario's crash point or mid-horizon)"))),
        Command("resume", cmd_resume, (_UNTIL,)),
        Command("replay", cmd_replay, (_UNTIL,)),
        Command("traffic", cmd_traffic, (gated("traffic"),)),
        Command("security", cmd_security, (gated("security"),)),
        Command("incident show", cmd_incident_show, (_BUNDLE,)),
        Command("incident replay", cmd_incident_replay, (_BUNDLE,)),
        Command("profile run", cmd_profile_run, (every, _SEED)),
        Command("profile diff", cmd_profile_diff, (
            _arg("path_a", help="first snapshot"),
            _arg("path_b", help="second snapshot"))),
        Command("chaos run", cmd_chaos_run, (
            _arg("--seed", type=int, help="campaign seed"),
            _arg("--runs", type=_at_least(1),
                 help="number of sampled specs (default "
                      f"{CHAOS_DEMO_RUNS}, 3 with --quick)"),
            _CORPUS), default_verb=True),
        Command("chaos shrink", cmd_chaos_shrink, (
            _arg("path", help="spec.json, or a bundle directory"),)),
        Command("chaos corpus", cmd_chaos_corpus, (_CORPUS,)),
        Command("scenarios list", cmd_scenarios_list, default_verb=True),
        Command("shard run", cmd_shard_run, (
            every, _WORKERS, _SEED,
            _arg("--shards", type=_at_least(1),
                 help="domain shards; 1 = unsharded reference"),
            _arg("--checkpoint-every", type=_at_least(0),
                 help="lookahead windows between barrier checkpoints; "
                      "0 = never"),
            _arg("--stop-after", type=_at_least(1),
                 help="abort after this window (emulated mid-run kill; "
                      "continue with 'shard resume')")), default_verb=True),
        Command("shard resume", cmd_shard_resume, (_WORKERS,)),
        Command("shard verify", cmd_shard_verify, (_WORKERS,)),
        Command("live", cmd_live, (
            every, _UNTIL, _SEED,
            _arg("--speed", type=_at_least(0, float),
                 help="simulated seconds per wall second; 0 = unpaced"),
            _arg("--port", type=_at_least(0, maximum=65535),
                 help="telemetry server port; 0 = ephemeral"),
            _arg("--checkpoint-every",
                 type=_at_least(0, float, exclusive=True),
                 help="wall seconds between periodic checkpoints"),
            _arg("--reload-dir",
                 help="directory polled for hot-load payload JSON files "
                      "(fault schedules, chaos specs)"))),
    )


_EPILOG = """\
Every gated command (monitor, traffic, security, replay) runs under a
flight recorder: when its gate fails, a self-contained incident bundle
(telemetry tails + checkpoint + journal) lands under --out/incidents for
the incident verbs to inspect and replay.  '<command> -h' lists a
command's own arguments and defaults."""


def _add_args(parser: argparse.ArgumentParser, args: Tuple[Arg, ...],
              handler: Optional[Callable[..., Any]] = None) -> None:
    """Add ``args``, none with a parser-side default.

    An argument that was not typed stays out of the namespace (``None``
    for an omitted optional positional), so the handler's own keyword
    default applies, a value typed at one parser level is never
    overwritten by another level's default, and anything that *is* in
    the namespace is known to have been typed.
    """
    owned = inspect.signature(handler).parameters if handler else {}
    for names, kwargs in args:
        action = parser.add_argument(*names, **kwargs)
        if action.option_strings:
            action.default = argparse.SUPPRESS
        default = getattr(owned.get(action.dest), "default", None)
        if default not in (None, False, inspect.Parameter.empty):
            action.help += f" (default {default})"


def _parse(argv: Optional[List[str]]
           ) -> Tuple[Callable[..., Optional[int]], bool, Dict[str, Any]]:
    """``argv`` -> (handler, --json, the handler arguments that were typed)."""
    table = command_table()
    rows = {row.name: row for row in table}
    fallback = {row.name.split()[0]: row for row in table if row.default_verb}
    width = max(map(len, rows)) + 2
    listing = "\n".join(textwrap.fill(
        row.help, 78, initial_indent=f"  {row.name:<{width}}",
        subsequent_indent=" " * (width + 2)) for row in table)
    parser = argparse.ArgumentParser(
        prog="repro", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Run the resilient-IoT reproduction experiments.",
        epilog=f"commands:\n{listing}\n\n{_EPILOG}")
    _add_args(parser, _GLOBAL_ARGS)
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="<command>")
    verbs: Dict[str, Any] = {}
    for row in table:
        group, _, verb = row.name.partition(" ")
        if verb and group not in verbs:
            # A verb group also takes its default verb's flags, so
            # 'chaos --seed 3' still means 'chaos run --seed 3'.
            parent = commands.add_parser(group)
            default = fallback.get(group)
            _add_args(parent, _GLOBAL_ARGS + tuple(
                arg for arg in (default.args if default else ())
                if arg[0][0].startswith("-")), default and default.handler)
            verbs[group] = parent.add_subparsers(
                dest="verb", required=default is None, metavar="<verb>")
        # The epilog lists every command; a verb group lists its verbs.
        leaf = (verbs[group].add_parser(verb, help=row.help,
                                        description=row.help)
                if verb else commands.add_parser(group, description=row.help))
        _add_args(leaf, _GLOBAL_ARGS + row.args, row.handler)
    typed = {key: value for key, value in vars(parser.parse_args(argv)).items()
             if value is not None}
    name, verb = typed.pop("command"), typed.pop("verb", None)
    row = rows[name] if name in rows else (
        rows[f"{name} {verb}"] if verb else fallback[name])
    # --quick and --out are accepted everywhere (a command with no use
    # for them ignores them); anything else must be the command's own.
    taken = inspect.signature(row.handler).parameters
    stray = sorted(set(typed) - set(taken) - {"json", "quick", "out"})
    if stray:
        parser.error(f"'{row.name}' takes no "
                     + ", ".join("--" + s.replace("_", "-") for s in stray))
    return (row.handler, typed.get("json", False),
            {key: value for key, value in typed.items() if key in taken})


def main(argv: Optional[List[str]] = None) -> int:
    global _JSON_COLLECTOR
    from repro.persistence import (
        CheckpointError,
        JournalError,
        UnknownScenarioError,
    )
    from repro.schema import SchemaError

    handler, json_mode, kwargs = _parse(argv)
    if json_mode:
        _JSON_COLLECTOR = []
    _install_signal_handlers()
    exit_code = 0
    try:
        exit_code = handler(**kwargs) or 0
    except _HarnessSignal as exc:
        # A batch command was interrupted (SIGINT/SIGTERM).  Flush any
        # armed flight recorder as a harness-crash incident before
        # exiting with the conventional 128+signum code.
        exit_code = 128 + exc.signum
        bundles = _flush_signal_incidents(exc.signum)
        _progress(f"interrupted by signal {exc.signum}; exiting "
                  f"{exit_code}")
        for bundle in bundles:
            _progress(f"  harness-crash incident captured: {bundle}")
        _print_data("interrupted", {"signal": exc.signum,
                                    "exit_code": exit_code,
                                    "bundles": bundles})
    except UnknownScenarioError as exc:
        # Journals, checkpoints and bundles can name scenarios this
        # checkout no longer registers; list what *is* available instead
        # of dumping a KeyError traceback.
        exit_code = 2
        _progress(f"error: unknown scenario {exc.name!r}")
        _progress("available scenarios (python -m repro scenarios list):")
        for name in exc.available:
            _progress(f"  {name}")
        _print_data("error", {"error": f"unknown scenario {exc.name!r}",
                              "available": list(exc.available)})
    except (CheckpointError, JournalError, OSError, SchemaError) as exc:
        # A missing, truncated or garbled run directory (checkpoint,
        # journal, manifest, the chaos spec in a checkpoint's params)
        # fails closed: one line, never a traceback.
        exit_code = _fail(str(exc))
    finally:
        tables, _JSON_COLLECTOR = _JSON_COLLECTOR, None
    if tables is not None:
        print(json.dumps({"tables": tables, "exit_code": exit_code},
                         indent=2, default=str))
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
