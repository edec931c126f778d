"""Per-layer metrics: what is wrapped, and how spans become numbers.

Layers are the ``src/repro`` package names.  Three sources feed them, all
from outside the program:

(a) the kernel ``Instrument`` (a public attribute of ``Simulator``),
    attached to every system a traced run builds and read back through
    ``IoTSystem.profile_snapshot()``;
(b) the timing wrappers :func:`install` puts around public functions;
(c) public result objects, read by each workload's ``facts``.

``*_busy_s`` is inclusive span time; ``*_self_s`` subtracts nested spans.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from tracing import Tracer

#: (name, unit, better) for every per-layer metric a traced run reports.
#: The same list, in the same order, is ``per_layer`` in BENCHMARK.json.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("simulation.events", "count", "lower"),
    ("simulation.events_per_s", "1/s", "higher"),
    ("simulation.us_per_event", "us", "lower"),
    ("simulation.kernel_self_s", "s", "lower"),
    ("simulation.max_event_ms", "ms", "lower"),
    ("simulation.queue_depth_mean", "count", "lower"),
    ("network.sends", "count", "lower"),
    ("network.send_busy_s", "s", "lower"),
    ("network.send_self_s", "s", "lower"),
    ("network.deliver_events", "count", "lower"),
    ("network.deliver_busy_s", "s", "lower"),
    ("network.dropped", "count", "lower"),
    ("traffic.events", "count", "lower"),
    ("traffic.busy_s", "s", "lower"),
    ("traffic.max_event_ms", "ms", "lower"),
    ("traffic.requests", "count", "higher"),
    ("traffic.completed", "count", "higher"),
    ("traffic.retries", "count", "lower"),
    ("traffic.rejected", "count", "lower"),
    ("traffic.success_ratio", "ratio", "higher"),
    ("security.signs", "count", "lower"),
    ("security.sign_busy_s", "s", "lower"),
    ("security.verifies", "count", "lower"),
    ("security.verify_busy_s", "s", "lower"),
    ("security.rejected", "count", "lower"),
    ("coordination.events", "count", "lower"),
    ("coordination.busy_s", "s", "lower"),
    ("adaptation.events", "count", "lower"),
    ("adaptation.busy_s", "s", "lower"),
    ("adaptation.max_event_ms", "ms", "lower"),
    ("persistence.journal_appends", "count", "lower"),
    ("persistence.journal_busy_s", "s", "lower"),
    ("persistence.digests", "count", "lower"),
    ("persistence.digest_busy_s", "s", "lower"),
    ("persistence.digest_ms_per_call", "ms", "lower"),
    ("persistence.bytes_per_event", "B", "lower"),
    ("persistence.checkpoint_saves", "count", "lower"),
    ("persistence.checkpoint_save_s", "s", "lower"),
    ("persistence.checkpoint_bytes", "B", "lower"),
    ("persistence.checkpoint_load_s", "s", "lower"),
    ("persistence.fast_forward_s", "s", "lower"),
    ("persistence.truncate_s", "s", "lower"),
    ("persistence.resume_s", "s", "lower"),
    ("persistence.replay_s", "s", "lower"),
    ("persistence.replay_divergences", "count", "lower"),
    ("observability.spans_started", "count", "lower"),
    ("observability.spans_kept", "count", "lower"),
    ("observability.span_busy_s", "s", "lower"),
    ("observability.metric_points", "count", "lower"),
    ("observability.metric_busy_s", "s", "lower"),
    ("observability.flight_busy_s", "s", "lower"),
    ("observability.export_s", "s", "lower"),
    ("observability.export_bytes", "B", "lower"),
    ("shard.gateway_sends", "count", "lower"),
    ("shard.gateway_send_busy_s", "s", "lower"),
    ("shard.canonical_busy_s", "s", "lower"),
    ("shard.sign_busy_s", "s", "lower"),
    ("shard.injected", "count", "lower"),
    ("shard.inject_busy_s", "s", "lower"),
    ("shard.policy_drops", "count", "lower"),
    ("shard.windows", "count", "lower"),
    ("shard.window_busy_s", "s", "lower"),
    ("shard.sync_wait_s", "s", "lower"),
    ("shard.sync_wait_share", "ratio", "lower"),
    ("shard.mailbox_peak", "count", "lower"),
    ("shard.inbox_bytes", "B", "lower"),
    ("shard.checkpoint_s", "s", "lower"),
    ("chaos.cases", "count", "higher"),
    ("chaos.sample_s", "s", "lower"),
    ("chaos.compile_s", "s", "lower"),
    ("chaos.run_s", "s", "lower"),
    ("chaos.judge_s", "s", "lower"),
    ("chaos.violations", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

_SPAN_CALLS = ("observability.span_start", "observability.span_finish",
               "observability.span_record")
#: Spans the post-event observer opens under ``Simulator.run``; they are
#: outside every event handler, so the kernel's own share excludes them.
_OBSERVER_SPANS = ("persistence.append_event", "persistence.append_digest",
                   "persistence.system_digest", "observability.flight")


def install(tracer: Tracer, on_prepared: Callable[[Any], None]) -> None:
    """Wrap the public functions named in the per-layer table.

    ``on_prepared`` is called with every ``PreparedRun`` the program
    builds (``persistence.scenarios.prepare`` and the chaos compiler), so
    systems built inside drivers can be given an Instrument.
    """
    from repro.chaos import campaign, compiler
    from repro.network.transport import Network
    from repro.observability.spans import SpanRecorder
    from repro.persistence import journal, replay, runner, scenarios, snapshot
    from repro.persistence.checkpoint import Checkpoint
    from repro.security.auth import MessageAuthenticator
    from repro.shard import gateway, worker
    from repro.simulation.kernel import Simulator
    from repro.simulation.metrics import MetricsRecorder

    def observed(build: Callable[..., Any]) -> Callable[..., Any]:
        def build_and_report(*args: Any, **kwargs: Any) -> Any:
            prepared = build(*args, **kwargs)
            on_prepared(prepared)
            return prepared
        return build_and_report

    for cls, attr, name in (
        (Simulator, "run", "simulation.run"),
        (Network, "send", "network.send"),
        (MessageAuthenticator, "signer", "security.sign"),
        (MessageAuthenticator, "verify", "security.verify"),
        (journal.JournalWriter, "append_event", "persistence.append_event"),
        (journal.JournalWriter, "append_digest", "persistence.append_digest"),
        (Checkpoint, "save", "persistence.checkpoint_save"),
        (Checkpoint, "load", "persistence.checkpoint_load"),
        (SpanRecorder, "start", "observability.span_start"),
        (SpanRecorder, "finish", "observability.span_finish"),
        (SpanRecorder, "record", "observability.span_record"),
        (MetricsRecorder, "record", "observability.metric_record"),
        (gateway.FederationGateway, "send", "shard.gateway_send"),
        (gateway.FederationGateway, "inject", "shard.inject"),
        (gateway.FederationGateway, "drain_outbox", "shard.drain_outbox"),
        (worker.ShardHost, "window", "shard.window"),
        (worker.ShardHost, "checkpoint", "shard.checkpoint"),
        (campaign.SpecSampler, "sample", "chaos.sample"),
    ):
        tracer.patch_method(cls, attr, name)
    tracer.patch_method(compiler.ScenarioCompiler, "compile", "chaos.compile",
                        decorate=observed)
    for fn, name in (
        (snapshot.system_digest, "persistence.system_digest"),
        (runner.fast_forward, "persistence.fast_forward"),
        (journal.truncate, "persistence.truncate"),
        (runner.run_to_checkpoint, "persistence.run_to_checkpoint"),
        (runner.resume_run, "persistence.resume_run"),
        (replay.replay_journal, "persistence.replay_journal"),
        (gateway.canonical_payload, "shard.canonical_payload"),
        (gateway.sign_envelope, "shard.sign_envelope"),
        (campaign.run_case, "chaos.run_case"),
        (campaign.judge_case, "chaos.judge_case"),
    ):
        tracer.patch_function(fn, name)
    tracer.patch_function(scenarios.prepare, "persistence.prepare",
                          decorate=observed)


def _merge_planes(systems: List[Any]) -> Tuple[Dict[str, Dict[str, float]],
                                               Dict[str, float]]:
    """Sum the Instrument's per-plane and kernel rollups over ``systems``."""
    planes: Dict[str, Dict[str, float]] = {}
    kernel = {"events": 0.0, "busy_s": 0.0, "queue_depth_sum": 0.0}
    for system in systems:
        if system.sim.instrument is None:
            continue
        profile = system.profile_snapshot()
        for plane, row in profile.get("planes", {}).items():
            agg = planes.setdefault(plane, {"count": 0.0, "busy_s": 0.0,
                                            "max_ms": 0.0})
            agg["count"] += row["count"]
            agg["busy_s"] += row["total_ms"] / 1e3
            agg["max_ms"] = max(agg["max_ms"], row["max_us"] / 1e3)
        summary = profile.get("kernel", {})
        events = summary.get("events", 0)
        kernel["events"] += events
        kernel["busy_s"] += summary.get("busy_ms", 0.0) / 1e3
        kernel["queue_depth_sum"] += (
            summary.get("mean_queue_depth", 0.0) * events)
    return planes, kernel


def derive(tracer: Tracer, prepared_runs: List[Any], facts: Dict[str, float],
           wall_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced run (``trace.overhead`` aside).

    ``wall_s`` is the traced run's own timed region; a layer a workload
    never enters reports zero.
    """
    systems = [prepared.system for prepared in prepared_runs]
    planes, kernel = _merge_planes(systems)

    def plane(name: str, field: str) -> float:
        return planes.get(name, {}).get(field, 0.0)

    events = kernel["events"]
    observer_s = sum(
        agg.busy_s for (name, parent), agg in tracer.aggregates.items()
        if name in _OBSERVER_SPANS and parent == "simulation.run")
    digests = tracer.count("persistence.system_digest")
    digest_s = tracer.busy("persistence.system_digest")
    stats = [system.network.stats for system in systems]
    out: Dict[str, float] = {
        "simulation.events": events,
        "simulation.events_per_s": events / wall_s if wall_s else 0.0,
        "simulation.us_per_event": wall_s / events * 1e6 if events else 0.0,
        # Event-loop time outside every handler and observer.  Resume's
        # fast-forward steps the kernel itself instead of calling run().
        "simulation.kernel_self_s": max(
            0.0, tracer.busy("simulation.run") - observer_s
            + tracer.self_time("persistence.fast_forward")
            - kernel["busy_s"]),
        "simulation.max_event_ms": max(
            (row["max_ms"] for row in planes.values()), default=0.0),
        "simulation.queue_depth_mean":
            kernel["queue_depth_sum"] / events if events else 0.0,
        "network.sends": tracer.count("network.send"),
        "network.send_busy_s": tracer.busy("network.send"),
        "network.send_self_s": tracer.self_time("network.send"),
        "network.deliver_events": plane("transport", "count"),
        "network.deliver_busy_s": plane("transport", "busy_s"),
        "network.dropped": sum(
            s.dropped_loss + s.dropped_unreachable + s.dropped_quarantined
            + s.dropped_auth + s.dropped_intercepted for s in stats),
        "traffic.events": plane("traffic", "count"),
        "traffic.busy_s": plane("traffic", "busy_s"),
        "traffic.max_event_ms": plane("traffic", "max_ms"),
        "security.signs": tracer.count("security.sign"),
        "security.sign_busy_s": tracer.busy("security.sign"),
        "security.verifies": tracer.count("security.verify"),
        "security.verify_busy_s": tracer.busy("security.verify"),
        "security.rejected": sum(s.dropped_auth for s in stats),
        "coordination.events": plane("coordination", "count"),
        "coordination.busy_s": plane("coordination", "busy_s"),
        "adaptation.events": plane("mape", "count"),
        "adaptation.busy_s": plane("mape", "busy_s"),
        "adaptation.max_event_ms": plane("mape", "max_ms"),
        "persistence.journal_appends":
            tracer.count("persistence.append_event"),
        "persistence.journal_busy_s": tracer.busy(
            "persistence.append_event", "persistence.append_digest"),
        "persistence.digests": digests,
        "persistence.digest_busy_s": digest_s,
        "persistence.digest_ms_per_call":
            digest_s / digests * 1e3 if digests else 0.0,
        "persistence.checkpoint_saves":
            tracer.count("persistence.checkpoint_save"),
        "persistence.checkpoint_save_s":
            tracer.busy("persistence.checkpoint_save"),
        "persistence.checkpoint_load_s":
            tracer.busy("persistence.checkpoint_load"),
        "persistence.fast_forward_s": tracer.busy("persistence.fast_forward"),
        "persistence.truncate_s": tracer.busy("persistence.truncate"),
        "persistence.resume_s": tracer.busy("persistence.resume_run"),
        "persistence.replay_s": tracer.busy("persistence.replay_journal"),
        "observability.spans_started":
            tracer.count("observability.span_start"),
        "observability.spans_kept": sum(
            len(system.spans) for system in systems
            if system.spans is not None),
        "observability.span_busy_s": tracer.busy(*_SPAN_CALLS),
        "observability.metric_points": sum(
            system.metrics.total_points() for system in systems),
        "observability.metric_busy_s":
            tracer.busy("observability.metric_record"),
        "observability.flight_busy_s": tracer.busy("observability.flight"),
        "observability.export_s": tracer.busy("observability.export"),
        "shard.gateway_sends": tracer.count("shard.gateway_send"),
        "shard.gateway_send_busy_s": tracer.busy("shard.gateway_send"),
        "shard.canonical_busy_s": tracer.busy("shard.canonical_payload"),
        "shard.sign_busy_s": tracer.busy("shard.sign_envelope"),
        "shard.inject_busy_s": tracer.busy("shard.inject"),
        "shard.window_busy_s": tracer.busy("shard.window"),
        "shard.checkpoint_s": tracer.busy("shard.checkpoint"),
        "chaos.sample_s": tracer.busy("chaos.sample"),
        "chaos.compile_s": tracer.busy("chaos.compile"),
        "chaos.run_s": tracer.busy("chaos.run_case"),
        "chaos.judge_s": tracer.busy("chaos.judge_case"),
    }
    for name, _unit, _better in PER_LAYER:
        out.setdefault(name, 0.0)
    out.update(facts)
    return out
