"""The six benchmark workloads.

Each workload drives the program through public ``repro`` functions only.
``inputs`` turns the benchmark seed into the specs the program receives,
``setup`` is everything before the timed region, ``run`` is the timed
region, ``verify`` checks the outputs and returns the counts that must
repeat exactly, and ``facts`` reads per-layer numbers off the public result
objects.  Why each workload exists is in ``why`` (and README.md).

``repro`` is imported inside the methods, never at module import: the
parent process only needs the registry, and the child's imports belong to
``setup_s``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

#: Canonical scenario seeds; ``--seed S`` is added to each.
TRAFFIC_SEED = 23
FEDERATED_SEED = 47
CHAOS_SEED = 84

# The measured inputs, and the scaled-down ones ``--smoke`` (the tests) runs.
# Against the issue's sizing pass only ``horizon`` is scaled (traffic 30 -> 6,
# federation 9 -> 2.25, chaos 30 -> 12), so that one repetition takes 1-5 s
# and one run of the benchmark holds several (README, "Input sizes").
_TRAFFIC_PARAMS = {"users": 40000, "horizon": 6.0}
_TRAFFIC_SMOKE = {"users": 8000, "horizon": 6.0}
_FED_K1_PARAMS = {"domains": 8, "devices_per_domain": 10000,
                  "horizon": 2.25, "max_event_rate": 250}
_FED_K4_PARAMS = {"domains": 8, "devices_per_domain": 40000,
                  "horizon": 2.25, "max_event_rate": 1000}
_FED_SMOKE = {"domains": 8, "devices_per_domain": 2000, "horizon": 3.0,
              "max_event_rate": 50}
_CHAOS_PARAMS = {"runs": 12, "horizon": 12.0}
_CHAOS_SMOKE = {"runs": 3, "horizon": 8.0}


def load_program() -> None:
    """Import everything the workloads touch, so imports land in set-up.

    The scenario registry loads its built-in builders (and their imports)
    on first use; ``scenario_names`` is the public call that triggers it.
    """
    import repro.chaos  # noqa: F401
    import repro.observability.export  # noqa: F401
    import repro.shard  # noqa: F401
    from repro.persistence import scenario_names

    scenario_names()


def _file_size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _count_lines(path: str) -> int:
    return sum(1 for line in _read_text(path).splitlines() if line.strip())


def _traffic_facts(prepared_runs: List[Any]) -> Dict[str, float]:
    """Serving-plane outcome counters over every system a run built."""
    from repro.traffic.stats import TrafficRegistry, TrafficStats

    total = TrafficStats()
    for prepared in prepared_runs:
        registry = prepared.aux.get("registry")
        if isinstance(registry, TrafficRegistry):
            total.merge(registry.aggregate())
        for client in (prepared.aux.get("clients") or {}).values():
            total.merge(client.stats)
    return {
        "traffic.requests": total.offered,
        "traffic.completed": total.completed,
        "traffic.retries": total.retries,
        "traffic.rejected": total.rejected,
        "traffic.success_ratio": total.success_ratio or 0.0,
    }


class Workload:
    """One set of inputs the benchmark runs (see module docstring)."""

    name = ""
    why = ""
    #: Workload whose final system digest this one must reproduce.
    digest_of: Optional[str] = None
    #: ``facts`` keys that only an untraced run measures truthfully.
    untraced_facts: Tuple[str, ...] = ()

    def check_names(self, trace: bool) -> Tuple[str, ...]:
        """Every check ``verify`` reports; a run that raises fails them all."""
        raise NotImplementedError

    def inputs(self, seed: int, smoke: bool) -> Any:
        raise NotImplementedError

    def setup(self, ctx: Any, inputs: Any) -> Any:
        return inputs

    def run(self, ctx: Any, state: Any) -> Any:
        raise NotImplementedError

    def verify(self, ctx: Any, state: Any, result: Any
               ) -> Tuple[Dict[str, bool], Dict[str, Any]]:
        raise NotImplementedError

    def facts(self, ctx: Any, state: Any, result: Any) -> Dict[str, float]:
        return {}


# --------------------------------------------------------------------------- #
# Traffic family: one spec, three ways of running it
# --------------------------------------------------------------------------- #
def _traffic_spec(seed: int, smoke: bool) -> Any:
    from repro.persistence import ScenarioSpec

    params = _TRAFFIC_SMOKE if smoke else _TRAFFIC_PARAMS
    return ScenarioSpec("traffic-overload", seed=TRAFFIC_SEED + seed,
                        params=dict(params))


class TrafficBare(Workload):
    name = "traffic_bare"
    why = ("kernel + transport + traffic plane only, nothing else switched "
           "on: simulation/network/traffic changes show most here, and "
           "persistence/security/shard/observability changes must not show")

    def check_names(self, trace: bool) -> Tuple[str, ...]:
        return ("horizon_reached", "requests_completed")

    def inputs(self, seed: int, smoke: bool) -> Any:
        return _traffic_spec(seed, smoke)

    def setup(self, ctx: Any, spec: Any) -> Any:
        from repro.persistence import scenarios

        return scenarios.prepare(spec)

    def run(self, ctx: Any, prepared: Any) -> Any:
        prepared.system.run(until=prepared.horizon)
        return prepared

    def verify(self, ctx, prepared, result):
        from repro.persistence import snapshot

        system = prepared.system
        stats = prepared.aux["registry"].aggregate()
        checks = {
            "horizon_reached": system.sim.now == prepared.horizon,
            "requests_completed": 0 < stats.completed <= stats.offered,
        }
        exact = {
            "events": system.sim.fired_count,
            "requests": stats.offered,
            "completed": stats.completed,
            "digest": snapshot.system_digest(system),
        }
        return checks, exact

    def facts(self, ctx, prepared, result):
        return _traffic_facts([prepared])


class TrafficObserved(TrafficBare):
    name = "traffic_observed"
    why = ("same spec with on-budget telemetry (2% spans, Instrument, meter, "
           "flight recorder) and every exporter in the timed region: its "
           "distance to traffic_bare is the observability cost")
    digest_of = "traffic_bare"

    _EXPORT_CHECKS = ("spans_jsonl_count", "events_jsonl_count",
                      "chrome_trace_count", "metrics_json_parses",
                      "profile_json_events", "prometheus_parses",
                      "html_complete")

    def check_names(self, trace: bool) -> Tuple[str, ...]:
        return super().check_names(trace) + self._EXPORT_CHECKS

    def setup(self, ctx: Any, spec: Any) -> Any:
        prepared = super().setup(ctx, spec)
        system = prepared.system
        system.enable_observability(instrument=True, sample_rate=0.02,
                                    meter=True)
        system.enable_flight_recorder(spec)
        ctx.trace_observer(system, "observability.flight")
        return prepared

    def run(self, ctx: Any, prepared: Any) -> Any:
        from repro.observability import export

        def exporting(fn: Any, *args: Any, **kwargs: Any) -> Any:
            return ctx.call("observability.export", fn, *args, **kwargs)

        system = prepared.system
        system.run(until=prepared.horizon)
        spans = system.spans
        spans.finish_open(system.sim.now)
        paths = {name: ctx.path(name) for name in (
            "spans.jsonl", "events.jsonl", "trace.chrome.json",
            "metrics.json", "profile.json", "metrics.prom", "report.html")}
        counts = {
            "spans": exporting(export.write_spans_jsonl, spans,
                               paths["spans.jsonl"]),
            "events": exporting(export.write_events_jsonl, system.trace,
                                paths["events.jsonl"]),
            "chrome": exporting(export.write_chrome_trace,
                                paths["trace.chrome.json"], spans=spans,
                                events=system.trace),
        }
        exporting(export.write_metrics_snapshot, system.metrics,
                  paths["metrics.json"])
        exporting(export.write_profile, system.sim.instrument,
                  paths["profile.json"])
        # The CLI's assembly path for the Prometheus and HTML renderers.
        inputs = exporting(export.report_inputs, system, scenario=self.name)
        prom = exporting(
            export.prometheus_text, system.metrics,
            histograms=inputs["histograms"], per_source=inputs["per_source"],
            telemetry=inputs["telemetry"], profile=inputs["profile"])
        html = exporting(
            export.render_html_report,
            f"perf: {self.name}", inputs["kpi_report"],
            availability_per_device=inputs["availability"]["per_device"],
            network_kinds=inputs["per_kind"], per_source=inputs["per_source"],
            telemetry=inputs["telemetry"], profile=inputs["profile"])
        for name, text in (("metrics.prom", prom), ("report.html", html)):
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        return {"paths": paths, "counts": counts}

    def verify(self, ctx, prepared, result):
        checks, exact = super().verify(ctx, prepared, result)
        system = prepared.system
        paths, counts = result["paths"], result["counts"]
        chrome = json.loads(_read_text(paths["trace.chrome.json"]))
        metrics = json.loads(_read_text(paths["metrics.json"]))
        profile = json.loads(_read_text(paths["profile.json"]))
        prom_lines = [
            line for line in _read_text(paths["metrics.prom"]).splitlines()
            if line and not line.startswith("#")]
        html = _read_text(paths["report.html"])
        checks.update({
            "spans_jsonl_count": (
                _count_lines(paths["spans.jsonl"]) == counts["spans"]
                == len(system.spans)),
            "events_jsonl_count": (
                _count_lines(paths["events.jsonl"]) == counts["events"]
                == len(system.trace)),
            "chrome_trace_count": (
                len(chrome["traceEvents"]) == counts["chrome"]),
            "metrics_json_parses": isinstance(metrics, dict) and bool(metrics),
            "profile_json_events": (
                profile["events"] == system.sim.instrument.events
                == system.sim.fired_count),
            "prometheus_parses": bool(prom_lines) and all(
                len(line.rsplit(" ", 1)) == 2 for line in prom_lines),
            "html_complete": html.rstrip().endswith("</html>"),
        })
        exact.update({
            "spans_kept": len(system.spans),
            "spans_sampled_out": system.spans.sampled_out,
            "trace_events": len(system.trace),
            "chrome_records": counts["chrome"],
        })
        return checks, exact

    def facts(self, ctx, prepared, result):
        facts = super().facts(ctx, prepared, result)
        facts["observability.export_bytes"] = sum(
            _file_size(path) for path in result["paths"].values())
        return facts


class Recover(Workload):
    name = "recover"
    why = ("same spec through checkpoint -> resume -> replay on disk: "
           "checkpoint save/load, fast-forward, WAL truncate, journal read "
           "and digest chain, so a write-path win that costs readers shows")
    digest_of = "traffic_bare"

    def check_names(self, trace: bool) -> Tuple[str, ...]:
        return ("checkpoint_at_barrier", "resume_completed",
                "journal_complete", "replay_ok", "replay_covers_journal")

    def inputs(self, seed: int, smoke: bool) -> Any:
        return _traffic_spec(seed, smoke)

    def run(self, ctx: Any, spec: Any) -> Any:
        from repro import persistence

        directory = ctx.path("recover")
        barrier = float(spec.params["horizon"]) / 2.0
        interrupted = persistence.run_to_checkpoint(spec, directory,
                                                    at=barrier)
        resumed = persistence.resume_run(directory)
        report = persistence.replay_journal(resumed.journal_path)
        return {"directory": directory, "barrier": barrier,
                "interrupted": interrupted, "resumed": resumed,
                "report": report}

    def verify(self, ctx, spec, result):
        from repro import persistence

        resumed, report = result["resumed"], result["report"]
        checkpoint = result["interrupted"].checkpoint
        journal = persistence.read_journal(resumed.journal_path)
        end = journal.records[-1] if journal.records else {}
        checks = {
            "checkpoint_at_barrier": checkpoint.time == result["barrier"],
            "resume_completed": (
                resumed.fast_forward_events == checkpoint.fired
                and resumed.system.sim.now == resumed.prepared.horizon),
            "journal_complete": (journal.complete
                                 and end.get("digest") == resumed.final_digest),
            "replay_ok": report.ok and report.journal_complete,
            "replay_covers_journal": (
                report.records_checked == len(journal.records)
                and report.events_replayed
                == resumed.system.sim.fired_count),
        }
        paths = persistence.default_paths(result["directory"])
        exact = {
            "events": resumed.system.sim.fired_count,
            "barrier_events": checkpoint.fired,
            "journal_records": len(journal.records),
            "journal_bytes": _file_size(paths["journal"]),
            "checkpoint_bytes": _file_size(paths["checkpoint"]),
            "digest": resumed.final_digest,
        }
        return checks, exact

    def facts(self, ctx, spec, result):
        from repro import persistence

        paths = persistence.default_paths(result["directory"])
        events = result["resumed"].system.sim.fired_count
        facts = _traffic_facts([result["resumed"].prepared])
        facts.update({
            "persistence.bytes_per_event":
                _file_size(paths["journal"]) / events if events else 0.0,
            "persistence.checkpoint_bytes": _file_size(paths["checkpoint"]),
            "persistence.replay_divergences":
                0 if result["report"].ok else 1,
        })
        return facts


# --------------------------------------------------------------------------- #
# Federation family
# --------------------------------------------------------------------------- #
class FedK1(Workload):
    name = "fed_k1"
    why = ("the full single-process stack in one kernel (transport, "
           "traffic, security auth, SLO monitor, digest chain, gateway "
           "canonicalise+sign): the worst rung of the cost ladder")
    _params = _FED_K1_PARAMS
    shards = 1

    def check_names(self, trace: bool) -> Tuple[str, ...]:
        return ("complete", "federation_digest", "events_fired")

    def inputs(self, seed: int, smoke: bool) -> Any:
        from repro.persistence import ScenarioSpec

        params = _FED_SMOKE if smoke else self._params
        return ScenarioSpec("smart-city-federated",
                            seed=FEDERATED_SEED + seed, params=dict(params))

    def simulator(self, ctx: Any, spec: Any) -> Any:
        from repro import shard

        return shard.ShardedSimulator(spec, shards=self.shards)

    def run(self, ctx: Any, spec: Any) -> Any:
        return self.simulator(ctx, spec).run()

    def verify(self, ctx, spec, result):
        checks = {
            "complete": bool(result.complete),
            "federation_digest": bool(result.federation_digest),
            "events_fired": result.events > 0,
        }
        exact = {
            "events": result.events,
            "windows": result.windows,
            "digest": result.federation_digest,
            "injected": sum(s.injected for s in result.shard_stats),
        }
        return checks, exact

    def facts(self, ctx, spec, result):
        stats = result.shard_stats
        shard_time = sum(s.wall_s + s.sync_wait_s for s in stats)
        facts = _traffic_facts(ctx.prepared)
        facts.update({
            "shard.windows": result.windows,
            "shard.injected": sum(s.injected for s in stats),
            "shard.policy_drops": sum(
                s.counters.get("shard.fed.dropped_policy", 0) for s in stats),
            "shard.sync_wait_s": result.sync_wait_s,
            "shard.sync_wait_share":
                result.sync_wait_s / shard_time if shard_time else 0.0,
            "shard.mailbox_peak": max(s.outbox_peak for s in stats),
        })
        return facts


class FedK4(FedK1):
    name = "fed_k4"
    why = ("4x the population over 4 shards on 2 worker processes, on disk: "
           "barrier sync, mailbox pickling, inbox files, checkpoints; a "
           "per-shard win that worsens stragglers splits it from fed_k1")
    _params = _FED_K4_PARAMS
    shards = 4
    # Wrappers cannot see into forked workers, so the traced run uses
    # in-process workers; only the 2-worker run measures real waiting.
    untraced_facts = ("shard.sync_wait_s", "shard.sync_wait_share")

    def check_names(self, trace: bool) -> Tuple[str, ...]:
        names = super().check_names(trace)
        return names + ("replay_verified",) if trace else names

    def simulator(self, ctx: Any, spec: Any) -> Any:
        from repro import shard

        return shard.ShardedSimulator(
            spec, shards=self.shards, workers=1 if ctx.tracer else 2,
            out_dir=ctx.path("fed_k4"), checkpoint_every=4)

    def _shard_files(self, result: Any, kind: str) -> int:
        from repro import shard

        return sum(_file_size(shard.shard_paths(result.out_dir, i)[kind])
                   for i in range(result.shards))

    def verify(self, ctx, spec, result):
        from repro import shard

        checks, exact = super().verify(ctx, spec, result)
        exact["journal_bytes"] = self._shard_files(result, "journal")
        exact["inbox_bytes"] = self._shard_files(result, "inbox")
        if ctx.tracer:
            # As costly as the run itself, so only the traced run pays.
            report = shard.verify_federation(result.out_dir)
            checks["replay_verified"] = bool(
                report["ok"] and report["complete"]
                and report["federation_digest"] == result.federation_digest)
        return checks, exact

    def facts(self, ctx, spec, result):
        facts = super().facts(ctx, spec, result)
        facts["shard.inbox_bytes"] = self._shard_files(result, "inbox")
        journal = self._shard_files(result, "journal")
        facts["persistence.bytes_per_event"] = (
            journal / result.events if result.events else 0.0)
        facts["persistence.checkpoint_bytes"] = self._shard_files(
            result, "checkpoint")
        return facts


# --------------------------------------------------------------------------- #
# Chaos
# --------------------------------------------------------------------------- #
class ChaosMix(Workload):
    name = "chaos_mix"
    why = ("twelve heterogeneous short systems with per-case compile inside "
           "the timed region: MAPE, membership/gossip, faults, adversary "
           "and trust planes do the work the traffic workloads barely touch")

    def check_names(self, trace: bool) -> Tuple[str, ...]:
        return ("cases_completed", "cases_digested")

    def inputs(self, seed: int, smoke: bool) -> Any:
        """Campaign 84's specs, each re-seeded by the benchmark seed.

        The campaign seed fixes *which* systems are sampled (topology,
        traffic pattern, faults, adversary), so every benchmark seed
        measures the same mix; only the per-case random streams move.
        """
        from repro import chaos

        params = _CHAOS_SMOKE if smoke else _CHAOS_PARAMS
        sampler = chaos.SpecSampler(CHAOS_SEED, horizon=params["horizon"])
        specs = [sampler.sample(index) for index in range(params["runs"])]
        return [spec.with_seed(spec.seed + seed) for spec in specs]

    def run(self, ctx: Any, specs: Any) -> Any:
        from repro import chaos

        return [chaos.run_case(spec) for spec in specs]

    def verify(self, ctx, specs, cases):
        from repro.persistence import state_digest

        checks = {
            "cases_completed": (len(cases) == len(specs)
                                and all(c.events > 0 for c in cases)),
            "cases_digested": all(bool(c.digest) for c in cases),
        }
        exact = {
            "cases": len(cases),
            "events": sum(c.events for c in cases),
            "violations": sum(1 for c in cases if c.violated),
            "digest": state_digest([c.digest for c in cases]),
        }
        return checks, exact

    def facts(self, ctx, specs, cases):
        facts = _traffic_facts(ctx.prepared)
        facts["chaos.cases"] = len(cases)
        facts["chaos.violations"] = sum(1 for c in cases if c.violated)
        return facts


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        TrafficBare(), TrafficObserved(), Recover(), FedK1(), FedK4(),
        ChaosMix())
}
