#!/usr/bin/env python
"""Benchmark regression harness: ``BENCH_<n>.json`` perf-trajectory snapshots.

Each run executes a fixed set of bench scenarios (headline figure/table
experiments plus micro-benchmarks of the hot substrate), collects both
*deterministic* headline KPIs (reading counts, availability, repair
delays -- bit-identical across machines because the simulator is
deterministic) and *wall-clock* timings (machine-dependent), and writes
them as one ``BENCH_<n>.json`` snapshot.  Snapshots from different
commits compare with per-metric tolerances: deterministic KPIs must
match exactly, timings may drift within a generous bound -- so a CI run
can flag both behavioural drift and order-of-magnitude slowdowns without
flaking on scheduler noise.

Instrumented benches also capture a profiling-plane snapshot
(:func:`repro.observability.profile.capture_profile`) under a top-level
``profiles`` key -- ignored by the metric comparison, so old baselines
stay comparable -- and when a comparison *does* flag regressions the
report runs a differential profile over the two snapshots and names the
subsystem plane responsible for each regressed bench.

Usage::

    python benchmarks/regress.py --quick                  # snapshot to CWD
    python benchmarks/regress.py --quick --out benchmarks/baselines
    python benchmarks/regress.py --compare A.json B.json  # no runs
    python benchmarks/regress.py --baseline benchmarks/baselines/BENCH_1.json
    python benchmarks/regress.py --trajectory             # drift across snapshots
    python benchmarks/regress.py --self-test              # detection check

Every tolerance, budget and gate is one row of :data:`RULES`.  A snapshot
run judges the gate rows and prints one line per broken row.

Exit status: 0 clean, 1 when a gate breaks, a comparison detects a
regression or the self-test fails, 2 when a snapshot file cannot be read.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import random
import re
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

# Runnable as a script from a source checkout without installation.
_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.observability.profile import (  # noqa: E402
    BENCH_SCHEMA as SCHEMA,
    SnapshotError,
    load_snapshot,
    numbered_snapshots,
)
from repro.schema import write_document  # noqa: E402

# --------------------------------------------------------------------------- #
# bench rules: every tolerance, budget and gate, declared once
# --------------------------------------------------------------------------- #
_EPS = 1e-9
_OPS: Dict[str, Callable[[float, float], bool]] = {
    "<=": operator.le, ">=": operator.ge, "==": operator.eq}


class Rule(NamedTuple):
    """How the metrics ``pattern`` fully matches (``bench.metric``) are judged.

    ``--compare`` flags a relative drift past ``tol`` in ``direction``
    ("higher" flags only increases, "lower" only drops, "both" either).
    ``kind``: *exact* (deterministic, so any change needs a look and an
    intentional one a re-baseline), *timing* (a machine-dependent reading:
    wall, throughput, memory), *ratio* (of two legs of one bench),
    *reported* (never flagged) or *gate*, whose ``bound`` ``(op, value)``
    is judged on every snapshot the harness takes.  On any other row a
    bound is a budget a bench folds into its 0/1 ``*_ok`` flag
    (:func:`within`).  ``anchor`` names the EXPERIMENTS.md or DESIGN.md
    heading that gives the bound's reason.
    """

    pattern: str
    kind: str
    tol: float = _EPS
    direction: str = "both"
    bound: Optional[Tuple[str, float]] = None
    anchor: str = ""


def _gate(pattern: str, op: str, value: float, anchor: str) -> Rule:
    return Rule(pattern, "gate", bound=(op, value), anchor=anchor)


#: First match wins, so the named rows come before the suffix rules.
RULES: Tuple[Rule, ...] = (
    # Noise-free invariants: a determinism or safety property that reads 1
    # (or 0 failures) on every machine.
    _gate(r"persistence\.digest_match", "==", 1, "EXPERIMENTS CRASH"),
    _gate(r"persistence\.replay_ok", "==", 1, "EXPERIMENTS CRASH"),
    _gate(r"live\.digest_identical", "==", 1, "EXPERIMENTS LIVE-1"),
    _gate(r"security\.raft_safety_ok", "==", 1, "EXPERIMENTS SEC-3"),
    _gate(r"paper\.\w+\.failed", "==", 0, "EXPERIMENTS BENCH"),
    _gate(r"telemetry\.spans_identical", "==", 1, "EXPERIMENTS OBS-4"),
    _gate(r"route\.paths_identical", "==", 1, "DESIGN Route on change"),
    _gate(r"digest\.digests_identical", "==", 1,
          "EXPERIMENTS Recording cost"),
    _gate(r"journal\.bytes_identical", "==", 1,
          "EXPERIMENTS Recording cost"),
    _gate(r"shard\.digest_stable", "==", 1, "EXPERIMENTS SHARD-1"),
    # Tripwires on exact counts and on memory.
    _gate(r"telemetry\.bare_calls_per_event", "<=", 40.70 * 1.02,
          "EXPERIMENTS OBS-5"),
    Rule(r"telemetry\.observed_extra_calls_per_event", "exact",
         anchor="EXPERIMENTS OBS-7"),
    _gate(r"startup\.third_party_modules", "==", 0, "EXPERIMENTS START"),
    Rule(r"shard\.k1\.digests", "exact", anchor="EXPERIMENTS Recording cost"),
    Rule(r"persistence\.json_decodes", "exact",
         anchor="EXPERIMENTS Reading cost"),
    Rule(r"chaos\.closed_cyclic_objects", "exact", anchor="EXPERIMENTS CHAOS-2"),
    Rule(r"journal\.truncate_peak_kib", "gate", 0.25, "higher",
         ("<=", 128), "EXPERIMENTS Reading cost"),
    # Budgets a bench folds into a 0/1 flag, and the flags.  The two
    # overheads are not recorded, only their flags: each is the best paired
    # rep's leg over its bare leg, minus one.
    _gate(r"observability\.sampled_budget_ok", "==", 1, "EXPERIMENTS OBS-3"),
    Rule(r"observability\.sampled_overhead", "ratio", bound=("<=", 0.10),
         anchor="EXPERIMENTS OBS-3"),
    _gate(r"shard\.speedup_ok", "==", 1, "EXPERIMENTS SHARD-1"),
    Rule(r"shard\.speedup_k4", "ratio", 0.5, "lower", (">=", 1.3),
         "EXPERIMENTS SHARD-1"),
    # Compared exactly but not gated: these flags read 0.0 on a loaded host
    # (legs of a few ms, +-25 % scheduler noise), so a 0.0 is re-run alone
    # before it is believed.
    Rule(r"live\.paced_budget_ok", "exact", anchor="EXPERIMENTS LIVE-1"),
    Rule(r"live\.paced_overhead", "ratio", bound=("<=", 0.10),
         anchor="EXPERIMENTS LIVE-1"),
    Rule(r"security\.overhead_budget_ok", "exact", anchor="EXPERIMENTS SEC-3"),
    Rule(r"security\.auth_overhead_us", "timing", 1.0, "higher",
         ("<=", 17.2), "EXPERIMENTS SEC-3"),
    Rule(r"security\.auth_event_overhead", "exact", bound=("<=", 0.15),
         anchor="EXPERIMENTS SEC-3"),
    # Machine-dependent readings: flag a slowdown past 2x, a halved
    # throughput, or memory past an interpreter-version wobble.
    Rule(r".*wall_s", "timing", 1.0, "higher"),
    Rule(r".*\.events_per_s", "timing", 0.5, "lower"),
    Rule(r".*\.specs_per_s", "timing", 0.5, "lower"),
    Rule(r".*\.speedup_k\d+", "ratio", 0.5, "lower"),
    Rule(r"route\.speedup", "ratio", 0.5, "lower"),
    # An expensive idle check lowers moved/idle and so does a cheaper moved
    # leg; digest.state_reads (exact) and the _us legs are the tripwires.
    Rule(r"digest\.moved_over_idle", "reported", float("inf")),
    Rule(r"journal\.append_over_reference", "ratio", 1.0, "higher"),
    Rule(r"telemetry\.sampled_over_bare", "ratio", 1.0, "higher"),
    Rule(r".*_us", "timing", 1.0, "higher"),
    Rule(r"startup\.import_s", "timing", 1.0, "higher"),
    Rule(r"startup\.rss_mb", "timing", 0.25, "higher"),  # 1 import: +30%
    Rule(r"startup\.modules", "timing", 0.10, "higher"),  # per Python
    Rule(r".*_peak_kib", "timing", 0.25, "higher"),
    Rule(r".*", "exact"),
)


def rule_for(metric: str) -> Rule:
    return next(rule for rule in RULES if re.fullmatch(rule.pattern, metric))


def tolerance_for(metric: str) -> Tuple[float, str]:
    rule = rule_for(metric)
    return rule.tol, rule.direction


def within(metric: str, value: float) -> bool:
    """``value`` against the bound ``metric``'s rule declares."""
    op, bound = rule_for(metric).bound
    return _OPS[op](value, bound)


def judge(snapshot: Dict[str, Any]) -> List[Tuple[str, float, Rule]]:
    """``(metric, reading, rule)`` per gated metric the snapshot breaks."""
    breaches = []
    for bench, metrics in sorted(snapshot["benches"].items()):
        for metric, value in sorted(metrics.items()):
            name = f"{bench}.{metric}"
            rule = rule_for(name)
            if rule.kind == "gate" and not within(name, value):
                breaches.append((name, value, rule))
    return breaches


def print_breaches(breaches: List[Tuple[str, float, Rule]]) -> int:
    """One "why flagged" line per broken gate; 1 if there is any."""
    print(f"[regress] gates: {'FAIL' if breaches else 'OK'}")
    for metric, value, rule in breaches:
        op, bound = rule.bound
        print(f"  - {metric} = {value:g}, want {op} {bound:g} "
              f"(why: {rule.anchor})")
    return 1 if breaches else 0


# --------------------------------------------------------------------------- #
# bench scenarios
# --------------------------------------------------------------------------- #
# Profiling-plane snapshots captured as a side effect of instrumented
# bench runs; take_snapshot() clears this and folds it into the
# ``profiles`` section of the written BENCH_<n>.json.
_RUN_PROFILES: Dict[str, Dict[str, Any]] = {}


def _traced_peak_kib(call: Callable[[], Any]) -> float:
    """Peak bytes ``call`` allocates above what was live when it started,
    in KiB, as ``tracemalloc`` counts them: requested bytes, not pages, so
    the reading repeats exactly on one interpreter."""
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        call()
        return round((tracemalloc.get_traced_memory()[1] - live) / 1024, 1)
    finally:
        tracemalloc.stop()


def _cyclic_repro_objects(call: Callable[[], Any]) -> float:
    """``repro.*`` objects that only a full collection would free after
    ``call``: run with the collector off, then counted among what a
    ``gc.DEBUG_SAVEALL`` collection finds.  Reference counts decide it,
    so the count repeats exactly."""
    import gc

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        call()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = sum(1 for obj in gc.garbage
                    if type(obj).__module__.startswith("repro."))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    return float(found)


def bench_smart_city(quick: bool) -> Dict[str, float]:
    """The observed smart-city disruption run and its resilience KPIs."""
    from repro.scenarios import describe_scenario, prepare

    started = time.perf_counter()
    prepared = prepare(describe_scenario("smart-city-partition").spec(quick))
    system = prepared.system
    system.run(until=prepared.horizon)
    wall = time.perf_counter() - started
    system.spans.finish_open(system.sim.now)
    _RUN_PROFILES["smart_city"] = system.profile_snapshot(
        meta={"scenario": "smart-city-partition", "quick": quick})
    report = system.kpi_report()
    arcs = report.arcs
    mttrs = [arc.mttr for arc in arcs if arc.mttr is not None]
    return {
        "wall_s": wall,
        "availability": report.availability or 0.0,
        "worst_availability": report.worst_availability or 0.0,
        "faults": float(len(arcs)),
        "resolved": float(sum(1 for a in arcs if a.resolved)),
        "mttr_total_s": float(sum(mttrs)),
        "messages_delivered": float(system.network.stats.delivered),
        "spans": float(len(system.spans.spans)),
    }


def bench_mape_outage(quick: bool) -> Dict[str, float]:
    """Fig. 5's edge-placed MAPE loop healing through a cloud outage."""
    from repro.experiments import mape_repair_delays, run_mape_placement

    started = time.perf_counter()
    system, loops = run_mape_placement("edge")
    wall = time.perf_counter() - started
    delays = mape_repair_delays(system, loops)
    return {
        "wall_s": wall,
        "repairs": float(len(delays)),
        "repair_fastest_s": float(delays[0]) if delays else -1.0,
        "repair_slowest_s": float(delays[-1]) if delays else -1.0,
        "missed_observations": float(
            sum(loop.missed_observations for loop in loops)),
    }


def bench_kernel(quick: bool) -> Dict[str, float]:
    """Raw event-loop throughput: a self-rescheduling event chain."""
    from repro.simulation.kernel import Simulator

    n = 20_000 if quick else 100_000
    sim = Simulator()
    fired = [0]

    def tick(s) -> None:
        fired[0] += 1
        if fired[0] < n:
            s.schedule(0.001, tick)

    sim.schedule(0.0, tick)
    started = time.perf_counter()
    sim.run(until=n)
    wall = time.perf_counter() - started
    return {
        "wall_s": wall,
        "events": float(fired[0]),
        "final_now": round(sim.now, 6),
        "events_per_s": fired[0] / wall if wall > 0 else 0.0,
    }


def bench_histogram(quick: bool) -> Dict[str, float]:
    """Streaming-histogram ingest rate plus deterministic quantiles."""
    from repro.observability.histogram import StreamingHistogram

    n = 50_000 if quick else 200_000
    rng = random.Random(42)
    values = [rng.lognormvariate(-3.0, 1.0) for _ in range(n)]
    hist = StreamingHistogram()
    started = time.perf_counter()
    for value in values:
        hist.observe(value)
    wall = time.perf_counter() - started
    return {
        "wall_s": wall,
        "events_per_s": n / wall if wall > 0 else 0.0,
        "count": float(hist.count),
        "p50": round(hist.quantile(0.5), 9),
        "p99": round(hist.quantile(0.99), 9),
    }


def bench_persistence(quick: bool) -> Dict[str, float]:
    """Checkpoint/resume/replay overhead and end-to-end determinism.

    Runs the control-outage scenario uninterrupted, then interrupted at
    mid-horizon + resumed, and replays the resumed journal.  Timings and
    checkpoint size come from the persistence telemetry series; the
    digest/replay metrics are deterministic and must stay bit-identical.
    ``replay_peak_kib`` replays the journal once more, untimed, under
    ``tracemalloc``: the whole replay, whose reader holds no record list.
    ``json_decodes`` counts ``json.loads`` calls of the resume and the
    replay, from outside: the lines no writer's template formatted.
    """
    import shutil
    import tempfile
    from unittest import mock

    from repro.persistence import (
        ScenarioSpec,
        replay_journal,
        resume_run,
        run_scenario,
        run_to_checkpoint,
    )

    spec = ScenarioSpec(name="control-outage", seed=11)
    tmp = tempfile.mkdtemp(prefix="bench-persistence-")
    started = time.perf_counter()
    try:
        reference = run_scenario(
            spec, journal_path=os.path.join(tmp, "reference.jsonl"))
        interrupted = run_to_checkpoint(spec, tmp, at=45.0)
        metrics = interrupted.system.metrics
        save_s = metrics.series("persistence.checkpoint.save_s").values[-1]
        size_b = metrics.series("persistence.checkpoint.bytes").values[-1]
        with mock.patch("json.loads", wraps=json.loads) as decodes:
            resumed = resume_run(directory=tmp)
            journal = os.path.join(tmp, "journal.jsonl")
            replay = replay_journal(journal)
        wall = time.perf_counter() - started
        return {
            "wall_s": wall,
            "replay_peak_kib": _traced_peak_kib(
                lambda: replay_journal(journal)),
            "save.wall_s": float(save_s),
            "restore.wall_s": float(resumed.fast_forward_s),
            "checkpoint_bytes": float(size_b),
            "fired_at_checkpoint": float(interrupted.checkpoint.fired),
            "fired_total": float(resumed.system.sim.fired_count),
            "digest_match": float(
                resumed.final_digest == reference.final_digest),
            "replay_ok": float(replay.ok),
            "json_decodes": float(decodes.call_count),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def bench_traffic(quick: bool) -> Dict[str, float]:
    """Serving-plane throughput and the overload/retry-storm KPIs.

    The cohort runs prove load generation scales with aggregate rate,
    not user count: the 100k-client run must fire the same order of
    magnitude of kernel events as the 10k-client run.  The overload and
    retry-storm KPIs are deterministic headline numbers.
    """
    from repro.scenarios import ScenarioSpec, gated_run
    from repro.traffic.scenarios import prepare_overload

    horizon = 10.0 if quick else 30.0

    def cohort_run(users: int) -> Tuple[float, float, int]:
        # Equal aggregate demand (400/s) spread over `users` clients.
        prepared = prepare_overload(
            variant="admission", users=users,
            rate_per_user=400.0 / users, horizon=horizon)
        started = time.perf_counter()
        prepared.system.run(until=horizon)
        wall = time.perf_counter() - started
        events = prepared.system.sim.fired_count
        return wall, events / wall if wall > 0 else 0.0, events

    wall_10k, eps_10k, events_10k = cohort_run(10_000)
    _, _, events_100k = cohort_run(100_000)

    _, overload = gated_run(ScenarioSpec("traffic-overload", params={
        "variant": "naive", "horizon": horizon}))
    # The recovery window opens at t=21 (heal + grace), so even the
    # quick variant must run past it.
    _, storm = gated_run(ScenarioSpec("traffic-retry-storm", params={
        "variant": "resilient", "horizon": 30.0 if quick else 45.0}))
    return {
        "wall_s": wall_10k,
        "events_per_s": eps_10k,
        "events_10k_clients": float(events_10k),
        "events_100k_clients": float(events_100k),
        "overload_goodput": round(overload["goodput"], 9),
        "overload_p99_s": round(overload["p99_latency"], 9),
        "storm_recovery_ratio": round(storm["recovery_ratio"], 9),
        "storm_breaker_trips": float(storm["breaker"]["trips"]),
    }


def bench_security(quick: bool) -> Dict[str, float]:
    """Security-plane overhead and the adversary-scenario KPIs.

    The headline number is the cost of the *defense*, not the attack:
    the same byzantine-gossip topology and workload runs with no
    security wiring (attack off, plane idle), with the interceptor +
    auth path enabled on the identical honest workload (``authed``),
    and fully defended under attack (auth + trust + MAPE, attacker
    active).  Each wall is the min over reps: scheduler noise only ever
    *inflates* a leg.

    ``overhead_budget_ok`` holds ``auth_overhead_us`` -- sign+verify wall
    per sent message, from the min walls -- and ``auth_event_overhead`` --
    the share of kernel events auth adds, deterministic -- to their rows'
    budgets: a gross-regression tripwire (e.g. an accidentally quadratic
    encoding), not a profiler.
    """
    from repro.scenarios import ScenarioSpec, gated_run
    from repro.security.scenarios import prepare_byzantine_gossip

    horizon = 8.0 if quick else 24.0
    reps = 3 if quick else 5

    def one_run(variant: str, authed: bool = False) -> Tuple[float, Any]:
        prepared = prepare_byzantine_gossip(variant=variant, horizon=horizon,
                                            authed=authed)
        started = time.perf_counter()
        prepared.system.run(until=horizon)
        return time.perf_counter() - started, prepared.system

    attack_off_wall = auth_on_wall = attack_on_wall = float("inf")
    for _ in range(reps):
        off_wall, off_system = one_run("clean")
        auth_wall, auth_system = one_run("clean", authed=True)
        on_wall, on_system = one_run("defended")
        attack_off_wall = min(attack_off_wall, off_wall)
        auth_on_wall = min(auth_on_wall, auth_wall)
        attack_on_wall = min(attack_on_wall, on_wall)
    attack_off_events = off_system.sim.fired_count
    auth_on_events = auth_system.sim.fired_count
    attack_on_events = on_system.sim.fired_count
    auth_sent = auth_system.network.stats.sent

    event_overhead = max(0.0, (auth_on_events - attack_off_events)
                         / attack_off_events if attack_off_events else 0.0)
    auth_overhead_us = (max(0.0, auth_on_wall - attack_off_wall)
                        / auth_sent * 1e6 if auth_sent else 0.0)

    _, gossip = gated_run(ScenarioSpec("security-byzantine-gossip", params={
        "variant": "defended", "horizon": horizon}))
    _, raft = gated_run(ScenarioSpec("security-raft-equivocation",
                                     params={"variant": "defended"}))
    _, flood = gated_run(ScenarioSpec("security-sybil-flood",
                                      params={"variant": "defended"}))
    return {
        "wall_s": attack_off_wall,
        "auth_on.wall_s": auth_on_wall,
        "attack_on.wall_s": attack_on_wall,
        "overhead_budget_ok": float(
            within("security.auth_overhead_us", auth_overhead_us)
            and within("security.auth_event_overhead", event_overhead)),
        "auth_event_overhead": round(event_overhead, 9),
        "auth_overhead_us": auth_overhead_us,
        "attack_off_events": float(attack_off_events),
        "auth_on_events": float(auth_on_events),
        "attack_on_events": float(attack_on_events),
        "gossip_quarantined": float(len(gossip["quarantined"])),
        "raft_safety_ok": float(not raft["safety_violated"]),
        "flood_goodput": round(flood["goodput"], 9),
        "flood_sybils": float(flood["sybil_count"]),
    }


def bench_observability(quick: bool) -> Dict[str, float]:
    """Telemetry recording cost on the kernel hot loop, full vs sampled.

    A synthetic gateway poll loop: every event aggregates a batch of
    readings, every 16th rolls the poll-round span and batches the tick
    counter (``counter_adder``), and a kept round records a metric sample
    per event.  Per rep *bare*, *full* and *sampled* (2 % head-based,
    seeded) run back to back; walls are the min over reps, since noise
    only inflates a leg.  ``sampled_budget_ok`` trips when even the best
    paired rep is over the ``observability.sampled_overhead`` budget: the
    tripwire for de-optimizing the sampled drop path.  Span/sample counts
    are deterministic (the sampler hashes (seed, root ordinal)), so they
    check the sampling decision stream too.  This is not the telemetry
    budget: one span per 16 events never reaches a span call site, where
    a sampled run pays most of its cost (``bench_telemetry`` measures
    those).  ``export_peak_kib`` writes a 20k-event trace as JSONL and as
    a Chrome trace under ``tracemalloc``: a streaming writer holds one
    chunk of encoded records, not the trace's records.
    """
    import shutil
    import tempfile

    from repro.observability.export import (
        write_chrome_trace,
        write_events_jsonl,
    )
    from repro.observability.overhead import SpanSampler
    from repro.observability.spans import SpanRecorder
    from repro.simulation.kernel import Simulator
    from repro.simulation.metrics import MetricsRecorder
    from repro.simulation.trace import TraceLog

    n = 6_000 if quick else 24_000
    reps = 5 if quick else 7
    round_events = 16
    rate = 0.02
    readings = [0.05 * i for i in range(32)]

    def one_run(mode: str):
        sim = Simulator()
        spans = None
        metrics = None
        add = None
        if mode != "bare":
            sampler = SpanSampler(rate, seed=7) if mode == "sampled" else None
            spans = SpanRecorder(sampler=sampler)
            metrics = MetricsRecorder()
            add = metrics.counter_adder("obs.ticks")
        # [fired, ewma, open span, round kept?] -- list, not dict, so the
        # handler's own bookkeeping stays cheap relative to what we meter.
        state: List[Any] = [0, 0.0, None, False]

        def tick(s: Any) -> None:
            fired = state[0] = state[0] + 1
            total = 0.0
            for r in readings:
                total += r * 1.0001 + 0.003
            state[1] = 0.9 * state[1] + 0.1 * total
            if spans is not None:
                if fired % round_events == 1:
                    if state[2] is not None:
                        spans.finish(state[2], s.now)
                        add(float(round_events))
                    span = spans.start("poll-round", "bench", s.now)
                    state[2] = span
                    state[3] = span.sampled
                if state[3]:
                    metrics.record("obs.batch_ewma", s.now, state[1])
            if fired < n:
                s.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        started = time.perf_counter()
        sim.run(until=float(n))
        wall = time.perf_counter() - started
        if spans is not None and state[2] is not None:
            spans.finish(state[2], sim.now)
            add(float(round_events))
        return wall, spans, metrics

    bare_wall = full_wall = sampled_wall = float("inf")
    best_full_ratio = best_sampled_ratio = float("inf")
    full_spans = sampled_spans = None
    full_metrics = sampled_metrics = None
    for _ in range(reps):
        b_wall, _, _ = one_run("bare")
        f_wall, full_spans, full_metrics = one_run("full")
        s_wall, sampled_spans, sampled_metrics = one_run("sampled")
        bare_wall = min(bare_wall, b_wall)
        full_wall = min(full_wall, f_wall)
        sampled_wall = min(sampled_wall, s_wall)
        if b_wall > 0:
            best_full_ratio = min(best_full_ratio, f_wall / b_wall)
            best_sampled_ratio = min(best_sampled_ratio, s_wall / b_wall)

    sampled_overhead = max(0.0, best_sampled_ratio - 1.0)
    trace = TraceLog()
    for index in range(20_000):
        trace.emit(index * 0.001, "message", "deliver",
                   subject=f"dev{index % 64}", kind="telemetry")
    tmp = tempfile.mkdtemp(prefix="bench-export-")
    try:
        export_peak = _traced_peak_kib(lambda: (
            write_events_jsonl(trace, os.path.join(tmp, "events.jsonl")),
            write_chrome_trace(os.path.join(tmp, "trace.json"), events=trace)))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "wall_s": bare_wall,
        "full.wall_s": full_wall,
        "sampled.wall_s": sampled_wall,
        "sampled_budget_ok": float(
            within("observability.sampled_overhead", sampled_overhead)),
        "spans_full": float(len(full_spans)),
        "spans_sampled": float(len(sampled_spans)),
        "spans_sampled_out": float(sampled_spans.sampled_out),
        "metric_points_full": float(full_metrics.total_points()),
        "metric_points_sampled": float(sampled_metrics.total_points()),
        "ticks_counted": float(sampled_metrics.counter("obs.ticks")),
        "export_peak_kib": export_peak,
    }


def bench_chaos(quick: bool) -> Dict[str, float]:
    """Chaos-plane cost: spec-compile throughput and campaign wall per run.

    ``compile.specs_per_s`` compiles sampled specs (full system wiring)
    without running them: what a campaign pays per case before any
    simulation.  A small seeded campaign (``shrink=False``, no corpus)
    gives the wall per case.  Event and violation counts are deterministic
    functions of the campaign seed, so a change to the sampling stream or
    the compiled wiring shows as an exact-metric diff before it can
    silently re-name every corpus bundle.

    ``campaign_peak_kib`` runs ``run_case`` over the first twelve specs of
    campaign 84 at horizon 12 (the repo benchmark's ``chaos_mix``) under
    ``tracemalloc``: a finished system that is not closed stays behind as
    cyclic garbage until a full collection, so the peak grows with every
    case that leaves its event queue and trace alive.
    ``closed_cyclic_objects`` runs the same twelve cases with the
    collector off and counts the ``repro`` objects a full collection then
    finds: what a closed system still leaves for the collector.
    """
    from repro.chaos import ChaosCampaign, SpecSampler, compile_spec, run_case

    n_compile = 20 if quick else 50
    sampler = SpecSampler(84)
    specs = [sampler.sample(index) for index in range(n_compile)]
    # Fastest of three passes: one pass is ~10 ms, and a full garbage
    # collection landing inside it triples the reading (noise only adds).
    compile_wall = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for spec in specs:
            compile_spec(spec)
        compile_wall = min(compile_wall, time.perf_counter() - started)

    runs = 2 if quick else 3
    campaign = ChaosCampaign(seed=84, runs=runs, horizon=10.0, shrink=False)
    result = campaign.run()
    mix = SpecSampler(84, horizon=12.0)
    mix_specs = [mix.sample(index) for index in range(12)]
    campaign_peak = _traced_peak_kib(
        lambda: [run_case(spec) for spec in mix_specs])
    closed_cyclic = _cyclic_repro_objects(
        lambda: [run_case(spec) for spec in mix_specs])
    return {
        "wall_s": compile_wall + result.wall_s,
        "compile.wall_s": compile_wall,
        "compile.specs_per_s": (n_compile / compile_wall
                                if compile_wall > 0 else 0.0),
        "campaign.wall_s": result.wall_s,
        "campaign.run_wall_s": result.wall_s / runs,
        "campaign.events": float(sum(case.events for case in result.cases)),
        "campaign.violations": float(result.violation_count),
        "campaign_peak_kib": campaign_peak,
        "closed_cyclic_objects": closed_cyclic,
    }


def bench_live(quick: bool) -> Dict[str, float]:
    """Live-service executor overhead over the batch reference driver.

    Per rep a batch ``run_scenario`` and an unpaced (``speed=0``) live
    drive of the same journaled spec drain the same events, so their wall
    ratio isolates the real-time executor's per-event machinery.  Walls
    are the min over paired reps (noise only inflates a leg), and
    ``paced_budget_ok`` trips when even the best rep is over the
    ``live.paced_overhead`` budget.  ``digest_identical`` is the
    determinism headline: the live journal equals the batch one.
    """
    import shutil
    import tempfile

    from repro.live import LiveService
    from repro.persistence import ScenarioSpec, run_scenario

    until = 20.0 if quick else 45.0
    reps = 3 if quick else 5
    spec = ScenarioSpec(name="traffic-retry-storm")
    tmp = tempfile.mkdtemp(prefix="bench-live-")
    batch_wall = live_wall = float("inf")
    best_ratio = float("inf")
    events = 0.0
    identical = True
    try:
        batch_journal = os.path.join(tmp, "batch.jsonl")
        for rep in range(reps):
            started = time.perf_counter()
            result = run_scenario(spec, journal_path=batch_journal,
                                  until=until)
            b_wall = time.perf_counter() - started
            events = float(result.system.sim.fired_count)

            out = os.path.join(tmp, f"live-{rep}")
            service = LiveService(spec, out, speed=0.0, port=None,
                                  checkpoint_every=3600.0, until=until)
            service.start()
            started = time.perf_counter()
            service.run()
            l_wall = time.perf_counter() - started

            batch_wall = min(batch_wall, b_wall)
            live_wall = min(live_wall, l_wall)
            if b_wall > 0:
                best_ratio = min(best_ratio, l_wall / b_wall)
            with open(batch_journal, "rb") as fh:
                batch_bytes = fh.read()
            with open(os.path.join(out, "journal.jsonl"), "rb") as fh:
                identical = identical and fh.read() == batch_bytes

        overhead = max(0.0, best_ratio - 1.0)
        return {
            "wall_s": batch_wall,
            "executor.wall_s": live_wall,
            "events": events,
            "events_per_s": events / live_wall if live_wall > 0 else 0.0,
            "paced_budget_ok": float(
                within("live.paced_overhead", overhead)),
            "digest_identical": float(identical),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def bench_shard(quick: bool) -> Dict[str, float]:
    """Sharded federation scaling: K=1/2/4 over the same federated spec.

    Each rep runs the identical ``smart-city-federated`` spec unsharded
    (K=1) and partitioned across 2 and 4 shard processes; per-K wall is
    the min over reps (noise only inflates a leg) and the speedups are
    ratios of those mins.  ``digest_stable`` requires every rep of every
    K to reproduce its federation digest bit-for-bit — the determinism
    headline for the parallel driver.  ``speedup_ok`` is the scaling
    tripwire: on runners with >= 4 cores ``speedup_k4`` must meet its
    row's floor; on smaller machines it records a pass, so a small-box
    baseline stays comparable to a 4-core CI check.  ``k1.digests`` counts
    the ``system_digest`` calls of one in-process K=1 run, from outside:
    with no journal, only the final digest.
    """
    from repro.persistence import ScenarioSpec, runner
    from repro.shard import ShardedSimulator

    reps = 2 if quick else 3
    params = {
        "domains": 8,
        "devices_per_domain": 2_000 if quick else 10_000,
        "horizon": 6.0 if quick else 9.0,
        "max_event_rate": 80.0 if quick else 250.0,
    }
    spec = ScenarioSpec(name="smart-city-federated", seed=47, params=params)
    walls: Dict[int, float] = {1: float("inf"), 2: float("inf"),
                               4: float("inf")}
    events: Dict[int, float] = {}
    digests: Dict[int, set] = {1: set(), 2: set(), 4: set()}
    real_digest, k1_digests = runner.system_digest, 0

    def counted_digest(system: Any) -> str:
        nonlocal k1_digests
        k1_digests += 1
        return real_digest(system)

    for _rep in range(reps):
        for shards in (1, 2, 4):
            if shards == 1:
                runner.system_digest = counted_digest
            try:
                result = ShardedSimulator(spec, shards=shards).run()
            finally:
                runner.system_digest = real_digest
            walls[shards] = min(walls[shards], result.wall_s)
            events[shards] = float(result.events)
            digests[shards].add(result.federation_digest)
    speedup_k2 = walls[1] / walls[2] if walls[2] > 0 else 0.0
    speedup_k4 = walls[1] / walls[4] if walls[4] > 0 else 0.0
    stable = all(len(seen) == 1 for seen in digests.values())
    small_host = (os.cpu_count() or 1) < 4
    metrics: Dict[str, float] = {
        "wall_s": walls[1],
        "events": events[1],
        "digest_stable": float(stable),
        "k1.digests": k1_digests / reps,
        "speedup_ok": float(small_host
                            or within("shard.speedup_k4", speedup_k4)),
    }
    for shards in (1, 2, 4):
        metrics[f"k{shards}.wall_s"] = walls[shards]
        metrics[f"k{shards}.events_per_s"] = (
            events[shards] / walls[shards] if walls[shards] > 0 else 0.0)
    metrics["speedup_k2"] = speedup_k2
    metrics["speedup_k4"] = speedup_k4
    return metrics


def _uncached_route(topology: Any, src: str, dst: str) -> Optional[List[str]]:
    """Reference routing: a fresh networkx up-link graph per call, no memo.

    The oracle shares nothing with the router under test: it reads the
    topology through its public API, in ``nx.Graph.edges()`` order (nodes
    in order, each node's neighbours in order, an edge once, from the
    endpoint walked first), and asks networkx for the path.
    """
    import networkx as nx

    if src == dst:
        return [src]
    if not topology.has_node(src) or not topology.has_node(dst):
        return None
    nodes = topology.nodes
    sub = nx.Graph()
    sub.add_nodes_from(nodes)
    walked = set()
    for u in nodes:
        for v in topology.neighbors(u):
            link = topology.link_between(u, v)
            if v not in walked and link.up:
                sub.add_edge(u, v, weight=link.profile.base_latency)
        walked.add(u)
    try:
        return nx.shortest_path(sub, src, dst, weight="weight")
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None


def bench_route(quick: bool) -> Dict[str, float]:
    """Route-on-change tripwire: steady sends vs a link flap before each.

    Both legs send the same seeded messages over one edge-cloud topology
    and time only the send loop: *steady* never touches the topology, so
    a pair's later sends hit the memo; *flap* downs and re-ups a metro
    link before every send, the worst case.  ``speedup`` is the min over
    paired reps of flap/steady (noise only inflates a leg).  The miss
    counts are exact, the noise-free half of the tripwire: a change that
    invalidates per send shows as ``steady_misses == sends``.
    ``paths_identical`` requires every cached path over a seeded
    flap/add/remove schedule to equal :func:`_uncached_route`'s, ties
    included.
    """
    from repro.core.system import IoTSystem
    from repro.network.link import LINK_PROFILES

    n_sites, per_site = (8, 40) if quick else (16, 100)
    sends = 2_000 if quick else 10_000
    reps = 3

    def build() -> Any:
        system = IoTSystem.with_edge_cloud_landscape(n_sites, per_site, seed=7)
        for node in system.topology.nodes:
            system.network.register_default(node, lambda _message: None)
        return system

    def one_leg(flap: bool) -> Tuple[float, int]:
        system = build()
        topology, send = system.topology, system.network.send
        devices = [d for members in system.sites.values() for d in members]
        rng = random.Random(11)
        # A run's traffic revisits a small set of (src, dst) pairs.
        hot = [(rng.choice(devices), rng.choice(devices + ["cloud"]))
               for _ in range(64)]
        pairs = [rng.choice(hot) for _ in range(sends)]
        link = topology.link_between("edge0", "edge1")
        started = time.perf_counter()
        for src, dst in pairs:
            if flap:
                link.set_up(False)
                link.set_up(True)
            send(src, dst, "bench.route")
        wall = time.perf_counter() - started
        system.run(until=5.0)
        return wall, topology.route_misses

    steady = flapped = float("inf")
    speedup = float("inf")
    for _ in range(reps):
        s_wall, steady_misses = one_leg(flap=False)
        f_wall, flap_misses = one_leg(flap=True)
        steady, flapped = min(steady, s_wall), min(flapped, f_wall)
        if s_wall > 0:
            speedup = min(speedup, f_wall / s_wall)

    # Correctness against the uncached reference, over topology churn.
    system = build()
    topology = system.topology
    rng = random.Random(13)
    profiles = sorted(LINK_PROFILES)
    added: List[str] = []
    identical = True
    for step in range(120 if quick else 400):
        action = rng.randrange(4)
        if action == 0:
            rng.choice(topology.links).set_up(rng.random() < 0.5)
        elif action == 1:
            a, b = rng.sample(topology.nodes, 2)
            if topology.link_between(a, b) is None:
                topology.add_link(a, b, profile=rng.choice(profiles))
        elif action == 2:
            added.append(f"extra{step}")
            topology.add_link(added[-1], rng.choice(topology.nodes),
                              profile=rng.choice(profiles))
        elif added:
            topology.remove_node(added.pop(rng.randrange(len(added))))
        pairs = [rng.sample(topology.nodes, 2) for _ in range(8)]
        for src, dst in pairs * 2:  # second pass is served from the memo
            identical &= (topology.route(src, dst)
                          == _uncached_route(topology, src, dst))
    return {
        "wall_s": steady,
        "sends": float(sends),
        "steady_us": steady / sends * 1e6,
        "flap_us": flapped / sends * 1e6,
        "speedup": speedup,
        "steady_misses": float(steady_misses),
        "flap_misses": float(flap_misses),
        "paths_identical": float(identical),
    }


def bench_digest(quick: bool) -> Dict[str, float]:
    """Digest-on-move tripwire: ``system_digest`` with idle vs moved streams.

    Both legs time ``system_digest`` on one quick federated system (26 RNG
    streams): *idle* draws nothing between calls, so every stream answers
    from its ``(moves, gauss_next)`` key; *moved* draws once from every
    stream first, the worst case.  ``moved_over_idle`` is the min over
    paired reps: a check that reads every stream's state again collapses
    it towards 1.  The counts are exact, over a seeded draw schedule (1-40
    words from a random subset of streams between digests):
    ``streams_reencoded`` stream digests recomputed, ``prefix_rebuilds``
    of them re-encoding the 624 state words (equal counts: the tail hash
    is gone), and ``state_reads`` the ``getstate()`` calls
    ``stream_digests()`` made (a moved stream's position comes from the
    words it drew, so reads track ``prefix_rebuilds``).
    ``digests_identical`` requires every digest to equal
    ``rng_state_digest``'s, the memo-free reference.
    """
    from repro.persistence import ScenarioSpec, prepare, system_digest
    from repro.simulation.rng import CountedRandom, rng_state_digest

    spec = ScenarioSpec(name="smart-city-federated", seed=47, params={
        "domains": 8, "devices_per_domain": 2_000, "horizon": 6.0,
        "max_event_rate": 80.0})
    system = prepare(spec).system
    system.run(until=1.0)
    registry = system.rngs
    streams = [registry.stream(name) for name in registry.stream_names]
    calls = 200 if quick else 1_000
    reps = 3

    def one_leg(move: bool) -> float:
        busy = 0.0
        for _ in range(calls):
            if move:
                for rng in streams:
                    rng.random()
            started = time.perf_counter()
            system_digest(system)
            busy += time.perf_counter() - started
        return busy

    system_digest(system)
    idle = moved = ratio = float("inf")
    for _ in range(reps):
        i_wall, m_wall = one_leg(move=False), one_leg(move=True)
        idle, moved = min(idle, i_wall), min(moved, m_wall)
        if i_wall > 0:
            ratio = min(ratio, m_wall / i_wall)

    # Correctness against the uncached reference, over a draw schedule.
    schedule = random.Random(17)
    reencoded, rebuilds = registry.streams_reencoded, registry.prefix_rebuilds
    identical = True
    # getstate() calls made by stream_digests() alone: the reference reads
    # every stream's state too.
    reads = state_reads = 0
    read_state = CountedRandom.getstate

    def counted_getstate(rng: Any) -> Any:
        nonlocal reads
        reads += 1
        return read_state(rng)

    CountedRandom.getstate = counted_getstate
    try:
        for _step in range(300 if quick else 1_500):
            for rng in schedule.sample(streams,
                                       schedule.randrange(len(streams))):
                for _ in range(schedule.randint(1, 40)):
                    rng.getrandbits(32)
            before = reads
            digests = registry.stream_digests()
            state_reads += reads - before
            identical &= (digests
                          == {name: rng_state_digest(registry.stream(name))
                              for name in registry.stream_names})
    finally:
        CountedRandom.getstate = read_state
    return {
        "wall_s": idle,
        "streams": float(len(streams)),
        "idle_us": idle / calls * 1e6,
        "moved_us": moved / calls * 1e6,
        "moved_over_idle": ratio,
        "streams_reencoded": float(registry.streams_reencoded - reencoded),
        "prefix_rebuilds": float(registry.prefix_rebuilds - rebuilds),
        "state_reads": float(state_reads),
        "digests_identical": float(identical),
    }


def bench_journal(quick: bool) -> Dict[str, float]:
    """Format-the-record tripwire: ``append_event`` vs serialising the record.

    Both legs write the same seeded event records (two dozen labels, as a
    run has), one ``write`` + ``flush`` each, and time that loop: *append*
    through ``JournalWriter.append_event``, *reference* as ``json.dumps``
    of the record with sorted keys, the oracle.  ``append_over_reference``
    is the min over paired reps: a writer that serialises a dict per
    record again pushes it towards 1.  ``bytes_identical`` requires the
    two files to be equal.  ``truncate_peak_kib`` cuts the journal at its
    midpoint under ``tracemalloc``: a streaming ``truncate`` holds a line.
    """
    import shutil
    import tempfile

    from repro.persistence.journal import (
        JOURNAL_VERSION,
        JournalWriter,
        truncate,
    )

    count = 20_000 if quick else 100_000
    reps = 3
    rng = random.Random(19)
    labels = [f"plane{k % 6}.step{k}" for k in range(22)] + [
        'deliver "quoted"', "temp\u00e9rature"]
    records, now = [], 0.0
    for index in range(1, count + 1):
        now += rng.expovariate(800.0)
        records.append((index, now, rng.choice(labels)))

    def encode(record: Dict[str, Any]) -> str:
        return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"

    def append_leg(path: str) -> float:
        writer = JournalWriter(path)
        started = time.perf_counter()
        for index, now, label in records:
            writer.append_event(index, now, label)
        wall = time.perf_counter() - started
        writer.abandon()
        return wall

    def reference_leg(path: str) -> float:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(encode({"type": "header", "version": JOURNAL_VERSION,
                             "scenario": {}, "digest_every": 25}))
            started = time.perf_counter()
            for index, now, label in records:
                fh.write(encode({"type": "event", "i": index, "t": now,
                                 "label": label}))
                fh.flush()
            return time.perf_counter() - started

    tmp = tempfile.mkdtemp(prefix="bench-journal-")
    try:
        paths = [os.path.join(tmp, name) for name in ("append", "reference")]
        append = reference = ratio = float("inf")
        for _ in range(reps):
            a_wall, r_wall = append_leg(paths[0]), reference_leg(paths[1])
            append, reference = min(append, a_wall), min(reference, r_wall)
            if r_wall > 0:
                ratio = min(ratio, a_wall / r_wall)
        with open(paths[0], "rb") as a_fh, open(paths[1], "rb") as r_fh:
            identical = a_fh.read() == r_fh.read()
        truncate_peak = _traced_peak_kib(
            lambda: truncate(paths[0], count // 2))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "wall_s": append,
        "records": float(count),
        "append_us": append / count * 1e6,
        "reference_us": reference / count * 1e6,
        "append_over_reference": ratio,
        "bytes_identical": float(identical),
        "truncate_peak_kib": truncate_peak,
    }


def bench_telemetry(quick: bool) -> Dict[str, float]:
    """Sampled-out telemetry on the real call sites: what 2 % spans cost a run.

    Both legs run the registered ``traffic-overload`` scenario (quick
    params under ``--quick``) and measure only ``system.run``: *bare*, and
    *sampled* after ``enable_observability(instrument=False,
    sample_rate=0.02)``, so the span call sites of ``Network``,
    ``TrafficClient`` and ``Server`` run as a real run reaches them.
    ``sampled_over_bare`` is the min over paired reps.  The per-event
    counts are ``cProfile``'s ``total_calls``, exact on one interpreter:
    ``bare_calls_per_event`` is the kernel -> transport -> traffic chain,
    ``sampled_extra_calls_per_event`` what dropping 98 % of the spans
    costs, and ``observed_extra_calls_per_event`` what the repo
    benchmark's ``traffic_observed`` telemetry costs (2 % spans, the
    kernel ``Instrument``, the overhead meter and an armed flight
    recorder).  ``spans_identical`` requires every trace the sampled run kept
    to equal, span for span, the same trace of a run that keeps
    everything; span ordinals are only drawn by kept spans, so ids are
    compared by position.
    """
    import cProfile
    import pstats

    from repro.persistence import describe_scenario, prepare

    spec = describe_scenario("traffic-overload").spec(quick=quick)
    reps = 3

    def one_run(mode: str, profiler: Optional[cProfile.Profile] = None
                ) -> Tuple[float, Any]:
        prepared = prepare(spec)
        system = prepared.system
        if mode != "bare":
            system.enable_observability(
                instrument=mode == "observed",
                sample_rate=None if mode == "full" else 0.02,
                meter=mode == "observed")
        if mode == "observed":
            system.enable_flight_recorder(spec)
        started = time.perf_counter()
        if profiler is None:
            system.run(until=prepared.horizon)
        else:
            profiler.runcall(system.run, until=prepared.horizon)
        wall = time.perf_counter() - started
        # Only spans and counts are read from here on; both survive close.
        system.close()
        return wall, system

    bare = sampled = ratio = float("inf")
    for _ in range(reps):
        b_wall, _system = one_run("bare")
        s_wall, _system = one_run("sampled")
        bare, sampled = min(bare, b_wall), min(sampled, s_wall)
        if b_wall > 0:
            ratio = min(ratio, s_wall / b_wall)

    def profiled_calls(mode: str) -> Tuple[int, Any]:
        profiler = cProfile.Profile()
        _wall, system = one_run(mode, profiler)
        return pstats.Stats(profiler).total_calls, system

    # After the timed reps, so no first-call import is counted.
    bare_calls, bare_system = profiled_calls("bare")
    sampled_calls, sampled_system = profiled_calls("sampled")
    observed_calls, _system = profiled_calls("observed")
    events = bare_system.sim.fired_count

    def traces(system: Any) -> Dict[str, List[Any]]:
        by_trace: Dict[str, List[Any]] = {}
        position: Dict[Optional[str], Optional[int]] = {None: None}
        for span in system.spans:
            members = by_trace.setdefault(span.trace_id, [])
            position[span.span_id] = len(members)
            members.append((span.name, span.category, span.start, span.end,
                            span.status, position[span.parent_id],
                            json.dumps(span.attrs, sort_keys=True,
                                       default=repr)))
        return by_trace

    _wall, full_system = one_run("full")
    full, kept = traces(full_system), traces(sampled_system)
    identical = bool(kept) and all(
        full.get(trace_id) == members for trace_id, members in kept.items())
    return {
        "wall_s": bare,
        "sampled.wall_s": sampled,
        "sampled_over_bare": ratio,
        "events": float(events),
        "bare_calls_per_event": bare_calls / events,
        "sampled_extra_calls_per_event": (sampled_calls - bare_calls) / events,
        "observed_extra_calls_per_event": (
            (observed_calls - bare_calls) / events),
        "spans_kept": float(len(sampled_system.spans)),
        "spans_sampled_out": float(sampled_system.spans.sampled_out),
        "spans_identical": float(
            identical and sampled_system.sim.fired_count == events),
    }


# What a process pays before it can run anything: the imports of the repo
# benchmark's ``load_program()`` plus the CLI.  Modules the interpreter loads
# for itself (site hooks, ``__main__``) are there before the probe starts.
_STARTUP_PROBE = """
import resource, sys, time
before = set(sys.modules)
started = time.perf_counter()
import repro.cli, repro.chaos, repro.shard, repro.observability.export
from repro.persistence import scenario_names
scenario_names()
import_s = time.perf_counter() - started
fresh = set(sys.modules) - before
loaded = {name.partition(".")[0] for name in fresh}
third_party = loaded - set(sys.stdlib_module_names) - {"repro", "__mp_main__"}
repro_modules = sum(name.partition(".")[0] == "repro" for name in fresh)
# Resident pages now, not ru_maxrss: a spawned process inherits its parent's
# peak across exec, so the peak would mostly measure this script.
with open("/proc/self/statm") as fh:
    rss_mb = int(fh.read().split()[1]) * resource.getpagesize() / 2.0 ** 20
print(import_s, rss_mb, len(sys.modules), len(third_party), repro_modules)
"""


def bench_startup(quick: bool) -> Dict[str, float]:
    """Start-up tripwire: what importing ``repro`` costs a fresh process.

    Every CLI command, test subprocess and pool worker pays it.  Each rep
    is a fresh interpreter running :data:`_STARTUP_PROBE`; ``import_s``
    and ``rss_mb`` (``/proc/self/statm``) are the fastest rep's readings
    inside it, ``wall_s`` the fastest from outside -- noise only adds.
    The module counts are exact on any machine: ``third_party_modules`` is
    gated (routing owns its graph, numpy loads on first solve), and
    ``repro_modules`` moves when a module the registry, the CLI or the
    three driver packages import grows an import, or an ``__init__``
    imports its submodules again.
    """
    reps = 5 if quick else 15
    # The probe imports the checkout this script sits in, as this script does.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.abspath(_SRC), os.environ.get("PYTHONPATH")])))
    wall = import_s = rss_mb = float("inf")
    modules = repro_modules = third_party = 0.0
    for _ in range(reps):
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _STARTUP_PROBE],
                              env=env, capture_output=True, text=True,
                              check=True)
        wall = min(wall, time.perf_counter() - started)
        rep_import, rep_rss, modules, rep_third, repro_modules = map(
            float, proc.stdout.split())
        import_s, rss_mb = min(import_s, rep_import), min(rss_mb, rep_rss)
        third_party = max(third_party, rep_third)
    return {
        "wall_s": wall,
        "import_s": import_s,
        "rss_mb": rss_mb,
        "modules": modules,
        "repro_modules": repro_modules,
        "third_party_modules": third_party,
    }


def bench_paper(quick: bool) -> Dict[str, float]:
    """The paper's claims, as ``python -m repro all`` judges them.

    Per artifact of :mod:`repro.paper`: how many claims it judges and how
    many fail (gated).  Beside them, headline numbers a
    change can move without breaking a claim, exact like every KPI: the
    ML1-ML4 resilience scores (Tables 1-2), control availability during
    the Fig. 3 outage per architecture, and the slowest Fig. 5 repair per
    loop placement.
    """
    from repro import paper
    from repro.cli import PAPER_ARTIFACTS

    metrics: Dict[str, float] = {}
    rows: Dict[str, Any] = {}
    started = time.perf_counter()
    for name, _ in PAPER_ARTIFACTS:
        tables, claims = getattr(paper, name)(quick)
        metrics[f"{name}.claims"] = float(len(claims))
        metrics[f"{name}.failed"] = float(len(paper.judge(claims).failures))
        rows.update((table["title"], table.get("rows")) for table in tables)
    metrics["wall_s"] = time.perf_counter() - started
    for level, score, *_ in rows["Tables 1-2: resilience and recovery by level"]:
        metrics[f"maturity.{level.lower()}_resilience"] = score
    for architecture, _, during, _ in rows[
            "Fig. 3: control availability around a cloud outage"]:
        metrics[f"control.during_{architecture}"] = during
    for placement, _, slowest, _ in rows[
            "Fig. 5: MAPE placement vs time-to-repair"]:
        metrics[f"mape.slowest_{placement}_s"] = float(slowest)
    return metrics


SCENARIOS: Dict[str, Callable[[bool], Dict[str, float]]] = {
    "smart_city": bench_smart_city,
    "mape_outage": bench_mape_outage,
    "kernel": bench_kernel,
    "histogram": bench_histogram,
    "persistence": bench_persistence,
    "traffic": bench_traffic,
    "security": bench_security,
    "observability": bench_observability,
    "chaos": bench_chaos,
    "live": bench_live,
    "shard": bench_shard,
    "route": bench_route,
    "digest": bench_digest,
    "journal": bench_journal,
    "telemetry": bench_telemetry,
    "startup": bench_startup,
    "paper": bench_paper,
}


# --------------------------------------------------------------------------- #
# snapshot plumbing
# --------------------------------------------------------------------------- #
def take_snapshot(quick: bool, label: str = "",
                  only: Optional[List[str]] = None) -> Dict[str, Any]:
    _RUN_PROFILES.clear()
    benches: Dict[str, Dict[str, float]] = {}
    for name, runner in SCENARIOS.items():
        if only and name not in only:
            continue
        print(f"[regress] running bench {name!r}...", flush=True)
        benches[name] = runner(quick)
    snapshot: Dict[str, Any] = {"schema": SCHEMA, "quick": quick,
                                "label": label, "benches": benches}
    if _RUN_PROFILES:
        snapshot["profiles"] = dict(_RUN_PROFILES)
    return snapshot


def next_snapshot_number(out_dir: str) -> int:
    return max([0] + [n for n, _path in numbered_snapshots(out_dir)]) + 1


def write_snapshot(snapshot: Dict[str, Any], out_dir: str,
                   number: Optional[int] = None) -> str:
    os.makedirs(out_dir, exist_ok=True)
    if number is None:
        number = next_snapshot_number(out_dir)
    path = os.path.join(out_dir, f"BENCH_{number}.json")
    write_document(path, snapshot)
    return path


# --------------------------------------------------------------------------- #
# comparison
# --------------------------------------------------------------------------- #
def compare_snapshots(
    baseline: Dict[str, Any], current: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """Tolerance-aware diff; returns one record per regression.

    Only metrics present in *both* snapshots compare (new benches are not
    regressions; removed ones surface as ``missing`` records so a bench
    cannot silently disappear from the trajectory).
    """
    regressions: List[Dict[str, Any]] = []
    base_benches = baseline.get("benches", {})
    cur_benches = current.get("benches", {})
    if baseline.get("quick") != current.get("quick"):
        regressions.append({
            "bench": "*", "metric": "quick", "kind": "incomparable",
            "baseline": baseline.get("quick"), "current": current.get("quick"),
            "detail": "cannot compare quick and full snapshots",
        })
        return regressions
    for bench, base_metrics in sorted(base_benches.items()):
        cur_metrics = cur_benches.get(bench)
        if cur_metrics is None:
            regressions.append({
                "bench": bench, "metric": "*", "kind": "missing",
                "baseline": len(base_metrics), "current": None,
                "detail": "bench present in baseline but not in current run",
            })
            continue
        for metric, base_value in sorted(base_metrics.items()):
            if metric not in cur_metrics:
                regressions.append({
                    "bench": bench, "metric": metric, "kind": "missing",
                    "baseline": base_value, "current": None,
                    "detail": "metric disappeared",
                })
                continue
            cur_value = cur_metrics[metric]
            tol, direction = tolerance_for(f"{bench}.{metric}")
            scale = max(abs(float(base_value)), _EPS)
            drift = (float(cur_value) - float(base_value)) / scale
            exceeded = (
                drift > tol if direction == "higher" else
                -drift > tol if direction == "lower" else
                abs(drift) > tol
            )
            if exceeded:
                regressions.append({
                    "bench": bench, "metric": metric, "kind": "drift",
                    "baseline": base_value, "current": cur_value,
                    "detail": f"drift {drift:+.2%} exceeds "
                              f"{direction} tolerance {tol:.0%}",
                })
    return regressions


def print_report(regressions: List[Dict[str, Any]],
                 baseline: Optional[Dict[str, Any]] = None,
                 current: Optional[Dict[str, Any]] = None) -> None:
    if not regressions:
        print("[regress] OK: no regressions against baseline")
        return
    print(f"[regress] FAIL: {len(regressions)} regression(s) detected")
    for reg in regressions:
        print(f"  - {reg['bench']}.{reg['metric']} [{reg['kind']}]: "
              f"{reg['baseline']} -> {reg['current']} ({reg['detail']})")
    if baseline is not None and current is not None:
        from repro.observability.profile import attribute_regressions

        attribution = attribute_regressions(
            [f"{reg['bench']}.{reg['metric']}: {reg['detail']}"
             for reg in regressions],
            baseline, current)
        for line in attribution:
            print(f"  * {line}")


def print_trajectory(baselines_dir: str) -> int:
    """Per-metric drift across every ``BENCH_<n>.json`` in a directory.

    Where ``--compare`` answers "did THIS change regress anything", the
    trajectory answers "where has this metric been heading" across all
    retained snapshots (oldest -> newest), using the same drift rows the
    HTML report's "Bench trajectory" section renders.  Mixed quick/full
    snapshots are refused: their sizes differ, so drift between them is
    meaningless.
    """
    from repro.observability.export import bench_trajectory_rows

    paths = [path for _n, path in numbered_snapshots(baselines_dir)]
    if not paths:
        print(f"[regress] no BENCH_*.json snapshots under {baselines_dir}")
        return 1
    snapshots = [load_snapshot(path) for path in paths]
    modes = {snap.get("quick", False) for snap in snapshots}
    if len(modes) > 1:
        print("[regress] trajectory refused: snapshots mix --quick and "
              "full runs; drift across sizes is meaningless")
        return 1
    names = " -> ".join(
        f"{os.path.basename(p)}"
        + (f" ({s.get('label')})" if s.get("label") else "")
        for p, s in zip(paths, snapshots))
    print(f"[regress] trajectory over {len(paths)} snapshot(s): {names}")
    rows = bench_trajectory_rows(snapshots)
    width = max(len(row[0]) for row in rows) if rows else 10
    print(f"  {'metric'.ljust(width)}  {'first':>14}  {'last':>14}  "
          f"{'drift':>14}  {'drift%':>8}")
    for metric, first, last, drift, pct in rows:
        def fmt(value: Any) -> str:
            return (f"{value:.6g}" if isinstance(value, (int, float))
                    else str(value))
        print(f"  {metric.ljust(width)}  {fmt(first):>14}  {fmt(last):>14}  "
              f"{fmt(drift):>14}  {pct:>8}")
    return 0


# --------------------------------------------------------------------------- #
# self-test: the harness must catch an injected regression
# --------------------------------------------------------------------------- #
def self_test(tmp_dir: str = ".") -> bool:
    """Round-trip a synthetic snapshot and verify detection behaviour.

    Identical snapshots compare clean; a perturbed deterministic KPI is
    flagged; a >2x timing blowup is flagged while a small timing wobble is
    not; a disappearing bench is flagged; a broken gate is judged.
    """
    base = {
        "schema": SCHEMA, "quick": True, "label": "self-test",
        "benches": {
            "smart_city": {"wall_s": 0.5, "availability": 0.98,
                           "faults": 2.0, "messages_delivered": 500.0},
            "kernel": {"wall_s": 0.2, "events": 20000.0,
                       "events_per_s": 100000.0},
        },
    }
    path = write_snapshot(base, tmp_dir, number=0)
    loaded = load_snapshot(path)
    os.unlink(path)
    failures: List[str] = []

    if compare_snapshots(loaded, json.loads(json.dumps(base))):
        failures.append("identical snapshots reported a regression")

    drifted = json.loads(json.dumps(base))
    drifted["benches"]["smart_city"]["availability"] = 0.90   # KPI drift
    drifted["benches"]["kernel"]["wall_s"] = 0.55             # 2.75x slower
    drifted["benches"]["smart_city"]["wall_s"] = 0.6          # wobble: fine
    found = compare_snapshots(base, drifted)
    flagged = {(r["bench"], r["metric"]) for r in found}
    if ("smart_city", "availability") not in flagged:
        failures.append("deterministic KPI drift was not detected")
    if ("kernel", "wall_s") not in flagged:
        failures.append("timing regression beyond tolerance was not detected")
    if ("smart_city", "wall_s") in flagged:
        failures.append("in-tolerance timing wobble was wrongly flagged")

    missing = json.loads(json.dumps(base))
    del missing["benches"]["kernel"]
    if not any(r["kind"] == "missing"
               for r in compare_snapshots(base, missing)):
        failures.append("disappearing bench was not detected")

    breached = json.loads(json.dumps(base))
    breached["benches"]["startup"] = {"third_party_modules": 1.0}
    if judge(base) or [metric for metric, _, _ in judge(breached)] != [
            "startup.third_party_modules"]:
        failures.append("an injected gate breach was not judged alone")

    # Attribution: a regression on a profiled bench must be blamed on the
    # plane whose wall time moved most between the snapshots' profiles.
    from repro.observability.profile import attribute_regressions

    planes = {"transport": {"count": 100, "total_ms": 10.0},
              "mape": {"count": 50, "total_ms": 5.0}}
    profiled_base = json.loads(json.dumps(base))
    profiled_base["profiles"] = {"smart_city": {
        "schema": 1, "meta": {}, "planes": planes, "labels": {}}}
    profiled_cur = json.loads(json.dumps(profiled_base))
    profiled_cur["profiles"]["smart_city"]["planes"]["mape"]["total_ms"] = 25.0
    attribution = attribute_regressions(
        ["smart_city.wall_s: drift +180.00% exceeds higher tolerance 100%"],
        profiled_base, profiled_cur)
    if not any("'mape'" in line for line in attribution):
        failures.append("profile diff did not attribute the regression "
                        f"to the slowed plane (got {attribution!r})")

    for failure in failures:
        print(f"[regress] self-test FAIL: {failure}")
    if not failures:
        print("[regress] self-test OK: injected regressions detected, "
              "clean compare stays clean")
    return not failures


# --------------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller scenario sizes (CI smoke)")
    parser.add_argument("--out", default=".",
                        help="directory for the BENCH_<n>.json snapshot")
    parser.add_argument("--number", type=int, default=None,
                        help="snapshot number (default: next free)")
    parser.add_argument("--label", default="", help="free-form snapshot label")
    parser.add_argument("--only", action="append", choices=sorted(SCENARIOS),
                        help="run only the named bench (repeatable)")
    parser.add_argument("--baseline", default=None,
                        help="compare the fresh snapshot to this baseline")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CURRENT"),
                        help="compare two existing snapshots; no benches run")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the harness detects injected regressions")
    parser.add_argument(
        "--trajectory", nargs="?", metavar="DIR", default=None,
        const=os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "baselines"),
        help="print per-metric drift across all BENCH_*.json snapshots "
             "in DIR (default: benchmarks/baselines); no benches run")
    args = parser.parse_args(argv)

    try:
        return _run(args)
    except SnapshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    if args.self_test:
        return 0 if self_test(args.out) else 1
    if args.trajectory is not None:
        return print_trajectory(args.trajectory)
    if args.compare:
        base, cur = (load_snapshot(args.compare[0]),
                     load_snapshot(args.compare[1]))
        regressions = compare_snapshots(base, cur)
        print_report(regressions, baseline=base, current=cur)
        return 1 if regressions else 0

    base = load_snapshot(args.baseline) if args.baseline else None
    snapshot = take_snapshot(args.quick, label=args.label, only=args.only)
    path = write_snapshot(snapshot, args.out, number=args.number)
    print(f"[regress] wrote {path}")
    status = print_breaches(judge(snapshot))
    if base is not None:
        regressions = compare_snapshots(base, snapshot)
        print_report(regressions, baseline=base, current=snapshot)
        status = max(status, 1 if regressions else 0)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
