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

Exit status: 0 clean, 1 when a comparison detects a regression (or the
self-test fails).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import random
import re
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

# Runnable as a script from a source checkout without installation.
_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

SCHEMA = 1

# --------------------------------------------------------------------------- #
# tolerances: metric name pattern -> (relative tolerance, direction)
#
# direction "higher" flags only increases (timings: slower is a
# regression, faster is not); "both" flags any drift beyond tolerance.
# Deterministic KPIs get an epsilon tolerance: the simulator guarantees
# bit-identical runs, so *any* change is a behavioural difference worth
# a human look (and an intentional one is absorbed by re-baselining).
# --------------------------------------------------------------------------- #
_EPS = 1e-9
TOLERANCES: List[Tuple[str, float, str]] = [
    (r".*wall_s$", 1.0, "higher"),          # allow 2x before flagging
    (r".*\.events_per_s$", 0.5, "lower"),   # throughput: flag 50% drops
    (r".*\.specs_per_s$", 0.5, "lower"),    # compile throughput: same rule
    (r".*\.speedup_k\d+$", 0.5, "lower"),   # shard scaling: flag 50% drops
    (r"route\.speedup$", 0.5, "lower"),     # flap/steady ratio: same rule
    # Reported, not judged: an expensive idle check lowers moved/idle and so
    # does a cheaper moved leg.  digest.state_reads (exact) and idle_us /
    # moved_us (the _us rule) are the tripwires.
    (r"digest\.moved_over_idle$", float("inf"), "both"),
    (r"journal\.append_over_reference$", 1.0, "higher"),  # as the legs' _us
    (r"telemetry\.sampled_over_bare$", 1.0, "higher"),    # as wall_s
    (r".*_us$", 1.0, "higher"),             # per-message cost: as wall_s
    (r"startup\.import_s$", 1.0, "higher"),  # start-up imports: as wall_s
    (r"startup\.rss_mb$", 0.25, "higher"),   # one third-party import is +30%
    (r"startup\.modules$", 0.10, "higher"),  # drifts with the Python version
    # Reader memory: tracemalloc bytes, exact run to run on one interpreter;
    # flag growth past a version wobble (list-building readers read 2-200x).
    (r".*_peak_kib$", 0.25, "higher"),
    (r".*", _EPS, "both"),                  # everything else: deterministic
]


def tolerance_for(metric: str) -> Tuple[float, str]:
    for pattern, tol, direction in TOLERANCES:
        if re.fullmatch(pattern, metric):
            return tol, direction
    return _EPS, "both"  # pragma: no cover - final pattern matches all


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
    """
    import shutil
    import tempfile

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
    from repro.traffic.scenarios import (
        prepare_overload,
        run_overload,
        run_retry_storm,
    )

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

    overload = run_overload("naive", horizon=horizon)
    # The recovery window opens at t=21 (heal + grace), so even the
    # quick variant must run past it.
    storm = run_retry_storm("resilient",
                            horizon=30.0 if quick else 45.0)
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


#: Sign+verify wall per sent message the security bench allows: BENCH_7's
#: 8.6 us times the 2x ``_us`` tolerance above.
AUTH_BUDGET_US = 17.2


def bench_security(quick: bool) -> Dict[str, float]:
    """Security-plane overhead and the adversary-scenario KPIs.

    The headline number is the cost of the *defense*, not the attack:
    the same byzantine-gossip topology and workload runs with no
    security wiring (attack off, plane idle), with the interceptor +
    auth path enabled on the identical honest workload (``authed``),
    and fully defended under attack (auth + trust + MAPE, attacker
    active).  Each wall is the min over reps: scheduler noise only ever
    *inflates* a leg.

    The signing/verify path has an absolute budget
    (``overhead_budget_ok``): ``auth_overhead_us`` -- sign+verify wall
    per sent message, from the min walls -- at most
    ``AUTH_BUDGET_US`` = 17.2 us, and ``auth_event_overhead`` -- kernel
    events auth adds, deterministic, zero today -- at most 15%.  17.2 is
    BENCH_7's measured 8.6 us/message times this file's 2x ``_us``
    tolerance.  The budget is absolute because a budget relative to the
    attack-off wall moves whenever the base does: change-driven routing
    made that base ~5x cheaper (11.3 ms -> 2.3 ms) while sign+verify
    itself fell (1.50 ms -> 1.26 ms), and a 15%-of-base gate read 0.0
    from BENCH_7 on at an unchanged-or-lower cost.  The 0/1 gate is a
    gross-regression tripwire (e.g. an accidentally quadratic
    encoding), not a profiler.
    """
    from repro.security.scenarios import (
        prepare_byzantine_gossip,
        run_byzantine_gossip,
        run_raft_equivocation,
        run_sybil_flood,
    )

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

    gossip = run_byzantine_gossip("defended", horizon=horizon)
    raft = run_raft_equivocation("defended")
    flood = run_sybil_flood("defended")
    return {
        "wall_s": attack_off_wall,
        "auth_on.wall_s": auth_on_wall,
        "attack_on.wall_s": attack_on_wall,
        "overhead_budget_ok": float(auth_overhead_us <= AUTH_BUDGET_US
                                    and event_overhead <= 0.15),
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
    sensor readings (the real work), every 16th event rolls the current
    poll-round span and batches the tick counter via the
    ``counter_adder`` fast path, and -- when the round's span was kept
    -- every event records a metric sample.  Three modes run
    back-to-back per rep:
    *bare* (no telemetry), *full* (every round's span and every event's
    sample recorded) and *sampled* (2%% head-based sampling, seeded).
    Like bench_security, the wall estimate is the min over paired
    (bare, sampled) reps -- scheduler noise only inflates a leg, so the
    smallest ratio is the closest observation of the intrinsic recording
    cost.  ``sampled_budget_ok`` trips when even the best rep's sampled
    run exceeds the 10%% overhead budget over bare: the tripwire for
    accidentally de-optimizing the sampled drop path.  Span/sample
    counts are deterministic (the sampler hashes (seed, root ordinal)),
    so they double as a drift check on the sampling decision stream.

    What it is not is the telemetry budget: one span per 16 events over a
    bare kernel never reaches a span call site, where a sampled run pays
    most of its cost.  ``bench_telemetry`` measures a registered scenario
    through the real call sites; this bench stays as the recorder-only
    drop-path tripwire.
    """
    from repro.observability.overhead import SpanSampler
    from repro.observability.spans import SpanRecorder
    from repro.simulation.kernel import Simulator
    from repro.simulation.metrics import MetricsRecorder

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
    return {
        "wall_s": bare_wall,
        "full.wall_s": full_wall,
        "sampled.wall_s": sampled_wall,
        "sampled_budget_ok": float(sampled_overhead <= 0.10),
        "spans_full": float(len(full_spans)),
        "spans_sampled": float(len(sampled_spans)),
        "spans_sampled_out": float(sampled_spans.sampled_out),
        "metric_points_full": float(full_metrics.total_points()),
        "metric_points_sampled": float(sampled_metrics.total_points()),
        "ticks_counted": float(sampled_metrics.counter("obs.ticks")),
    }


def bench_chaos(quick: bool) -> Dict[str, float]:
    """Chaos-plane cost: spec-compile throughput and campaign wall per run.

    Two legs.  First, ``compile.specs_per_s``: sampled specs compiled
    (full system wiring -- topology, traffic, faults, defenses,
    monitor) but never run; the number campaigns pay per case before
    any simulation happens.  Second, a small seeded campaign
    (``shrink=False``, no corpus) measuring end-to-end wall per case at
    a short horizon.  Event and violation counts are deterministic
    functions of the campaign seed, so they double as drift tripwires
    on the sampler and compiler: any change to the sampling stream or
    the compiled wiring shows up as an exact-metric diff before it can
    silently re-name every corpus bundle.
    """
    from repro.chaos import ChaosCampaign, SpecSampler, compile_spec

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
    return {
        "wall_s": compile_wall + result.wall_s,
        "compile.wall_s": compile_wall,
        "compile.specs_per_s": (n_compile / compile_wall
                                if compile_wall > 0 else 0.0),
        "campaign.wall_s": result.wall_s,
        "campaign.run_wall_s": result.wall_s / runs,
        "campaign.events": float(sum(case.events for case in result.cases)),
        "campaign.violations": float(result.violation_count),
    }


def bench_live(quick: bool) -> Dict[str, float]:
    """Live-service executor overhead over the batch reference driver.

    Pairs a batch ``run_scenario`` with an unpaced (``speed=0``) live
    drive of the same journaled spec per rep; both drain the identical
    event stream, so the wall ratio isolates the real-time executor's
    per-event machinery (peek, drain checks, housekeeping gate).  As in
    bench_security/bench_observability the estimate is the min over
    paired reps -- scheduler noise only inflates a leg -- and
    ``paced_budget_ok`` trips when even the best rep exceeds the 10%%
    overhead budget.  ``digest_identical`` is the determinism headline:
    the live journal must stay byte-identical to the batch one.
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
            "paced_budget_ok": float(overhead <= 0.10),
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
    tripwire: on runners with >= 4 cores the 4-shard run must beat the
    unsharded one by >= 1.3x; on smaller machines it records a gated
    pass, so a small-box baseline stays comparable to a 4-core CI check.

    The floor was 2.5x until routing became change-driven.  That figure
    came from a *one*-core box and was not parallelism: every send
    rebuilt the up-link graph, O(links), so a shard holding a quarter of
    the links paid a quarter per send.  With the rebuild gone both legs
    are faster but K=1 gains most -- on one 2-core box, quick mode:
    K=1 1.58 s -> 0.54-0.87 s, K=4 0.46 s -> 0.21-0.36 s, ratio 3.4x ->
    1.6-3.1x (median 2.4x over five runs).  What is left is parallel
    speedup over fixed per-shard spawn/build cost, and it is noisy at
    this size.  1.3x is 80% of the lowest of those five; more cores can
    only raise the ratio, so it stands as the floor for the >= 4-core
    gate (not re-measured on such a box: none was available).
    """
    from repro.persistence import ScenarioSpec
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
    for _rep in range(reps):
        for shards in (1, 2, 4):
            result = ShardedSimulator(spec, shards=shards).run()
            walls[shards] = min(walls[shards], result.wall_s)
            events[shards] = float(result.events)
            digests[shards].add(result.federation_digest)
    speedup_k2 = walls[1] / walls[2] if walls[2] > 0 else 0.0
    speedup_k4 = walls[1] / walls[4] if walls[4] > 0 else 0.0
    stable = all(len(seen) == 1 for seen in digests.values())
    cores = os.cpu_count() or 1
    metrics: Dict[str, float] = {
        "wall_s": walls[1],
        "events": events[1],
        "digest_stable": float(stable),
        "speedup_ok": 1.0 if cores < 4 else float(speedup_k4 >= 1.3),
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

    Both legs send the same seeded ``N`` messages over the same
    edge-cloud topology and time only the send loop.  *steady* never
    touches the topology, so every send after a pair's first is a memo
    hit; *flap* downs and re-ups one metro link before every send -- the
    worst case, which rebuilds the up-link graph per send exactly as
    every send did before the cache.  ``speedup`` is the min over paired
    reps of flap/steady (noise only inflates a leg).  The miss counts are
    deterministic and are the noise-free half of the tripwire: a change
    that invalidates per send shows as ``steady_misses == sends`` on any
    machine.  ``paths_identical`` replays a seeded flap/add/remove
    schedule and requires every cached path to equal
    :func:`_uncached_route`'s, ties included.
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

    Both legs call ``system_digest`` on the same quick federated system
    (26 RNG streams) and time only those calls.  *idle* draws nothing in
    between, so every stream is answered from its ``(moves, gauss_next)``
    key; *moved* draws once from every stream before every call -- the
    worst case, which reads and re-hashes every stream's tail.
    ``moved_over_idle`` is the min over paired reps of moved/idle (noise
    only inflates a leg): a check that reads every stream's state again
    shows as the ratio collapsing towards 1.  The counts are
    deterministic and are the noise-free half of the tripwire, taken over
    a seeded draw schedule (1-40 words from a random subset of streams
    between digests): ``streams_reencoded`` is how many stream digests
    were recomputed, ``prefix_rebuilds`` how many of those had to
    re-encode the 624 state words (one per twist) -- equal counts mean
    the tail hash is gone -- and ``state_reads`` how many ``getstate()``
    calls ``stream_digests()`` made, counted from outside: a moved
    stream's position comes from the words it drew, so reads track
    ``prefix_rebuilds``, and reads back at ``streams_reencoded`` mean every
    moved stream is paying for its 625-word tuple again.
    ``digests_identical`` requires every digest of
    that schedule to equal ``rng_state_digest``'s, the memo-free reference
    (whole state through JSON and SHA-256) kept beside the registry.
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

    Both legs write the same seeded ``N`` event records (two dozen distinct
    labels, as a run has) to a scratch file, one ``write`` + ``flush`` per
    record, and time only that loop.  *append* goes through
    ``JournalWriter.append_event``; *reference* is the expression the
    writer used before it formatted the line -- ``json.dumps`` of the
    record dict with sorted keys -- kept here as the oracle.
    ``append_over_reference`` is the min over paired reps of
    append/reference (noise only inflates a leg): a writer that builds and
    serialises a dict per record again shows as the ratio rising towards 1.
    ``bytes_identical`` is the noise-free half of the tripwire and requires
    the two files to be equal byte for byte.  ``truncate_peak_kib`` cuts
    the appended journal at its midpoint under ``tracemalloc``: a streaming
    ``truncate`` holds a line, not the journal.
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

    Both legs run the registered ``traffic-overload`` scenario (its quick
    params under ``--quick``) and measure only ``system.run``: *bare* with
    nothing switched on, *sampled* after ``enable_observability(
    instrument=False, sample_rate=0.02)`` -- the span call sites in
    ``Network.send``/``_deliver``, ``TrafficClient.submit`` and
    ``Server._complete`` as a run really reaches them, where
    ``observability.sampled_budget_ok`` times a synthetic loop that never
    leaves the recorder.  ``sampled_over_bare`` is the min over paired reps
    of sampled/bare wall (noise only inflates a leg).  The two per-event
    counts are the noise-free half of the tripwire: ``cProfile``'s
    ``total_calls`` over the same region, exact on one interpreter version
    -- ``bare_calls_per_event`` is the flat cost of the kernel -> transport
    -> traffic chain, ``sampled_extra_calls_per_event`` what a run pays to
    throw 98 % of its spans away, and a call site that builds a span's
    arguments before asking ``admit`` shows there on any machine.
    ``spans_identical`` requires every trace the sampled run kept to hold,
    span for span (name, times, status, attrs, parent position), what the
    same trace holds in a run that keeps everything; span ordinals are only
    drawn by kept spans, so ids are compared by position.
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
                instrument=False,
                sample_rate=0.02 if mode == "sampled" else None)
        started = time.perf_counter()
        if profiler is None:
            system.run(until=prepared.horizon)
        else:
            profiler.runcall(system.run, until=prepared.horizon)
        return time.perf_counter() - started, system

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

    Every CLI command, test subprocess and pool worker pays it, and since
    PR 14/16 it is the longest phase of a quick run.  Each rep is a fresh
    interpreter running :data:`_STARTUP_PROBE`; ``import_s`` is the
    fastest rep's import time measured inside it, ``wall_s`` the fastest
    rep from outside (interpreter start and exit included), ``rss_mb``
    the smallest resident set once the imports are done (Linux
    ``/proc/self/statm``) -- noise only adds to each.
    ``modules``, ``repro_modules`` and ``third_party_modules`` are counts.
    The last two are the noise-free half of the tripwire, exact on any
    machine: ``third_party_modules`` must be 0 (routing owns its graph and
    numpy loads on first solve), and ``repro_modules`` is what the
    registry, the CLI and the three driver packages import -- 84, and 120
    before package ``__init__``s exported lazily (``repro/_lazy.py``); it
    moves when a module on that path grows an import, or an ``__init__``
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
    many fail (``failed`` must be 0).  Beside them, headline numbers a
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
    numbers = [0]
    for path in glob.glob(os.path.join(out_dir, "BENCH_*.json")):
        match = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if match:
            numbers.append(int(match.group(1)))
    return max(numbers) + 1


def write_snapshot(snapshot: Dict[str, Any], out_dir: str,
                   number: Optional[int] = None) -> str:
    os.makedirs(out_dir, exist_ok=True)
    if number is None:
        number = next_snapshot_number(out_dir)
    path = os.path.join(out_dir, f"BENCH_{number}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_snapshot(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        snapshot = json.load(handle)
    if snapshot.get("schema") != SCHEMA:
        raise ValueError(f"{path}: unsupported snapshot schema "
                         f"{snapshot.get('schema')!r} (want {SCHEMA})")
    return snapshot


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

    paths = sorted(
        glob.glob(os.path.join(baselines_dir, "BENCH_*.json")),
        key=lambda p: int(re.fullmatch(
            r"BENCH_(\d+)\.json", os.path.basename(p)).group(1)),
    )
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

    Three properties: identical snapshots compare clean; a perturbed
    deterministic KPI is flagged; a >2x timing blowup is flagged while a
    small timing wobble is not.
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

    snapshot = take_snapshot(args.quick, label=args.label, only=args.only)
    path = write_snapshot(snapshot, args.out, number=args.number)
    print(f"[regress] wrote {path}")
    if args.baseline:
        base = load_snapshot(args.baseline)
        regressions = compare_snapshots(base, snapshot)
        print_report(regressions, baseline=base, current=snapshot)
        return 1 if regressions else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
