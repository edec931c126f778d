"""The cost ladder, measured from outside (ROADMAP open item 1).

One fixed input per family is run with layers switched on one at a time;
each rung is the *marginal* host microseconds per kernel event over its
base leg, so the 150x kernel -> federation ladder gets an owner per rung:

============================  ================================  ===========
rung                          leg                               base leg
============================  ================================  ===========
``ladder.kernel_us``          self-rescheduling kernel chain    (absolute)
``ladder.traffic.bare_us``    ``prepare`` + ``run``             kernel
``ladder.traffic.digest_us``  + ``RunRecorder(journal=None)``   bare
``ladder.traffic.journal_us`` ``run_scenario(journal_path=)``   digest
``ladder.traffic.obs_sampled_us``  + 2% spans, Instrument,      bare
                              meter, flight recorder
``ladder.traffic.obs_full_us``  + full-rate spans, Instrument   bare
``ladder.traffic.live_us``    ``LiveService(speed=0)``          journal
``ladder.fed.bare_us``        ``prepare`` + ``run`` (fed spec)  kernel
``ladder.fed.journal_us``     ``run_scenario(journal_path=)``   fed bare
``ladder.fed.k1_us``          ``ShardedSimulator(K=1)``         fed bare
============================  ================================  ===========

The legs take the workloads' own inputs (``traffic_bare``'s and ``fed_k1``'s
specs), so a rung is a cost at the size the workloads are measured at.
Every leg times build + run, because the drivers build internally; a rung
whose two legs build differently (``*.bare_us`` over the kernel chain,
``ladder.fed.k1_us``) therefore holds the difference in build cost too,
spread over the leg's events.  ``live.executor_us_per_event`` is the live
rung under the ``live`` layer's name.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: (metric, leg, base leg); ``None`` base reports the leg's absolute cost.
RUNGS: Tuple[Tuple[str, str, Optional[str]], ...] = (
    ("ladder.kernel_us", "kernel", None),
    ("ladder.traffic.bare_us", "traffic.bare", "kernel"),
    ("ladder.traffic.digest_us", "traffic.digest", "traffic.bare"),
    ("ladder.traffic.journal_us", "traffic.journal", "traffic.digest"),
    ("ladder.traffic.obs_sampled_us", "traffic.obs_sampled", "traffic.bare"),
    ("ladder.traffic.obs_full_us", "traffic.obs_full", "traffic.bare"),
    ("ladder.traffic.live_us", "traffic.live", "traffic.journal"),
    ("ladder.fed.bare_us", "fed.bare", "kernel"),
    ("ladder.fed.journal_us", "fed.journal", "fed.bare"),
    ("ladder.fed.k1_us", "fed.k1", "fed.bare"),
)
LADDER_METRICS = tuple(name for name, _, _ in RUNGS) + (
    "live.executor_us_per_event",)


def _legs(seed: int, smoke: bool, scratch: str
          ) -> Dict[str, Callable[[], int]]:
    """Leg name -> a callable that runs the leg and returns its event count."""
    from repro import persistence, shard
    from repro.live import LiveService
    from repro.simulation.kernel import Simulator
    from workloads import WORKLOADS

    traffic = WORKLOADS["traffic_bare"].inputs(seed, smoke)
    fed = WORKLOADS["fed_k1"].inputs(seed, smoke)
    numbers = itertools.count(1)

    def fresh(name: str) -> str:
        return os.path.join(scratch, f"{name}-{next(numbers)}")

    def bare(spec: Any) -> int:
        prepared = persistence.prepare(spec)
        prepared.system.run(until=prepared.horizon)
        return prepared.system.sim.fired_count

    def digest() -> int:
        prepared = persistence.prepare(traffic)
        recorder = persistence.RunRecorder(prepared.system, journal=None)
        prepared.system.run(until=prepared.horizon)
        recorder.finish()
        return prepared.system.sim.fired_count

    def journal(spec: Any) -> int:
        result = persistence.run_scenario(spec, journal_path=fresh("journal"))
        return result.system.sim.fired_count

    def observed(**options: Any) -> int:
        prepared = persistence.prepare(traffic)
        prepared.system.enable_observability(instrument=True, **options)
        if options:
            prepared.system.enable_flight_recorder(traffic)
        prepared.system.run(until=prepared.horizon)
        return prepared.system.sim.fired_count

    def live() -> int:
        service = LiveService(traffic, fresh("live"), speed=0.0, port=None,
                              checkpoint_every=3600.0)
        service.start()
        service.run()
        return service.system.sim.fired_count

    def k1() -> int:
        return shard.ShardedSimulator(fed, shards=1).run().events

    chain_events = bare(traffic)

    def kernel() -> int:
        sim = Simulator()

        def tick(s: Any) -> None:
            if s.fired_count < chain_events:
                s.schedule(0.001, tick, label="chain")

        sim.schedule(0.001, tick, label="chain")
        sim.run()
        return sim.fired_count

    return {
        "kernel": kernel,
        "traffic.bare": lambda: bare(traffic),
        "traffic.digest": digest,
        "traffic.journal": lambda: journal(traffic),
        "traffic.obs_sampled": lambda: observed(sample_rate=0.02, meter=True),
        "traffic.obs_full": lambda: observed(),
        "traffic.live": live,
        "fed.bare": lambda: bare(fed),
        "fed.journal": lambda: journal(fed),
        "fed.k1": k1,
    }


def measure(seed: int, smoke: bool, scratch: str, reps: int
            ) -> Dict[str, Any]:
    """Run every leg ``reps`` times; returns legs, rungs and checks.

    Legs run interleaved (all of them, then all again), and a rung is the
    median over repetitions of ``leg - base`` *within* one repetition: the
    two sides of each difference ran seconds apart, so the slow drifts of
    a shared host cancel instead of landing on one side.
    """
    legs = _legs(seed, smoke, scratch)
    samples: Dict[str, List[float]] = {name: [] for name in legs}
    events: Dict[str, int] = {}
    for _ in range(reps):
        for name, leg in legs.items():
            started = time.perf_counter()
            events[name] = leg()
            wall = time.perf_counter() - started
            samples[name].append(wall / events[name] * 1e6)
    rungs = {metric: median(
        us - (samples[base][rep] if base else 0.0)
        for rep, us in enumerate(samples[leg]))
        for metric, leg, base in RUNGS}
    rungs["live.executor_us_per_event"] = rungs["ladder.traffic.live_us"]
    traffic_events = {events[n] for n in events if n.startswith("traffic.")}
    fed_events = {events[n] for n in events if n.startswith("fed.")}
    return {
        "legs": {name: {"events": events[name],
                        "us_per_event": median(samples[name]),
                        "us_per_event_samples": samples[name]}
                 for name in legs},
        "rungs": rungs,
        # Every way of running one spec must fire the same events.
        "checks": {"traffic_legs_same_events": len(traffic_events) == 1,
                   "fed_legs_same_events": len(fed_events) == 1},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)
    os.makedirs(args.scratch, exist_ok=True)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    print(json.dumps(measure(args.seed, args.smoke, args.scratch, args.reps)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
