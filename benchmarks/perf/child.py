"""One repetition of one workload, in a process of its own.

``run.py`` starts this file once per (workload, repetition) so that set-up
time and peak memory belong to exactly one run.  The last line of standard
output is one JSON object: the four measured end-to-end metrics, the
correctness checks, the counts that must repeat exactly and, for a traced
run, the per-layer metrics and the path of the span file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: Stand-in for ``--spawned`` when the file is run by hand.
_STARTED = time.monotonic()


class RunContext:
    """What a workload may use besides ``repro``: scratch space and spans."""

    def __init__(self, scratch: str, tracer: Optional[Any]) -> None:
        self.scratch = scratch
        self.tracer = tracer
        #: Every PreparedRun the program built (traced runs only).
        self.prepared: List[Any] = []

    def path(self, name: str) -> str:
        return os.path.join(self.scratch, name)

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        """Call ``fn``; under trace, as a span called ``name``."""
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.span(name, fn, *args, **kwargs)

    def trace_observer(self, system: Any, name: str) -> None:
        """Under trace, time the kernel's post-event observer as ``name``."""
        if self.tracer is not None and system.sim.on_event is not None:
            system.sim.on_event = self.tracer.wrap(name, system.sim.on_event)

    def on_prepared(self, prepared: Any) -> None:
        from repro.observability import Instrument

        if not any(prepared is seen for seen in self.prepared):
            self.prepared.append(prepared)
            if prepared.system.sim.instrument is None:
                prepared.system.sim.instrument = Instrument()


def _cpu_seconds() -> float:
    """User+system seconds of this process and the workers it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mib() -> float:
    """Largest resident set of this process or any reaped worker (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run_once(name: str, seed: int, smoke: bool, trace: bool, scratch: str,
             spawned: float, slowdown: float = 0.0) -> Dict[str, Any]:
    """Set up, time and check one repetition; never raises."""
    from workloads import WORKLOADS, load_program

    workload = WORKLOADS[name]
    result: Dict[str, Any] = {
        "workload": name, "seed": seed, "smoke": smoke, "trace": int(trace),
        "metrics": {}, "checks": {}, "exact": {}, "facts": {}, "layers": {},
        "spans_file": None, "error": None,
    }
    tracer = None
    try:
        src = os.path.join(ROOT, "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        load_program()
        if trace:
            import layers
            from tracing import Tracer

            tracer = Tracer(run_id=f"{name}:{seed}")
        ctx = RunContext(scratch, tracer)
        if tracer is not None:
            layers.install(tracer, ctx.on_prepared)
        state = workload.setup(ctx, workload.inputs(seed, smoke))

        setup_s = time.monotonic() - spawned
        cpu_before = _cpu_seconds()
        started = time.perf_counter()
        outcome = workload.run(ctx, state)
        if slowdown:
            # The self-test's injected regression: burn a fixed share of
            # the measured region on the benchmark's side of the boundary.
            until = time.perf_counter() + slowdown * (
                time.perf_counter() - started)
            while time.perf_counter() < until:
                pass
        wall_s = time.perf_counter() - started
        cpu_s = _cpu_seconds() - cpu_before
        if tracer is not None:
            # Checks call into the program too; they are not the workload.
            tracer.unpatch_all()

        result["metrics"] = {"setup_s": setup_s, "wall_s": wall_s,
                             "cpu_s": cpu_s, "peak_rss_mb": _peak_rss_mib()}
        result["checks"], result["exact"] = workload.verify(ctx, state,
                                                            outcome)
        result["facts"] = workload.facts(ctx, state, outcome)
        if tracer is not None:
            result["layers"] = layers.derive(tracer, ctx.prepared,
                                             result["facts"], wall_s)
            result["spans_file"] = ctx.path("bench-spans.jsonl")
            tracer.write(result["spans_file"])
    except Exception:  # boundary: report the failure, fail every check
        result["error"] = traceback.format_exc()
        result["checks"] = {check: False
                            for check in workload.check_names(trace)}
    finally:
        if tracer is not None:
            tracer.unpatch_all()
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--spawned", type=float, default=_STARTED,
                        help="parent's time.monotonic() just before spawn")
    parser.add_argument("--slowdown", type=float, default=0.0)
    args = parser.parse_args(argv)
    os.makedirs(args.scratch, exist_ok=True)
    result = run_once(args.workload, args.seed, args.smoke, bool(args.trace),
                      args.scratch, args.spawned, args.slowdown)
    print(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
