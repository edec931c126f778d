"""Nothing is first imported inside a run.

The repo benchmark's ``load_program()`` imports what its workloads touch
so that compiling modules is set-up, not run time; lazy package exports
(``repro/_lazy.py``) must not move an import from one to the other.  The
probe makes ``load_program()``'s four statements in a fresh interpreter,
snapshots ``sys.modules``, drives what the six workloads time -- through
the same public entry points -- and reports every ``repro`` module that
appeared afterwards.
"""

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_PROBE = """
import os
import sys
import tempfile

# benchmarks/perf/workloads.py, load_program():
import repro.chaos
import repro.observability.export
import repro.shard
from repro.persistence import scenario_names

scenario_names()
seen = set(sys.modules)


def late(phase):
    fresh = sorted(name for name in set(sys.modules) - seen
                   if name.partition(".")[0] == "repro")
    seen.update(sys.modules)
    for name in fresh:
        print(phase, name)


from repro import chaos, persistence, shard
from repro.observability import export

traffic = persistence.describe_scenario("traffic-overload").spec(quick=True)
federated = persistence.describe_scenario(
    "smart-city-federated").spec(quick=True)
scratch = tempfile.mkdtemp()

# traffic_bare / traffic_observed: build, run, every exporter.
prepared = persistence.prepare(traffic)
system = prepared.system
system.enable_observability(instrument=True, sample_rate=0.02, meter=True)
system.run(until=prepared.horizon)
system.spans.finish_open(system.sim.now)
export.write_spans_jsonl(system.spans, os.path.join(scratch, "spans.jsonl"))
export.write_events_jsonl(system.trace, os.path.join(scratch, "events.jsonl"))
export.write_chrome_trace(os.path.join(scratch, "trace.chrome.json"),
                          spans=system.spans, events=system.trace)
export.write_metrics_snapshot(system.metrics,
                              os.path.join(scratch, "metrics.json"))
export.write_profile(system.sim.instrument,
                     os.path.join(scratch, "profile.json"))
inputs = export.report_inputs(system, scenario="probe")
export.prometheus_text(
    system.metrics, histograms=inputs["histograms"],
    per_source=inputs["per_source"], telemetry=inputs["telemetry"],
    profile=inputs["profile"])
export.render_html_report(
    "probe", inputs["kpi_report"],
    availability_per_device=inputs["availability"]["per_device"],
    network_kinds=inputs["per_kind"], per_source=inputs["per_source"],
    telemetry=inputs["telemetry"], profile=inputs["profile"])
late("traffic")

# recover: checkpoint -> resume -> replay on disk.
directory = os.path.join(scratch, "recover")
persistence.run_to_checkpoint(traffic, directory,
                              at=float(traffic.params["horizon"]) / 2.0)
resumed = persistence.resume_run(directory)
assert persistence.replay_journal(resumed.journal_path).ok
late("recover")

# fed_k1: the federation driver in one kernel.
assert shard.ShardedSimulator(federated, shards=1).run().complete
late("federated")

# traffic_observed arms the flight recorder during set-up (core.system
# imports it on use: flight -> persistence -> ... -> core.system is a
# real cycle); the run after it must load nothing.
armed = persistence.prepare(traffic)
armed.system.enable_observability(instrument=True, sample_rate=0.02,
                                  meter=True)
armed.system.enable_flight_recorder(traffic)
seen.update(sys.modules)
armed.system.run(until=armed.horizon)
late("flight-armed run")

# chaos_mix: the compiler imports a spec's workload builder per case, on
# purpose; everything else a case needs is already loaded.
import repro.workloads.energy
import repro.workloads.healthcare
import repro.workloads.mobility
import repro.workloads.smart_city

seen.update(sys.modules)
sampler = chaos.SpecSampler(84, horizon=8.0)
for index in range(6):
    assert chaos.run_case(sampler.sample(index)).events > 0
late("chaos")
"""


def test_a_run_imports_no_repro_module_after_load_program():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert not proc.stdout, (
        "modules first imported inside a run (phase, module) -- import "
        "them at the top of the module that uses them, so the benchmark's "
        f"load_program() compiles them during set-up:\n{proc.stdout}")
