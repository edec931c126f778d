"""A closed system leaves no reference cycle: reference counting frees it.

``IoTSystem.close()`` cuts every reference that leads back into a finished
system (DESIGN §4 "A system has an end of life"), so nothing of it waits
for a full garbage collection.  Each check runs with the collector off and
then counts the ``repro`` objects that a ``gc.DEBUG_SAVEALL`` collection
finds: every registered scenario, the repo benchmark's twelve-spec chaos
mix, a replayed journal and an interrupted run.  What readers read after a
close -- the KPI report, metric series and counters, the kernel
``Instrument``, ``network.stats`` -- must read as it did before.
"""

import gc
import hashlib
import json
import os
from collections import Counter

import pytest

from repro.chaos import SpecSampler, run_case
from repro.persistence import (
    replay_journal,
    run_scenario,
    run_to_checkpoint,
)
from repro.persistence.runner import drive
from repro.scenarios import describe_scenario, prepare, scenario_names
from repro.simulation.kernel import SimulationError

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "run_file_pins.json")


def cyclic_repro_objects(call):
    """``repro`` objects, by class, that only a full collection would free
    after ``call`` (run with the collector off)."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        call()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return Counter(type(obj).__qualname__ for obj in gc.garbage
                       if type(obj).__module__.startswith("repro."))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def readings(system):
    """What a reader reads off a finished system, as one JSON string."""
    metrics = system.metrics
    stats = system.network.stats
    return json.dumps({
        "kpis": repr(system.kpi_report()),
        "series": {name: [metrics.series(name).times,
                          metrics.series(name).values]
                   for name in metrics.series_names},
        "counters": {name: metrics.counter(name)
                     for name in metrics.counter_names},
        "instrument": system.sim.instrument.report(),
        "profile": system.profile_snapshot(),
        "network": {
            "counts": [stats.sent, stats.delivered, stats.dropped_loss,
                       stats.dropped_unreachable, stats.dropped_quarantined,
                       stats.dropped_auth, stats.dropped_intercepted,
                       stats.total_latency],
            "per_kind": {kind: hist.to_dict()
                         for kind, hist in stats.per_kind.items()},
            "per_source": stats.per_source,
        },
        "clock": [system.sim.now, system.sim.fired_count],
    }, sort_keys=True, default=repr)


@pytest.mark.parametrize("name", scenario_names())
def test_a_closed_scenario_system_is_freed_and_reads_the_same(name):
    seen = {}

    def run():
        prepared = prepare(describe_scenario(name).spec(True))
        system = prepared.system
        system.enable_observability()
        drive(system, prepared.horizon)
        seen["before"] = readings(system)
        system.close()
        seen["after"] = readings(system)

    assert cyclic_repro_objects(run) == Counter()
    assert seen["after"] == seen["before"]


def test_the_chaos_mix_leaves_no_cyclic_objects():
    sampler = SpecSampler(84, horizon=12.0)
    specs = [sampler.sample(index) for index in range(12)]
    found = cyclic_repro_objects(lambda: [run_case(spec) for spec in specs])
    assert found == Counter()


def test_a_replayed_journal_leaves_no_cyclic_objects(tmp_path):
    journal = str(tmp_path / "journal.jsonl")
    reference = run_scenario(describe_scenario("mape-outage").spec(True),
                             journal_path=journal)
    reports = []
    found = cyclic_repro_objects(
        lambda: reports.append(replay_journal(journal)))
    assert found == Counter()
    assert reports[0].ok
    reference.system.close()


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_an_interrupted_run_is_closed_and_leaves_no_cyclic_objects(tmp_path):
    """The ``checkpoint control-outage --at 45`` run of the run-file pins:
    its system refuses to run on, and its files keep their pinned bytes."""
    directory = str(tmp_path / "checkpoint")
    spec = describe_scenario("control-outage").spec(False)
    results = []
    found = cyclic_repro_objects(
        lambda: results.append(run_to_checkpoint(spec, directory, at=45.0)))
    assert found == Counter()
    (result,) = results
    with pytest.raises(SimulationError, match="closed"):
        result.system.run(until=50.0)
    with pytest.raises(SimulationError, match="closed"):
        result.system.sim.step()
    assert result.checkpoint.time == 45.0
    assert result.checkpoint.fired == result.system.sim.fired_count
    with open(PINS_PATH, encoding="utf-8") as fh:
        pins = json.load(fh)
    for name in ("checkpoint.json", "journal.jsonl"):
        assert _sha256(os.path.join(directory, name)) == (
            pins[f"checkpoint/{name}"])
    # Dropping the result frees its system by reference counting.
    assert cyclic_repro_objects(results.clear) == Counter()
