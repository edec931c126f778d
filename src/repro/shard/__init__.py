"""``repro.shard`` — parallel multi-domain simulation (federation kernel).

Partitions an IoT landscape into administrative-domain shards, runs
each on its own :class:`~repro.simulation.kernel.Simulator` in a
separate process, and synchronizes with conservative lookahead derived
from inter-domain link latency.  Cross-shard messages flow through
explicit serializable mailboxes (:mod:`repro.shard.mailbox`) and are
the only synchronization points.

Entry points:

* :class:`~repro.shard.driver.ShardedSimulator` — windowed federation
  driver (run / resume).
* :func:`~repro.shard.replay.verify_federation` — shard-by-shard replay
  verification against the federation manifest.
* the ``smart-city-federated`` scenario
  (:mod:`repro.shard.scenario`), registered in the persistence scenario
  registry.
* CLI: ``python -m repro shard run|verify|resume``.
"""

# Eager on purpose (library packages export lazily, repro/_lazy.py):
# whoever imports this package is about to run, and ``ShardedSimulator.run``
# executes inside the benchmark's timed regions, so what it imports is
# compiled at start-up (DESIGN.md §4, "Import what runs").
from .driver import (
    FederationResult,
    ShardedSimulator,
    ShardStats,
    ShardWorkerError,
    federation_digest,
    lookahead_barriers,
    manifest_path,
)
from .gateway import FederationGateway, federation_keys
from .mailbox import Envelope
from .replay import replay_shard, verify_federation
from .scenario import prepare_smart_city_federated
from .worker import ShardHost, shard_paths

__all__ = [
    "Envelope",
    "FederationGateway",
    "FederationResult",
    "ShardHost",
    "ShardStats",
    "ShardWorkerError",
    "ShardedSimulator",
    "federation_digest",
    "federation_keys",
    "lookahead_barriers",
    "manifest_path",
    "prepare_smart_city_federated",
    "replay_shard",
    "shard_paths",
    "verify_federation",
]
