"""Shard hosts and the worker-process actor protocol.

A :class:`ShardHost` is one shard of a federation: a
:class:`~repro.persistence.runner.Run` session (system, journal,
recorder, WAL recovery) plus the inbox the driver feeds it each window.
The federation driver either keeps hosts in-process or places them in
persistent worker processes — **not** a ``ProcessPoolExecutor``: pool
tasks have no worker affinity, and a barrier-synchronized shard is a
long-lived stateful actor that must stay on the process that built it.
Each worker runs :func:`_worker_main` over a ``multiprocessing.Pipe`` and
may host several shards (shard ``i`` lives on worker ``i % W``);
placement affects wall-clock only, never results, because every exchange
is routed by the driver at barriers.

Protocol: the driver sends ``(op, kwargs)`` tuples, the worker answers
``("ok", payload)`` or ``("error", repr, traceback)``.  Ops: ``init``
(fresh, or resumed when it carries a checkpoint and the recorded windows
to replay), ``window``, ``checkpoint``, ``finish``, ``abandon``, ``stop``.
"""

from __future__ import annotations

import os
import traceback
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from ..persistence.checkpoint import Checkpoint
from ..persistence.runner import Run
from ..persistence.scenarios import ScenarioSpec
from ..persistence.snapshot import system_digest

#: Ops that address an initialised host, by :class:`ShardHost` method name.
HOST_OPS = ("window", "checkpoint", "finish", "abandon")


def shard_dir(out_dir: str, shard_id: int) -> str:
    return os.path.join(out_dir, f"shard-{shard_id}")


def shard_paths(out_dir: str, shard_id: int) -> Dict[str, str]:
    base = shard_dir(out_dir, shard_id)
    return {
        "dir": base,
        "journal": os.path.join(base, "journal.jsonl"),
        "inbox": os.path.join(base, "inbox.jsonl"),
        "checkpoint": os.path.join(base, "checkpoint.json"),
    }


class ShardHost:
    """One shard of a federation: a run session + its gateway inbox.

    With ``checkpoint`` the shard resumes: it window-replays ``windows``
    (the recorded ``(barrier, inbox)`` pairs up to the checkpoint),
    verifies the digest, truncates its journal to the barrier and records
    on -- all inside :meth:`Run.resume`.  Otherwise it starts at t=0.
    """

    def __init__(self, spec_dict: Dict[str, Any], shard_id: int,
                 out_dir: Optional[str], digest_every: int = 25,
                 checkpoint: Optional[Checkpoint] = None,
                 windows: Optional[List[Tuple[float, List[dict]]]] = None
                 ) -> None:
        self.shard_id = shard_id
        self.out_dir = out_dir
        journal_path = None
        if out_dir is not None:
            paths = shard_paths(out_dir, shard_id)
            os.makedirs(paths["dir"], exist_ok=True)
            journal_path = paths["journal"]
        if checkpoint is not None:
            self.run = Run.resume(checkpoint, journal_path, windows=windows)
        else:
            self.run = Run.start(ScenarioSpec.from_dict(spec_dict),
                                 journal_path, digest_every=digest_every)
        self.system = self.run.system
        self.gateway = self.run.prepared.aux["federation"]

    # -- introspection ------------------------------------------------------ #
    def describe(self) -> Dict[str, Any]:
        aux = self.run.prepared.aux
        return {
            "shard": self.shard_id,
            "domains": list(aux.get("local_domains", [])),
            "lookahead": self.gateway.lookahead,
            "horizon": self.run.horizon,
            "devices": aux.get("devices_total", 0),
        }

    # -- execution ---------------------------------------------------------- #
    def window(self, barrier: float, inbox: List[dict]) -> Dict[str, Any]:
        """Inject ``inbox`` at the current barrier, run to the next one."""
        started = perf_counter()
        fired_before = self.system.sim.fired_count
        outbox = self.run.window(barrier, inbox)
        return {
            "shard": self.shard_id,
            "outbox": outbox,
            "fired": self.system.sim.fired_count,
            "events": self.system.sim.fired_count - fired_before,
            "now": self.system.sim.now,
            "wall_s": perf_counter() - started,
            "outbox_peak": self.gateway.outbox_peak,
            "injected": self.gateway.injected_total,
        }

    # -- persistence -------------------------------------------------------- #
    def checkpoint(self, window: int) -> Dict[str, Any]:
        """Save this shard's barrier checkpoint (small state, no snapshot).

        Unlike :func:`repro.persistence.runner.save_checkpoint` the state
        dict is just ``{"window": j}``: shards resume by window-replay
        (deterministic rebuild + recorded inboxes), not by state
        restoration, so a full component snapshot would be dead weight —
        and gateway delivery closures in pending events are not
        snapshot-serializable anyway.
        """
        paths = shard_paths(self.out_dir, self.shard_id)
        digest = system_digest(self.system)
        checkpoint = Checkpoint(
            scenario=self.run.spec.to_dict(),
            time=self.system.sim.now,
            fired=self.system.sim.fired_count,
            digest=digest,
            digest_every=self.run.digest_every,
            state={"window": window, "shard": self.shard_id},
        )
        checkpoint.save(paths["checkpoint"])
        return {"shard": self.shard_id, "digest": digest,
                "fired": checkpoint.fired, "window": window}

    def finish(self) -> Dict[str, Any]:
        digest = self.run.finish()
        return {"shard": self.shard_id, "digest": digest,
                "fired": self.system.sim.fired_count,
                "counters": {
                    name: value
                    for name, value in
                    sorted(self.system.metrics._counters.items())
                    if name.startswith("shard.fed.")
                }}

    def abandon(self) -> Dict[str, Any]:
        """Leave the journal open-ended (the crashed-run path)."""
        self.run.abandon()
        return {"shard": self.shard_id,
                "fired": self.system.sim.fired_count}


def dispatch(hosts: Dict[int, ShardHost], op: str,
             kwargs: Dict[str, Any]) -> Any:
    """Execute one driver op against ``hosts`` (both worker kinds)."""
    if op == "init":
        host = ShardHost(**kwargs)
        hosts[host.shard_id] = host
        return host.describe()
    if op not in HOST_OPS:
        raise ValueError(f"unknown shard op {op!r}")
    return getattr(hosts[kwargs.pop("shard_id")], op)(**kwargs)


# --------------------------------------------------------------------------- #
# Worker process loop
# --------------------------------------------------------------------------- #
def _worker_main(conn) -> None:
    """Actor loop: host shards, execute driver ops, reply over the pipe."""
    hosts: Dict[int, ShardHost] = {}
    while True:
        try:
            op, kwargs = conn.recv()
        except EOFError:
            break
        if op == "stop":
            conn.send(("ok", None))
            break
        try:
            payload = dispatch(hosts, op, kwargs)
            conn.send(("ok", payload))
        except BaseException as exc:  # surfaced driver-side with traceback
            conn.send(("error", repr(exc), traceback.format_exc()))
    conn.close()
