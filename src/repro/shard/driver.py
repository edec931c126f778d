"""The sharded federation driver: conservative-lookahead window rounds.

:class:`ShardedSimulator` partitions a federated scenario into K shards
(one per group of administrative domains), places each shard's
:class:`~repro.shard.worker.ShardHost` on a persistent worker process,
and advances the federation in uniform lookahead windows:

* window ``W`` = the minimum inter-domain link latency (the gateway's
  ``lookahead``), the classic conservative-PDES bound: any envelope
  sent during window ``j`` arrives strictly after barrier ``B_j``, so
  exchanging mailboxes only at barriers can never schedule an event in
  a receiving shard's past;
* each round, every shard runs ``run(until=B_j)`` independently, then
  the driver routes the drained outboxes to the destination shards'
  inboxes — a null-message-free LBTS round in which the barrier itself
  is the null message, keyed off the latency floor;
* mailbox exchanges are the **only** synchronization points: shards
  never share state, and within a window they advance in parallel.

Persistence mirrors the single-system runner, per shard: a WAL journal
(`shard-<i>/journal.jsonl`), an inbox journal recording every envelope
injected into the shard (`inbox.jsonl` — written by the driver *before*
the shard consumes it), and barrier checkpoints whose state is just the
window index (shards resume by deterministic window-replay, not state
restore).  ``manifest.json`` chains the per-shard digests into one
federation digest, so an N-shard run is crash-resumable and
replay-verifiable shard by shard.

Determinism: with ``shards=1`` the base spec is passed through
*unchanged* and every domain is local, so the run — journal bytes
included — is identical to ``run_scenario`` on the same spec.  For
``shards=K`` the partition (domain ``d`` → shard ``d mod K``) fixes the
event streams; ``--workers`` only picks which process hosts which
shard, so the federation digest is stable across reruns and worker
counts.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..persistence.checkpoint import Checkpoint, CheckpointError
from ..persistence.scenarios import SCENARIO_SPEC, ScenarioSpec
from ..persistence.snapshot import state_digest
from ..schema import Field, check
from .mailbox import ENVELOPE
from .worker import ShardHost, _worker_main, dispatch, shard_paths

MANIFEST_VERSION = 1

#: Near-equality slack for barrier arithmetic (horizon hits only).
_EPS = 1e-9


class ShardWorkerError(RuntimeError):
    """An op failed inside a shard worker; carries the remote traceback."""

    def __init__(self, message: str, remote_traceback: str = "") -> None:
        super().__init__(message)
        self.remote_traceback = remote_traceback


# --------------------------------------------------------------------------- #
# Federation files
# --------------------------------------------------------------------------- #
def manifest_path(out_dir: str) -> str:
    return os.path.join(out_dir, "manifest.json")


_COUNT = Field("integer", low=0)
#: A window grid: a finite positive number (an infinite horizon never ends).
_GRID = Field("number", above=0)

#: What a resume or a verify computes with.
_MANIFEST = Field("object", fields={
    "scenario": SCENARIO_SPEC,
    "shards": Field("integer", low=1), "workers": Field("integer", low=1),
    "digest_every": _COUNT, "checkpoint_every": _COUNT,
    "lookahead": _GRID, "horizon": _GRID,
    "checkpoint_window": Field("integer", required=False, null=True, low=0),
})

#: The two fields that fix a run's barriers; an inbox header repeats them.
_WINDOW_GRID = ("lookahead", "horizon")

#: Inbox journal lines by ``type``: the header, then one record per window.
_INBOX_LINE = Field("object", fields={
    "type": Field("string", choices=("fed-header", "inbox"),
                  label="inbox line type")})
_INBOX = {
    "fed-header": Field("object", fields={name: _GRID for name in _WINDOW_GRID}),
    "inbox": Field("object", fields={
        "window": Field("integer"), "envelopes": Field("list", items=ENVELOPE)}),
}
_INBOX_NOUN = {"fed-header": "header", "inbox": "record"}


def load_manifest(out_dir: str) -> Dict[str, Any]:
    """Read a federation manifest; a bad run directory fails closed."""
    path = manifest_path(out_dir)
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:        # not JSON, or not UTF-8
        raise CheckpointError(f"{path}: unreadable manifest: {exc}") from exc
    check(manifest, _MANIFEST, f"{path}: malformed manifest", CheckpointError)
    return manifest


def federation_digest(spec_dict: Dict[str, Any], shards: int,
                      digests: List[str]) -> str:
    """The digest chain: scenario identity + per-shard digests, in order."""
    return state_digest({"scenario": spec_dict, "shards": shards,
                         "digests": list(digests)})


def _write_json_line(fh, record: Dict[str, Any]) -> None:
    fh.write(json.dumps(record, sort_keys=True,
                        separators=(",", ":")) + "\n")


def write_inbox_header(path: str, spec_dict: Dict[str, Any], shard: int,
                       shards: int, lookahead: float,
                       horizon: float) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        _write_json_line(fh, {
            "type": "fed-header", "version": MANIFEST_VERSION,
            "scenario": spec_dict, "shard": shard, "shards": shards,
            "lookahead": lookahead, "horizon": horizon,
        })


def append_inbox_record(path: str, window: int, barrier: float,
                        envelopes: List[dict]) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        _write_json_line(fh, {"type": "inbox", "window": window,
                              "barrier": barrier, "envelopes": envelopes})
        fh.flush()
        os.fsync(fh.fileno())


def _inbox_lines(path: str) -> Iterator[Tuple[str, Dict[str, Any]]]:
    """``(line, record)`` for each readable line of an inbox journal.

    Stops at a line that does not parse: a crash mid-append tears at most
    the final one, and the valid prefix ends there.  A line that parses
    but is not of :data:`_INBOX`'s shape fails closed.  A byte that is not
    UTF-8 reads as U+FFFD, as in a journal.
    """
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8", errors="replace") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                return
            where = f"{path}: line {number}: malformed"
            kind = check(record, _INBOX_LINE, f"{where} record",
                         CheckpointError)["type"]
            check(record, _INBOX[kind], f"{where} {_INBOX_NOUN[kind]}",
                  CheckpointError)
            yield line, record


def read_inbox(path: str) -> Tuple[Optional[Dict[str, Any]],
                                   Dict[int, List[dict]]]:
    """Parse an inbox journal; returns (header, {window: envelopes})."""
    header: Optional[Dict[str, Any]] = None
    inboxes: Dict[int, List[dict]] = {}
    for _line, record in _inbox_lines(path):
        if record["type"] == "fed-header":
            header = record
        else:
            inboxes[record["window"]] = record["envelopes"]
    return header, inboxes


def check_inbox_header(path: str, header: Optional[Dict[str, Any]],
                       manifest: Dict[str, Any]) -> None:
    """Refuse an inbox header whose window grid is not the manifest's.

    Both were written from the same two floats; ``load_manifest`` has
    range-checked its copy, so a header that agrees with it cannot ask
    :func:`lookahead_barriers` for a grid the run never had.
    """
    if header is None:
        return
    for name in _WINDOW_GRID:
        if header[name] != manifest[name]:
            raise CheckpointError(
                f"{path}: header {name!r} is {header[name]!r}, "
                f"the manifest says {manifest[name]!r}")


def truncate_inbox(path: str, max_window: int) -> None:
    """Drop inbox records beyond ``max_window`` (WAL recovery).

    Surviving lines are kept verbatim, so a resumed run's inbox journal
    is byte-identical to an uninterrupted run's.
    """
    if not os.path.exists(path):
        return
    kept = [line + "\n" for line, record in _inbox_lines(path)
            if not (record["type"] == "inbox"
                    and record["window"] > max_window)]
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines(kept)
    os.replace(tmp, path)


def lookahead_barriers(lookahead: float, horizon: float) -> List[float]:
    """Uniform window barriers ``j*W`` capped at the horizon."""
    if lookahead <= 0:
        raise ValueError("lookahead must be positive")
    barriers: List[float] = []
    j = 1
    while True:
        barrier = j * lookahead
        if barrier >= horizon - _EPS:
            barriers.append(horizon)
            return barriers
        barriers.append(barrier)
        j += 1


# --------------------------------------------------------------------------- #
# Worker handles (process-backed or in-process)
# --------------------------------------------------------------------------- #
class _ProcessWorker:
    """A persistent worker process speaking the pipe actor protocol."""

    def __init__(self) -> None:
        ctx = multiprocessing.get_context()
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=_worker_main, args=(child,),
                                 daemon=True)
        self._proc.start()
        child.close()

    def send(self, op: str, kwargs: Dict[str, Any]) -> None:
        self._conn.send((op, kwargs))

    def recv(self) -> Any:
        reply = self._conn.recv()
        if reply[0] == "error":
            raise ShardWorkerError(reply[1], reply[2])
        return reply[1]

    def close(self) -> None:
        try:
            if self._proc.is_alive():
                self._conn.send(("stop", {}))
                self._conn.recv()
        except (BrokenPipeError, EOFError, OSError):
            pass
        self._conn.close()
        self._proc.join(timeout=5)
        if self._proc.is_alive():
            self._proc.terminate()


class _InProcessWorker:
    """Same protocol, executed inline (``workers == 1`` fast path)."""

    def __init__(self) -> None:
        self._hosts: Dict[int, ShardHost] = {}
        self._replies: deque = deque()

    def send(self, op: str, kwargs: Dict[str, Any]) -> None:
        try:
            payload = dispatch(self._hosts, op, kwargs)
            self._replies.append(("ok", payload))
        except ShardWorkerError:
            raise
        except BaseException as exc:
            self._replies.append(("error", exc))

    def recv(self) -> Any:
        kind, payload = self._replies.popleft()
        if kind == "error":
            raise payload
        return payload

    def close(self) -> None:
        self._hosts.clear()


# --------------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------------- #
@dataclass
class ShardStats:
    """Per-shard accounting across all windows of a federation run."""

    shard: int
    domains: List[str] = field(default_factory=list)
    fired: int = 0
    events: int = 0
    wall_s: float = 0.0
    sync_wait_s: float = 0.0
    outbox_peak: int = 0
    injected: int = 0
    digest: Optional[str] = None
    journal: Optional[str] = None
    counters: Dict[str, float] = field(default_factory=dict)

    def row(self) -> Dict[str, Any]:
        return {
            "shard": self.shard, "domains": list(self.domains),
            "events": self.events, "fired": self.fired,
            "wall_s": self.wall_s, "sync_wait_s": self.sync_wait_s,
            "mailbox_peak": self.outbox_peak, "injected": self.injected,
            "digest": self.digest,
        }


@dataclass
class FederationResult:
    """Outcome of a sharded federation run."""

    spec: ScenarioSpec
    shards: int
    workers: int
    lookahead: float
    horizon: float
    windows: int
    shard_stats: List[ShardStats]
    federation_digest: Optional[str]
    wall_s: float
    complete: bool
    out_dir: Optional[str] = None
    devices: int = 0
    resumed_from_window: Optional[int] = None

    @property
    def events(self) -> int:
        return sum(stats.events for stats in self.shard_stats)

    @property
    def sync_wait_s(self) -> float:
        return sum(stats.sync_wait_s for stats in self.shard_stats)

    def shard_rows(self) -> List[Dict[str, Any]]:
        """Per-shard rows for the observability exporters."""
        return [stats.row() for stats in self.shard_stats]

    def report_summary(self) -> Dict[str, Any]:
        """The federation summary dict the exporters consume.

        Feeds ``shards=`` on
        :func:`repro.observability.export.prometheus_text` (the
        ``repro_shard_*`` families) and
        :func:`repro.observability.export.render_html_report` (the
        "Shards" section).
        """
        return {
            "shards": self.shards,
            "workers": self.workers,
            "windows": self.windows,
            "lookahead": self.lookahead,
            "horizon": self.horizon,
            "devices": self.devices,
            "wall_s": self.wall_s,
            "federation_digest": self.federation_digest,
            "rows": self.shard_rows(),
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.spec.to_dict(),
            "shards": self.shards,
            "workers": self.workers,
            "lookahead": self.lookahead,
            "horizon": self.horizon,
            "windows": self.windows,
            "events": self.events,
            "wall_s": self.wall_s,
            "sync_wait_s": self.sync_wait_s,
            "federation_digest": self.federation_digest,
            "complete": self.complete,
            "devices": self.devices,
            "resumed_from_window": self.resumed_from_window,
            "shards_detail": self.shard_rows(),
        }


# --------------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------------- #
class ShardedSimulator:
    """Run a federated scenario as K barrier-synchronized shards.

    ``workers`` defaults to one process per shard (capped at the shard
    count); ``workers <= 0`` is a hard error — the same contract as
    :func:`repro.sweep.worker_pool`.  ``checkpoint_every`` is a window count
    (0 disables checkpointing); ``stop_after_window`` aborts the run
    after that window completes, emulating a mid-run kill for the
    crash/resume tests and CI leg.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        shards: int,
        workers: Optional[int] = None,
        out_dir: Optional[str] = None,
        digest_every: int = 25,
        checkpoint_every: int = 0,
        stop_after_window: Optional[int] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if workers is None:
            workers = shards
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.spec = spec
        self.shards = shards
        self.workers = min(workers, shards)
        self.out_dir = out_dir
        self.digest_every = digest_every
        self.checkpoint_every = checkpoint_every
        self.stop_after_window = stop_after_window
        self._workers: List[Any] = []
        self._stats: List[ShardStats] = []
        self._domains: Dict[str, int] = {}
        self.lookahead: float = 0.0
        self.horizon: float = 0.0
        self.devices: int = 0

    # -- shard specs -------------------------------------------------------- #
    def shard_spec(self, shard: int) -> ScenarioSpec:
        """The spec shard ``shard`` builds.

        With one shard the base spec passes through *unchanged* — no
        shard params, so the journal header (and therefore the journal
        bytes and digest) match an unsharded ``run_scenario`` exactly.
        """
        if self.shards == 1:
            return self.spec
        params = dict(self.spec.params)
        params["shard"] = shard
        params["shards"] = self.shards
        return ScenarioSpec(name=self.spec.name, seed=self.spec.seed,
                            params=params)

    # -- worker plumbing ---------------------------------------------------- #
    def _worker_of(self, shard: int) -> Any:
        return self._workers[shard % self.workers]

    def _start_workers(self) -> None:
        if self.workers == 1:
            self._workers = [_InProcessWorker()]
        else:
            self._workers = [_ProcessWorker() for _ in range(self.workers)]

    def _stop_workers(self) -> None:
        for worker in self._workers:
            worker.close()
        self._workers = []

    def _send_all(self, op: str, kwargs_of) -> List[Any]:
        """Pipeline ``op`` to every shard; collect replies in shard order."""
        for shard in range(self.shards):
            kwargs = dict(kwargs_of(shard))
            if op != "init":
                kwargs["shard_id"] = shard
            self._worker_of(shard).send(op, kwargs)
        return [self._worker_of(shard).recv()
                for shard in range(self.shards)]

    def _init_shards(
        self,
        resume_of: Optional[Callable[[int], Dict[str, Any]]] = None,
    ) -> List[Dict[str, Any]]:
        """Build every shard's host; ``resume_of(shard)`` adds the
        ``checkpoint``/``windows`` a resumed shard fast-forwards through."""
        infos = self._send_all("init", lambda shard: {
            "spec_dict": self.shard_spec(shard).to_dict(),
            "shard_id": shard,
            "out_dir": self.out_dir,
            "digest_every": self.digest_every,
            **(resume_of(shard) if resume_of else {}),
        })
        lookaheads = {info["lookahead"] for info in infos}
        horizons = {info["horizon"] for info in infos}
        if len(lookaheads) != 1 or len(horizons) != 1:
            raise ValueError(
                f"shards disagree on lookahead/horizon: "
                f"{sorted(lookaheads)} / {sorted(horizons)}")
        self.lookahead = lookaheads.pop()
        self.horizon = horizons.pop()
        self.devices = infos[0].get("devices", 0)
        self._stats = [ShardStats(shard=info["shard"],
                                  domains=list(info["domains"]))
                       for info in infos]
        self._domains = {dom: info["shard"]
                         for info in infos for dom in info["domains"]}
        if self.out_dir:
            for stats in self._stats:
                stats.journal = shard_paths(self.out_dir,
                                            stats.shard)["journal"]
        return infos

    # -- manifest ----------------------------------------------------------- #
    def _write_manifest(self, windows: int, complete: bool,
                        checkpoint_window: Optional[int],
                        digests: Optional[List[str]] = None,
                        fired: Optional[List[int]] = None) -> None:
        if not self.out_dir:
            return
        document: Dict[str, Any] = {
            "version": MANIFEST_VERSION,
            "scenario": self.spec.to_dict(),
            "shards": self.shards,
            "workers": self.workers,
            "digest_every": self.digest_every,
            "checkpoint_every": self.checkpoint_every,
            "lookahead": self.lookahead,
            "horizon": self.horizon,
            "windows": windows,
            "domains": dict(sorted(self._domains.items())),
            "devices": self.devices,
            "complete": complete,
            "checkpoint_window": checkpoint_window,
            "shard_digests": digests,
            "shard_fired": fired,
            "federation_digest": (
                federation_digest(self.spec.to_dict(), self.shards, digests)
                if digests else None),
        }
        path = manifest_path(self.out_dir)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)

    # -- the window loop ---------------------------------------------------- #
    def _route(self, replies: List[Dict[str, Any]]) -> Dict[int, List[dict]]:
        """Route drained outboxes to their destination shards."""
        inboxes: Dict[int, List[dict]] = {i: [] for i in range(self.shards)}
        for reply in replies:
            for env in reply["outbox"]:
                inboxes[self._domains[env["dst_domain"]]].append(env)
        return inboxes

    def _run_windows(
        self,
        barriers: List[float],
        start_window: int,
        inboxes: Dict[int, List[dict]],
    ) -> Tuple[bool, Optional[int]]:
        """Drive windows ``start_window..len(barriers)``.

        Returns ``(completed, last_checkpoint_window)``; ``completed``
        is False when ``stop_after_window`` aborted the run.
        """
        total = len(barriers)
        checkpoint_window: Optional[int] = (
            start_window - 1 if start_window > 1 else None)
        for j in range(start_window, total + 1):
            barrier = barriers[j - 1]
            round_start = perf_counter()
            replies = self._send_all("window", lambda shard: {
                "barrier": barrier, "inbox": inboxes.get(shard, [])})
            round_wall = perf_counter() - round_start
            for stats, reply in zip(self._stats, replies):
                stats.fired = reply["fired"]
                stats.events += reply["events"]
                stats.wall_s += reply["wall_s"]
                stats.sync_wait_s += max(0.0, round_wall - reply["wall_s"])
                stats.outbox_peak = max(stats.outbox_peak,
                                        reply["outbox_peak"])
                stats.injected = reply["injected"]
            inboxes = self._route(replies)
            # WAL discipline: the next window's inboxes become durable
            # *before* any checkpoint that covers this window, so a
            # resume always finds the envelopes it must inject next.
            if self.out_dir and j < total:
                for shard, envelopes in inboxes.items():
                    if envelopes:
                        append_inbox_record(
                            shard_paths(self.out_dir, shard)["inbox"],
                            j + 1, barriers[j], envelopes)
            if (self.checkpoint_every and self.out_dir and j < total
                    and j % self.checkpoint_every == 0):
                cps = self._send_all("checkpoint",
                                     lambda shard: {"window": j})
                checkpoint_window = j
                self._write_manifest(
                    windows=total, complete=False, checkpoint_window=j,
                    digests=[cp["digest"] for cp in cps],
                    fired=[cp["fired"] for cp in cps])
            if self.stop_after_window == j and j < total:
                # Emulated kill: journals stay open-ended, the manifest
                # keeps whatever the last checkpoint durably recorded.
                self._send_all("abandon", lambda shard: {})
                return False, checkpoint_window
        return True, checkpoint_window

    # -- entry points ------------------------------------------------------- #
    def run(self) -> FederationResult:
        """Run the federation from t=0 to the horizon."""
        started = perf_counter()
        self._start_workers()
        try:
            self._init_shards()
            barriers = lookahead_barriers(self.lookahead, self.horizon)
            if self.out_dir:
                os.makedirs(self.out_dir, exist_ok=True)
                for shard in range(self.shards):
                    write_inbox_header(
                        shard_paths(self.out_dir, shard)["inbox"],
                        self.shard_spec(shard).to_dict(), shard,
                        self.shards, self.lookahead, self.horizon)
                self._write_manifest(windows=len(barriers), complete=False,
                                     checkpoint_window=None)
            completed, checkpoint_window = self._run_windows(
                barriers, 1, {i: [] for i in range(self.shards)})
            return self._finalize(barriers, completed, checkpoint_window,
                                  started, resumed_from=None)
        finally:
            self._stop_workers()

    @classmethod
    def resume(cls, out_dir: str,
               workers: Optional[int] = None) -> FederationResult:
        """Resume a killed federation run from its shard checkpoints."""
        manifest = load_manifest(out_dir)
        if manifest.get("complete"):
            raise CheckpointError(f"{out_dir}: run already complete")
        window = manifest.get("checkpoint_window")
        if not window:
            raise CheckpointError(
                f"{out_dir}: no shard checkpoints to resume from")
        spec = ScenarioSpec.from_dict(manifest["scenario"])
        self = cls(
            spec, manifest["shards"],
            workers=workers if workers is not None else manifest["workers"],
            out_dir=out_dir,
            digest_every=manifest["digest_every"],
            checkpoint_every=manifest["checkpoint_every"],
        )
        started = perf_counter()

        # Load every shard's checkpoint; they must agree on the window
        # (the driver checkpoints all shards at the same barrier).
        checkpoints: List[Checkpoint] = []
        for shard in range(self.shards):
            cp = Checkpoint.load(shard_paths(out_dir, shard)["checkpoint"])
            if cp.state.get("window") != window:
                raise CheckpointError(
                    f"shard {shard} checkpoint is at window "
                    f"{cp.state.get('window')}, manifest says {window}")
            checkpoints.append(cp)

        # WAL recovery of the driver-written files: drop inbox records past
        # window+1 (the last inboxes made durable before the checkpoint).
        # Each shard truncates its own journal inside ``Run.resume``; the
        # continued run regenerates both identically.
        barriers = lookahead_barriers(manifest["lookahead"],
                                      manifest["horizon"])
        recorded: Dict[int, Dict[int, List[dict]]] = {}
        for shard in range(self.shards):
            inbox_path = shard_paths(out_dir, shard)["inbox"]
            truncate_inbox(inbox_path, window + 1)
            header, recorded[shard] = read_inbox(inbox_path)
            check_inbox_header(inbox_path, header, manifest)

        self._start_workers()
        try:
            # Deterministic fast-forward: each shard window-replays to the
            # barrier, digest-verified against its checkpoint.
            self._init_shards(lambda shard: {
                "checkpoint": checkpoints[shard],
                "windows": [(barriers[j - 1], recorded[shard].get(j, []))
                            for j in range(1, window + 1)],
            })
            completed, checkpoint_window = self._run_windows(
                barriers, window + 1,
                {shard: recorded[shard].get(window + 1, [])
                 for shard in range(self.shards)})
            return self._finalize(barriers, completed, checkpoint_window,
                                  started, resumed_from=window)
        finally:
            self._stop_workers()

    def _finalize(self, barriers: List[float], completed: bool,
                  checkpoint_window: Optional[int], started: float,
                  resumed_from: Optional[int]) -> FederationResult:
        digest: Optional[str] = None
        if completed:
            finals = self._send_all("finish", lambda shard: {})
            for stats, final in zip(self._stats, finals):
                stats.digest = final["digest"]
                stats.fired = final["fired"]
                stats.counters = dict(final.get("counters", {}))
            digest = federation_digest(
                self.spec.to_dict(), self.shards,
                [stats.digest for stats in self._stats])
            self._write_manifest(
                windows=len(barriers), complete=True,
                checkpoint_window=checkpoint_window,
                digests=[stats.digest for stats in self._stats],
                fired=[stats.fired for stats in self._stats])
        return FederationResult(
            spec=self.spec, shards=self.shards, workers=self.workers,
            lookahead=self.lookahead, horizon=self.horizon,
            windows=len(barriers), shard_stats=list(self._stats),
            federation_digest=digest,
            wall_s=perf_counter() - started, complete=completed,
            out_dir=self.out_dir, devices=self.devices,
            resumed_from_window=resumed_from)
