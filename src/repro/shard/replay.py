"""Shard-by-shard replay verification of a federation run.

Each shard's WAL journal is replayed exactly the way the persistence
plane replays single-system runs — rebuild from the journaled spec,
re-drive, diff every record — except that driving is *windowed*: the
recorded inbox journal supplies the envelopes the shard received from
its peers, injected at the same lookahead barriers as in the original
run.  A shard therefore verifies in isolation, without its peers
running, which is what makes federation verification embarrassingly
parallel: :func:`verify_federation` spreads shards over the shared
:func:`repro.sweep.worker_pool` worker pool.

The federation digest is re-chained from the replayed shard digests and
compared against the manifest, so a single bit of drift in any shard
fails the whole federation check.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, Optional

from ..persistence.replay import replay_run
from ..persistence.runner import Run
from ..persistence.snapshot import system_digest
from ..sweep import worker_pool
from .driver import (
    check_inbox_header,
    federation_digest,
    load_manifest,
    lookahead_barriers,
    read_inbox,
)
from .worker import shard_paths


def replay_shard(out_dir: str, shard_id: int) -> Dict[str, Any]:
    """Replay one shard's journal against its recorded inboxes."""
    paths = shard_paths(out_dir, shard_id)
    header, inboxes = read_inbox(paths["inbox"])
    if header is not None:
        check_inbox_header(paths["inbox"], header, load_manifest(out_dir))

    def drive_windows(run: Run) -> None:
        lookahead = (float(header["lookahead"]) if header
                     else run.prepared.aux["federation"].lookahead)
        horizon = float(header["horizon"]) if header else run.horizon
        for window, barrier in enumerate(
                lookahead_barriers(lookahead, horizon), start=1):
            run.window(barrier, inboxes.get(window, []))

    report, run = replay_run(paths["journal"], drive_windows)
    try:
        digest = system_digest(run.system)
    finally:
        run.system.close()
    return {
        "shard": shard_id,
        "ok": report.ok,
        "divergence": asdict(report.divergence) if report.divergence else None,
        "records_checked": report.records_checked,
        "events": report.events_replayed,
        "digest": digest,
        "complete": report.journal_complete,
    }


def verify_federation(out_dir: str, workers: int = 1) -> Dict[str, Any]:
    """Replay every shard and re-chain the federation digest.

    ``workers > 1`` verifies shards in parallel over the shared sweep
    process pool (shard replays are stateless, so a plain executor fits
    — unlike the live run's barrier-synchronized actors).
    """
    manifest = load_manifest(out_dir)
    shards = manifest["shards"]
    expected_digests = manifest.get("shard_digests") or []
    pool = worker_pool(min(workers, shards))
    try:
        if pool is not None:
            futures = [pool.submit(replay_shard, out_dir, shard)
                       for shard in range(shards)]
            reports = [future.result() for future in futures]
        else:
            reports = [replay_shard(out_dir, shard)
                       for shard in range(shards)]
    finally:
        if pool is not None:
            pool.shutdown()

    digests = [report["digest"] for report in reports]
    chained = federation_digest(manifest["scenario"], shards, digests)
    manifest_digest: Optional[str] = manifest.get("federation_digest")
    digests_match = (expected_digests == digests if expected_digests
                     else True)
    ok = (all(report["ok"] for report in reports)
          and digests_match
          and (manifest_digest is None or chained == manifest_digest))
    return {
        "ok": ok,
        "shards": shards,
        "complete": bool(manifest.get("complete")),
        "reports": reports,
        "federation_digest": chained,
        "manifest_digest": manifest_digest,
        "shard_digests_match": digests_match,
    }
