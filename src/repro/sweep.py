"""Parameter sweeps over experiments.

Benchmark deliverables need parameter sweeps with seed replication; this
module provides the small harness: a grid of named parameters, N seeds
per cell, a run function producing a scalar metric, and per-cell
mean/min/max aggregation.

The harness is crash-resilient: pass ``checkpoint_path`` and completed
cells are journaled to disk every ``checkpoint_every`` cells, so a
killed sweep resumes where it left off (cells already on disk are not
re-run).  The checkpoint embeds a fingerprint of the grid, seed list and
seed parameter; resuming against a different sweep definition is
refused rather than silently mixing results.

Seed replication can be parallelized with ``workers=N`` (a
``ProcessPoolExecutor``; the ``run`` callable must then be picklable,
i.e. a module-level function).  Results are collected in submission
order, so the output is bit-identical to a serial run.

>>> result = run_sweep(
...     run=lambda rate, seed: simulate(rate, seed),
...     grid={"rate": [0.01, 0.05]},
...     seeds=[1, 2, 3],
... )
>>> result.cell(rate=0.01).mean
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

SWEEP_CHECKPOINT_VERSION = 1


@dataclass
class SweepCell:
    """Aggregated metric values for one parameter combination.

    The statistics are ``None`` for a cell with no recorded values --
    an empty cell is "no data", not "a metric of zero".
    """

    params: Dict[str, Any]
    values: List[float] = field(default_factory=list)

    @property
    def mean(self) -> Optional[float]:
        return sum(self.values) / len(self.values) if self.values else None

    @property
    def minimum(self) -> Optional[float]:
        return min(self.values) if self.values else None

    @property
    def maximum(self) -> Optional[float]:
        return max(self.values) if self.values else None

    @property
    def spread(self) -> Optional[float]:
        if not self.values:
            return None
        return max(self.values) - min(self.values)


@dataclass
class SweepResult:
    """All cells of a sweep, addressable by parameter values."""

    grid_keys: Tuple[str, ...]
    cells: List[SweepCell]

    def cell(self, **params: Any) -> SweepCell:
        for candidate in self.cells:
            if all(candidate.params.get(k) == v for k, v in params.items()):
                return candidate
        raise KeyError(f"no cell matching {params}")

    def series(self, over: str, **fixed: Any) -> List[Tuple[Any, float]]:
        """Mean metric as a function of one parameter, others fixed.

        Cells without data are omitted (their mean is ``None``).
        """
        out = []
        for candidate in self.cells:
            if all(candidate.params.get(k) == v for k, v in fixed.items()):
                if candidate.mean is not None:
                    out.append((candidate.params[over], candidate.mean))
        return sorted(out, key=lambda pair: pair[0])

    def rows(self) -> List[List[Any]]:
        """Tabular dump: one row per cell (params..., mean, min, max)."""
        return [
            [cell.params[k] for k in self.grid_keys]
            + [cell.mean, cell.minimum, cell.maximum]
            for cell in self.cells
        ]


def _cell_key(params: Dict[str, Any]) -> str:
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def _fingerprint(grid: Dict[str, Sequence[Any]], seeds: Sequence[int],
                 seed_param: str) -> str:
    payload = json.dumps(
        {"grid": {k: list(v) for k, v in grid.items()},
         "seeds": list(seeds), "seed_param": seed_param},
        sort_keys=True, separators=(",", ":"), default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _load_checkpoint(path: str, fingerprint: str) -> Dict[str, List[float]]:
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    version = payload.get("version")
    if type(version) is not int or version != SWEEP_CHECKPOINT_VERSION:
        raise ValueError(
            f"sweep checkpoint version {version} "
            f"not supported (expected {SWEEP_CHECKPOINT_VERSION})"
        )
    if payload.get("fingerprint") != fingerprint:
        raise ValueError(
            "sweep checkpoint does not match this sweep definition "
            "(grid, seeds or seed parameter changed); refusing to resume "
            f"from {path}"
        )
    return {k: [float(v) for v in vals]
            for k, vals in payload.get("cells", {}).items()}


def _save_checkpoint(path: str, fingerprint: str,
                     done: Dict[str, List[float]]) -> None:
    payload = {
        "version": SWEEP_CHECKPOINT_VERSION,
        "fingerprint": fingerprint,
        "cells": done,
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
    os.replace(tmp, path)


def _run_cell_serial(run: Callable[..., float], params: Dict[str, Any],
                     seeds: Sequence[int], seed_param: str) -> List[float]:
    return [float(run(**params, **{seed_param: seed})) for seed in seeds]


def worker_pool(workers: int) -> Optional[ProcessPoolExecutor]:
    """Validated process-pool construction shared across parallel runners.

    Sweeps, the sharded-federation driver and shard replay verification
    all spread work over processes; this is the one place worker counts
    are validated and pools are built.  ``workers == 1`` returns ``None``
    (callers run serially in-process); ``workers <= 0`` is a hard error
    rather than a silent serial fallback.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1:
        return None
    return ProcessPoolExecutor(max_workers=workers)


def run_sweep(
    run: Callable[..., float],
    grid: Dict[str, Sequence[Any]],
    seeds: Sequence[int],
    seed_param: str = "seed",
    workers: int = 1,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: int = 1,
) -> SweepResult:
    """Run ``run(**params, seed=s)`` for every grid cell x seed.

    ``run`` must return the scalar metric for that execution.  Cells are
    produced in deterministic grid order (itertools.product over the
    given key order) regardless of ``workers``; with ``workers > 1`` the
    per-seed replications are dispatched to a process pool and collected
    in submission order, so the result is identical to the serial one.

    With ``checkpoint_path``, completed cells are persisted every
    ``checkpoint_every`` cells and skipped on a later invocation with
    the same grid/seeds -- a crashed sweep resumes instead of starting
    over.
    """
    if not grid:
        raise ValueError("grid must name at least one parameter")
    if not seeds:
        raise ValueError("need at least one seed")
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    keys = tuple(grid.keys())
    combos = [dict(zip(keys, combo))
              for combo in itertools.product(*(grid[k] for k in keys))]

    fingerprint = _fingerprint(grid, seeds, seed_param)
    done: Dict[str, List[float]] = {}
    if checkpoint_path is not None:
        done = _load_checkpoint(checkpoint_path, fingerprint)

    if workers < 1:
        raise ValueError("workers must be >= 1")
    pending = [params for params in combos if _cell_key(params) not in done]
    executor = worker_pool(workers) if pending else None
    try:
        since_save = 0
        for params in pending:
            if executor is not None:
                futures = [
                    executor.submit(run, **params, **{seed_param: seed})
                    for seed in seeds
                ]
                values = [float(f.result()) for f in futures]
            else:
                values = _run_cell_serial(run, params, seeds, seed_param)
            done[_cell_key(params)] = values
            since_save += 1
            if checkpoint_path is not None and since_save >= checkpoint_every:
                _save_checkpoint(checkpoint_path, fingerprint, done)
                since_save = 0
        if checkpoint_path is not None and since_save:
            _save_checkpoint(checkpoint_path, fingerprint, done)
    finally:
        if executor is not None:
            executor.shutdown()

    cells = [SweepCell(params=dict(params), values=list(done[_cell_key(params)]))
             for params in combos]
    return SweepResult(grid_keys=keys, cells=cells)
