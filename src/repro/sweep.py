"""Parameter sweeps over experiments.

Benchmark deliverables need parameter sweeps with seed replication; this
module provides the small harness: a grid of named parameters, N seeds
per cell, a run function producing a scalar metric, and per-cell
mean/min/max aggregation.

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

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


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
    workers: int = 1,
) -> SweepResult:
    """Run ``run(**params, seed=s)`` for every grid cell x seed.

    ``run`` must return the scalar metric for that execution.  Cells are
    produced in deterministic grid order (itertools.product over the
    given key order) regardless of ``workers``; with ``workers > 1`` the
    per-seed replications are dispatched to a process pool and collected
    in submission order, so the result is identical to the serial one.
    """
    if not grid:
        raise ValueError("grid must name at least one parameter")
    if not seeds:
        raise ValueError("need at least one seed")
    keys = tuple(grid.keys())
    combos = [dict(zip(keys, combo))
              for combo in itertools.product(*(grid[k] for k in keys))]

    executor = worker_pool(workers)
    cells = []
    try:
        for params in combos:
            if executor is not None:
                futures = [executor.submit(run, **params, seed=seed)
                           for seed in seeds]
                values = [float(f.result()) for f in futures]
            else:
                values = [float(run(**params, seed=seed)) for seed in seeds]
            cells.append(SweepCell(params=dict(params), values=values))
    finally:
        if executor is not None:
            executor.shutdown()
    return SweepResult(grid_keys=keys, cells=cells)
