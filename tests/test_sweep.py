"""Tests for the parameter-sweep harness and stochastic maturity mode."""

import pytest

from repro.core.maturity import MaturityScenario, ScenarioParams
from repro.core.vectors import MaturityLevel
from repro.sweep import SweepCell, run_sweep


def _module_metric(x, seed):
    """Module-level so it pickles into a ProcessPoolExecutor worker."""
    return x * 10.0 + seed


class TestRunSweep:
    def test_grid_times_seeds_executions(self):
        calls = []

        def run(x, y, seed):
            calls.append((x, y, seed))
            return x * 10 + y + seed / 100

        result = run_sweep(run, grid={"x": [1, 2], "y": [3, 4]},
                           seeds=[0, 1])
        assert len(result.cells) == 4
        assert len(calls) == 8
        assert all(len(cell.values) == 2 for cell in result.cells)

    def test_cell_lookup_and_statistics(self):
        result = run_sweep(lambda x, seed: x + seed,
                           grid={"x": [10]}, seeds=[1, 3])
        cell = result.cell(x=10)
        assert cell.values == [11.0, 13.0]
        assert cell.mean == 12.0
        assert cell.minimum == 11.0 and cell.maximum == 13.0
        assert cell.spread == 2.0

    def test_missing_cell_raises(self):
        result = run_sweep(lambda x, seed: x, grid={"x": [1]}, seeds=[0])
        with pytest.raises(KeyError):
            result.cell(x=99)

    def test_series_extraction(self):
        result = run_sweep(lambda x, y, seed: x * y,
                           grid={"x": [1, 2], "y": [5, 7]}, seeds=[0])
        series = result.series(over="x", y=5)
        assert series == [(1, 5.0), (2, 10.0)]

    def test_rows_tabular_dump(self):
        result = run_sweep(lambda x, seed: float(x), grid={"x": [1]}, seeds=[0])
        assert result.rows() == [[1, 1.0, 1.0, 1.0]]

    def test_empty_grid_or_seeds_raise(self):
        with pytest.raises(ValueError):
            run_sweep(lambda seed: 0.0, grid={}, seeds=[0])
        with pytest.raises(ValueError):
            run_sweep(lambda x, seed: 0.0, grid={"x": [1]}, seeds=[])
        with pytest.raises(ValueError):
            run_sweep(lambda x, seed: 0.0, grid={"x": [1]}, seeds=[0],
                      workers=0)


class TestEmptyCellStatistics:
    """An empty cell is "no data", not a perfect score of 0.0."""

    def test_statistics_are_none(self):
        cell = SweepCell(params={"x": 1})
        assert cell.mean is None
        assert cell.minimum is None
        assert cell.maximum is None
        assert cell.spread is None

    def test_series_omits_empty_cells(self):
        from repro.sweep import SweepResult

        result = SweepResult(grid_keys=("x",), cells=[
            SweepCell(params={"x": 1}, values=[2.0]),
            SweepCell(params={"x": 2}),          # no data
        ])
        assert result.series(over="x") == [(1, 2.0)]
        assert result.rows()[1] == [2, None, None, None]


class TestParallelSweep:
    def test_workers_match_serial_results(self):
        grid = {"x": [1, 2, 3]}
        serial = run_sweep(_module_metric, grid=grid, seeds=[1, 2, 3])
        parallel = run_sweep(_module_metric, grid=grid, seeds=[1, 2, 3],
                             workers=2)
        assert [c.values for c in parallel.cells] == \
            [c.values for c in serial.cells]
        assert [c.params for c in parallel.cells] == \
            [c.params for c in serial.cells]


class TestStochasticMaturityMode:
    def test_random_schedule_generated(self):
        params = ScenarioParams(n_sites=2, sensors_per_site=2, horizon=60.0,
                                seed=7, disruption_rate=0.1)
        scenario = MaturityScenario(MaturityLevel.ML3, params)
        assert len(scenario.schedule) > 0
        # Deterministic for the seed.
        scenario2 = MaturityScenario(MaturityLevel.ML3, params)
        assert [(e.time, e.fault.name) for e in scenario.schedule.entries] == \
               [(e.time, e.fault.name) for e in scenario2.schedule.entries]

    def test_runs_and_scores_in_unit_interval(self):
        params = ScenarioParams(n_sites=2, sensors_per_site=2, horizon=40.0,
                                seed=7, disruption_rate=0.1)
        report = MaturityScenario(MaturityLevel.ML4, params).run()
        assert 0.0 <= report.resilience_score <= 1.0
        assert 0.0 <= report.overall_score <= 1.0

    def test_overall_score_includes_baseline(self):
        """With no disruption at all, overall == baseline behaviour."""
        params = ScenarioParams(n_sites=2, sensors_per_site=2, horizon=40.0,
                                seed=7, disruption=False)
        report = MaturityScenario(MaturityLevel.ML4, params).run()
        baseline = [(a.weight, a.baseline) for a in report.assessments
                    if a.baseline is not None]
        assert report.overall_score == pytest.approx(
            sum(w * b for w, b in baseline) / sum(w for w, _ in baseline))
        assert report.resilience_score == 0.0   # no disruption windows
