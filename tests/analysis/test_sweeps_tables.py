"""Unit tests for sweeps and table rendering (repro.analysis)."""

import pytest

from repro.analysis.sweeps import collect, enumerate_sweep_specs, monte_carlo, sweep
from repro.analysis.tables import format_table
from repro.errors import TrialFailed
from repro.obs import PHASE_POOL_DISPATCH, PHASE_POOL_REASSEMBLY, PhaseTimers


def fake_task(seed, n=0, alpha=0.0):
    return {"seed": seed, "n": n, "alpha": alpha}


def fail_on_odd_seed(seed, **point):
    if seed % 2:
        raise ValueError(f"odd seed {seed}")
    return seed


class TestMonteCarlo:
    def test_runs_trials_with_distinct_seeds(self):
        results = monte_carlo(fake_task, trials=5, master_seed=1, n=8)
        assert len(results) == 5
        assert len({r["seed"] for r in results}) == 5

    def test_reproducible(self):
        a = monte_carlo(fake_task, trials=3, master_seed=1)
        b = monte_carlo(fake_task, trials=3, master_seed=1)
        assert a == b

    def test_validates_trials(self):
        with pytest.raises(ValueError):
            monte_carlo(fake_task, trials=0)


class TestSweep:
    def test_crosses_grid(self):
        rows = sweep(fake_task, {"n": [8, 16], "alpha": [0.5, 1.0]}, trials=2)
        points = [point for point, _ in rows]
        assert len(points) == 4
        assert {"n": 8, "alpha": 0.5} in points

    def test_point_seeds_stable_under_grid_growth(self):
        small = sweep(fake_task, {"n": [8]}, trials=2)
        large = sweep(fake_task, {"n": [8, 16]}, trials=2)
        assert small[0][1] == large[0][1]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep(fake_task, {})

    def test_collect_with_dict_reducer(self):
        rows = sweep(fake_task, {"n": [8]}, trials=3)
        flat = collect(rows, lambda results: {"count": len(results)})
        assert flat == [{"n": 8, "count": 3}]

    def test_collect_with_scalar_reducer(self):
        rows = sweep(fake_task, {"n": [8]}, trials=3)
        flat = collect(rows, len)
        assert flat == [{"n": 8, "value": 3}]


class TestFailureContract:
    """``sweep``/``monte_carlo`` raise one error, whatever ``jobs`` is."""

    GRID = {"n": [8, 16]}

    def _raised(self, call):
        with pytest.raises(TrialFailed) as excinfo:
            call()
        failure = excinfo.value
        # The trial's own exception rides along, traceback and all.
        assert isinstance(failure.__cause__, ValueError)
        assert str(failure.__cause__) == f"odd seed {failure.spec.seed}"
        return failure.trial_index, failure.spec, str(failure)

    def _expected(self, grid):
        # The lowest-index trial whose derived seed is odd.
        return next(
            spec
            for spec in enumerate_sweep_specs(
                fail_on_odd_seed, grid, trials=3, master_seed=1
            )
            if spec.seed % 2
        )

    def test_sweep_raises_the_lowest_failed_trial_at_every_jobs(self):
        raised = [
            self._raised(
                lambda: sweep(
                    fail_on_odd_seed, self.GRID, trials=3, master_seed=1, jobs=jobs
                )
            )
            for jobs in (1, 2)
        ]
        assert raised[0] == raised[1]
        index, spec, message = raised[0]
        assert spec == self._expected(self.GRID)
        assert index == spec.index
        assert f"ValueError: odd seed {spec.seed}" in message

    def test_monte_carlo_raises_the_same_error_at_every_jobs(self):
        raised = [
            self._raised(
                lambda: monte_carlo(
                    fail_on_odd_seed, trials=3, master_seed=1, jobs=jobs, n=8
                )
            )
            for jobs in (1, 2)
        ]
        assert raised[0] == raised[1]
        index, spec, message = raised[0]
        # The one-point case of sweep: the same spec the grid {n: [8]} fails on.
        assert spec == self._expected({"n": [8]})
        assert index == spec.index
        assert f"ValueError: odd seed {spec.seed}" in message

    def test_empty_point_runs(self):
        results = monte_carlo(lambda seed: seed, trials=2)
        assert len(results) == 2

    def test_parallel_sweep_times_pool_phases(self):
        timers = PhaseTimers()
        sweep(fake_task, {"n": [8, 16]}, trials=2, jobs=2, timers=timers)
        assert timers.totals[PHASE_POOL_DISPATCH] > 0
        assert timers.totals[PHASE_POOL_REASSEMBLY] > 0


class TestFormatTable:
    def test_renders_columns_aligned(self):
        text = format_table(
            [{"a": 1, "b": "xx"}, {"a": 222, "b": "y"}], columns=["a", "b"]
        )
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len({len(line) for line in lines[-2:]}) == 1  # aligned rows

    def test_bool_and_float_formatting(self):
        text = format_table([{"ok": True, "x": 0.123456, "big": 123456.0}])
        assert "yes" in text
        assert "0.123" in text
        assert "1.23e+05" in text

    def test_empty_rows(self):
        assert "(no rows)" in format_table([], title="t")

    def test_title_rendered(self):
        assert format_table([{"a": 1}], title="hello").startswith("hello")

    def test_missing_column_values_blank(self):
        text = format_table([{"a": 1}, {"b": 2}], columns=["a", "b"])
        assert text
