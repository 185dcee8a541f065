"""Parallel engine: determinism vs serial, failure isolation, jobs plumbing."""

import dataclasses

import pytest

from repro.experiments import parallel as parallel_module
from repro.experiments.parallel import (
    default_jobs,
    parallel_map,
    resolve_jobs,
    run_benchmark_cells_parallel,
    run_seeds,
    shutdown_pool,
    warm_pool,
)
from repro.experiments.runner import RunFailure, SchemeSpec
from repro.experiments.sweep import run_grid

REFS = 2500

# A scheme guaranteed to fail construction inside a worker process:
# direct encryption and predecryption are mutually exclusive.
BOGUS = SchemeSpec("bogus", direct=True, predecrypt=True)


def _metric_dicts(sweep):
    return {
        key: dataclasses.asdict(metrics) for key, metrics in sweep.results.items()
    }


class TestJobsResolution:
    def test_explicit_jobs_pass_through(self):
        assert resolve_jobs(3) == 3

    def test_zero_and_negative_clamp_to_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1

    def test_none_uses_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5
        assert default_jobs() == 5

    def test_bad_env_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert default_jobs() >= 1


class TestParallelMap:
    def test_serial_path_preserves_order(self):
        assert parallel_map(str, [3, 1, 2], jobs=1) == ["3", "1", "2"]

    def test_parallel_path_preserves_order(self):
        assert parallel_map(str, list(range(8)), jobs=2) == [
            str(i) for i in range(8)
        ]

    def test_single_item_never_spawns_a_pool(self):
        # A lambda is not picklable; jobs collapsing to 1 for one item means
        # it runs in-process and succeeds anyway.
        assert parallel_map(lambda x: x + 1, [41], jobs=4) == [42]


class TestSharedPool:
    """Pool amortization: workers start once, every batch after reuses them."""

    @pytest.fixture(autouse=True)
    def _fresh_pool_state(self):
        shutdown_pool()
        yield
        shutdown_pool()

    def test_parallel_map_reuses_the_shared_pool(self):
        pool = warm_pool(2)
        assert parallel_map(str, [1, 2, 3, 4], jobs=2) == ["1", "2", "3", "4"]
        assert parallel_module._POOL is pool  # same workers, no restart
        assert parallel_map(str, [5, 6, 7, 8], jobs=2) == ["5", "6", "7", "8"]
        assert parallel_module._POOL is pool

    def test_warm_pool_is_idempotent_for_fitting_sizes(self):
        pool = warm_pool(2)
        assert warm_pool(2) is pool
        assert warm_pool(1) is pool  # smaller fits inside the warm pool

    def test_warm_pool_grows_by_replacement(self):
        small = warm_pool(1)
        grown = warm_pool(2)
        assert grown is not small
        assert warm_pool(2) is grown

    def test_shutdown_pool_clears_and_is_idempotent(self):
        warm_pool(1)
        shutdown_pool()
        assert parallel_module._POOL is None
        shutdown_pool()  # no-op without a pool
        # The next use transparently restarts a pool.
        assert parallel_map(str, [1, 2], jobs=2) == ["1", "2"]


class TestGridEquivalence:
    def test_parallel_grid_identical_to_serial(self):
        kwargs = dict(references=REFS, seed=3)
        serial = run_grid(["gzip", "mcf"], ["oracle", "pred_regular"], **kwargs)
        parallel = run_grid(
            ["gzip", "mcf"], ["oracle", "pred_regular"], jobs=2, **kwargs
        )
        assert _metric_dicts(serial) == _metric_dicts(parallel)
        assert serial.benchmarks() == parallel.benchmarks()
        assert serial.schemes() == parallel.schemes()

    def test_grid_ordering_is_input_ordering(self):
        sweep = run_grid(
            ["mcf", "gzip"], ["pred_regular", "oracle"],
            references=REFS, jobs=2,
        )
        assert sweep.benchmarks() == ["mcf", "gzip"]
        assert sweep.schemes() == ["pred_regular", "oracle"]


class TestSnapshotEquivalence:
    def test_parallel_merged_snapshot_equals_serial(self):
        """The tentpole determinism claim: telemetry snapshots harvested in
        worker processes merge to exactly the serial grid's totals."""
        kwargs = dict(references=REFS, seed=3)
        serial = run_grid(["gzip", "mcf"], ["oracle", "pred_regular"], **kwargs)
        parallel = run_grid(
            ["gzip", "mcf"], ["oracle", "pred_regular"], jobs=2, **kwargs
        )
        assert set(serial.snapshots) == set(parallel.snapshots)
        for key in serial.snapshots:
            assert serial.snapshots[key].values == parallel.snapshots[key].values
        serial_merged = serial.merged_snapshot()
        parallel_merged = parallel.merged_snapshot()
        assert serial_merged.values == parallel_merged.values
        assert serial_merged.kinds == parallel_merged.kinds
        assert serial_merged.meta["merged_cells"] == 4

    def test_merged_snapshot_sums_counters_across_cells(self):
        sweep = run_grid(["gzip"], ["oracle", "pred_regular"], references=REFS)
        merged = sweep.merged_snapshot()
        per_cell = [
            snapshot.values["secure.controller.fetches"]
            for snapshot in sweep.snapshots.values()
        ]
        assert merged.values["secure.controller.fetches"] == sum(per_cell)

    def test_empty_grid_has_no_merged_snapshot(self):
        sweep = run_grid([], [], references=REFS)
        assert sweep.merged_snapshot() is None


class TestSeriesEquivalence:
    def test_parallel_series_identical_to_serial(self):
        """Retention determinism: snapshot series spilled inside worker
        processes match the serial run sample for sample."""
        kwargs = dict(references=REFS, seed=3, series_interval=300)
        serial = run_grid(["gzip"], ["oracle", "pred_regular"], **kwargs)
        parallel = run_grid(
            ["gzip"], ["oracle", "pred_regular"], jobs=2, **kwargs
        )
        assert set(serial.series) == set(parallel.series)
        assert serial.series  # the grid actually retained something
        for key in serial.series:
            left, right = serial.series[key], parallel.series[key]
            assert left.accesses() == right.accesses()
            assert [s.values for s in left] == [s.values for s in right]

    def test_series_final_matches_grid_snapshot(self):
        sweep = run_grid(
            ["gzip"], ["pred_regular"], references=REFS, series_interval=300
        )
        series = sweep.cell_series("gzip", "pred_regular")
        snapshot = sweep.snapshots[("gzip", "pred_regular")]
        assert series.final.values == snapshot.values


class TestFailureIsolation:
    def test_keep_going_isolates_failures_through_the_pool(self):
        sweep = run_grid(
            ["gzip", "mcf"],
            ["oracle", BOGUS],
            references=REFS,
            keep_going=True,
            retries=0,
            jobs=2,
        )
        assert len(sweep.failures) == 2  # bogus fails on both benchmarks
        assert all(failure.scheme == "bogus" for failure in sweep.failures)
        assert ("gzip", "oracle") in sweep.results
        assert ("mcf", "oracle") in sweep.results
        assert not sweep.complete

    def test_fail_fast_propagates_worker_exception(self):
        with pytest.raises(ValueError, match="direct encryption"):
            run_grid(["gzip"], [BOGUS], references=REFS, jobs=2)

    def test_run_benchmark_parallel_keep_going(self):
        cells, failures = run_benchmark_cells_parallel(
            "gzip",
            ["oracle", BOGUS],
            references=REFS,
            keep_going=True,
            retries=0,
            jobs=2,
        )
        assert "oracle" in cells
        assert len(failures) == 1
        assert isinstance(failures[0], RunFailure)


class TestRunSeeds:
    def test_parallel_seeds_match_serial(self):
        serial = run_seeds("gzip", "pred_regular", [1, 2, 3], references=REFS)
        parallel = run_seeds(
            "gzip", "pred_regular", [1, 2, 3], references=REFS, jobs=2
        )
        assert [dataclasses.asdict(m) for m in serial] == [
            dataclasses.asdict(m) for m in parallel
        ]

    def test_different_seeds_differ(self):
        runs = run_seeds("gzip", "pred_regular", [1, 2], references=REFS)
        assert dataclasses.asdict(runs[0]) != dataclasses.asdict(runs[1])
