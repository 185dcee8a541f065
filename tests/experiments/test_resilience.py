"""Failure isolation in the experiment runner and grid sweeps."""

import pytest

import repro.experiments.runner as runner
from repro.experiments.config import TABLE1_256K
from repro.experiments.runner import (
    RunFailure,
    SchemeSpec,
    run_benchmark_cells,
    run_cell_isolated,
)
from repro.experiments.sweep import run_grid

REFS = 1500

# A spec that always fails to build (unknown predictor kind).
BROKEN = SchemeSpec("broken", predictor="no_such_kind")


class TestRunSchemeIsolated:
    """One scheme run behind :func:`run_cell_isolated`'s boundary."""

    def test_success_returns_metrics(self):
        cell = run_cell_isolated("gzip", "baseline", references=REFS)
        assert not isinstance(cell, RunFailure)
        assert cell.metrics.ipc > 0

    def test_failure_is_captured_with_attempts(self):
        outcome = run_cell_isolated("gzip", BROKEN, references=REFS, retries=1)
        assert isinstance(outcome, RunFailure)
        assert outcome.scheme == "broken"
        assert outcome.error_type == "ValueError"
        assert outcome.attempts == 2            # initial + one retry
        assert "broken" in str(outcome) or "no_such_kind" in str(outcome)

    def test_retry_once_recovers_transient_failure(self, monkeypatch):
        calls = {"n": 0}
        real = runner.run_cell

        def flaky(
            benchmark, scheme, machine=TABLE1_256K, references=None, seed=1,
            use_cache=False, tracer=None, series_interval=0,
        ):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return real(benchmark, scheme, machine, references, seed, use_cache)

        monkeypatch.setattr(runner, "run_cell", flaky)
        cell = run_cell_isolated("gzip", "baseline", references=REFS)
        assert not isinstance(cell, RunFailure)
        assert calls["n"] == 2

    def test_keyboard_interrupt_propagates(self, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(runner, "run_cell", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_cell_isolated("gzip", "baseline", references=REFS)


class TestRunBenchmarkResilient:
    """A benchmark's schemes under ``run_benchmark_cells(keep_going=True)``."""

    def test_partial_results_survive_a_bad_scheme(self):
        cells, failures = run_benchmark_cells(
            "gzip", ["baseline", BROKEN], references=REFS, keep_going=True
        )
        assert "baseline" in cells
        assert len(failures) == 1
        assert failures[0].scheme == "broken"

    def test_all_good_means_no_failures(self):
        cells, failures = run_benchmark_cells(
            "gzip", ["oracle", "baseline"], references=REFS, keep_going=True
        )
        assert set(cells) == {"oracle", "baseline"}
        assert failures == []


class TestRunGrid:
    def test_fail_fast_is_the_default(self):
        with pytest.raises(ValueError):
            run_grid(["gzip"], [BROKEN], references=REFS)

    def test_keep_going_collects_failures(self):
        sweep = run_grid(
            ["gzip"], ["baseline", BROKEN], references=REFS, keep_going=True
        )
        assert ("gzip", "baseline") in sweep.results
        assert len(sweep.failures) == 1
        assert not sweep.complete

    def test_complete_grid_reports_complete(self):
        sweep = run_grid(["gzip"], ["baseline"], references=REFS, keep_going=True)
        assert sweep.complete

    def test_table_skips_missing_normalization_reference(self):
        sweep = run_grid(["gzip"], ["baseline"], references=REFS, keep_going=True)
        # 'oracle' never ran; normalized table must not KeyError.
        figure = sweep.table(None, normalize_to="oracle")
        assert figure.series == {}
