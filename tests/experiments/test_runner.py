"""Experiment runner: schemes, controller wiring, preseeding, caching."""

import pytest

from repro.experiments.config import TABLE1_256K
from repro.experiments.runner import (
    SCHEMES,
    SchemeSpec,
    apply_preseed,
    get_miss_trace,
    make_controller,
    run_benchmark,
    run_cell,
    run_scheme,
)
from repro.secure.predictors import (
    ContextOtpPredictor,
    NullPredictor,
    RegularOtpPredictor,
    TwoLevelOtpPredictor,
)

REFS = 3000


class TestSchemes:
    def test_catalog_contains_paper_schemes(self):
        for name in (
            "oracle",
            "baseline",
            "seqcache_4k",
            "seqcache_128k",
            "seqcache_512k",
            "pred_regular",
            "pred_two_level",
            "pred_context",
            "pred_plus_cache_32k",
        ):
            assert name in SCHEMES

    def test_predictor_types(self):
        assert isinstance(
            make_controller(SCHEMES["baseline"]).predictor, NullPredictor
        )
        assert isinstance(
            make_controller(SCHEMES["pred_regular"]).predictor, RegularOtpPredictor
        )
        assert isinstance(
            make_controller(SCHEMES["pred_two_level"]).predictor, TwoLevelOtpPredictor
        )
        assert isinstance(
            make_controller(SCHEMES["pred_context"]).predictor, ContextOtpPredictor
        )

    def test_seqcache_sizes(self):
        controller = make_controller(SCHEMES["seqcache_128k"])
        assert controller.seqcache.size_bytes == 128 * 1024
        assert make_controller(SCHEMES["baseline"]).seqcache is None

    def test_oracle_flag(self):
        assert make_controller(SCHEMES["oracle"]).oracle

    def test_unknown_predictor_kind(self):
        with pytest.raises(ValueError, match="unknown predictor"):
            make_controller(SchemeSpec("bogus", predictor="bogus"))

    def test_root_history_scheme_enables_history(self):
        controller = make_controller(SCHEMES["pred_regular_history"])
        assert controller.page_table.history_depth == 1
        assert controller.predictor.use_root_history

    def test_static_scheme_is_not_adaptive(self):
        controller = make_controller(SCHEMES["pred_regular_static"])
        assert not controller.predictor.adaptive


class TestMissTraceCache:
    def test_identical_key_returns_same_object(self):
        a, _ = get_miss_trace("gzip", TABLE1_256K, references=REFS, seed=3)
        b, _ = get_miss_trace("gzip", TABLE1_256K, references=REFS, seed=3)
        assert a is b

    def test_different_machine_different_trace(self):
        from repro.experiments.config import TABLE1_1M

        a, _ = get_miss_trace("gzip", TABLE1_256K, references=REFS, seed=3)
        b, _ = get_miss_trace("gzip", TABLE1_1M, references=REFS, seed=3)
        assert a is not b
        assert a.l2_misses >= b.l2_misses  # bigger L2 filters more


class TestSharedWorkload:
    def test_machines_share_one_workload_and_preseed(self, monkeypatch):
        from repro.experiments import runner
        from repro.experiments.config import TABLE1_1M

        runner._MISS_TRACE_CACHE.clear()
        built = []
        original = runner.build_workload

        def counting(*args, **kwargs):
            built.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(runner, "build_workload", counting)
        small, small_preseed = get_miss_trace("vpr", TABLE1_256K, REFS, seed=5)
        large, large_preseed = get_miss_trace("vpr", TABLE1_1M, REFS, seed=5)
        assert small is not large
        assert small_preseed is large_preseed
        assert len(built) == 1
        runner._MISS_TRACE_CACHE.clear()
        assert not runner._MISS_TRACE_CACHE.workloads
        get_miss_trace("vpr", TABLE1_1M, REFS, seed=5)
        assert len(built) == 2

    def test_front_end_builds_no_per_reference_objects(self, monkeypatch):
        # Synthesis and filtering work on flat columns: no MemoryAccess,
        # AccessOutcome or CacheAccessResult per reference.
        from repro.cpu.trace import MemoryAccess
        from repro.experiments import runner
        from repro.memory.cache import CacheAccessResult
        from repro.memory.hierarchy import AccessOutcome

        runner._MISS_TRACE_CACHE.clear()
        made = []
        for cls in (MemoryAccess, AccessOutcome, CacheAccessResult):
            original = cls.__init__

            def counting(self, *args, _original=original, **kwargs):
                made.append(type(self).__name__)
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        miss_trace, _ = get_miss_trace("gcc", TABLE1_256K, REFS, seed=6)
        assert miss_trace.total_references == REFS
        assert made == []
        runner._MISS_TRACE_CACHE.clear()


class TestPreseed:
    def test_counters_installed_relative_to_mapping_roots(self):
        controller = make_controller(SCHEMES["baseline"])
        preseed = {0x1000: 3, 0x2000: 0}
        apply_preseed(controller, preseed)
        page_root = controller.page_table.state(1).mapping_root
        assert controller.backing.read_seqnum(0x1000) == (page_root + 3) & ((1 << 64) - 1)
        assert controller.current_seqnum(0x2000) == controller.page_table.state(2).mapping_root


class TestRunScheme:
    def test_returns_metrics(self):
        metrics = run_scheme("gzip", "baseline", references=REFS)
        assert metrics.scheme == "baseline"
        assert metrics.fetches > 0
        assert metrics.cycles > 0

    def test_accepts_spec_object(self):
        metrics = run_scheme("gzip", SCHEMES["oracle"], references=REFS)
        assert metrics.scheme == "oracle"

    def test_deterministic(self):
        a = run_scheme("gzip", "pred_regular", references=REFS)
        b = run_scheme("gzip", "pred_regular", references=REFS)
        assert a.cycles == b.cycles
        assert a.prediction_hits == b.prediction_hits

    def test_run_benchmark_shares_miss_trace(self):
        results = run_benchmark("gzip", ["oracle", "baseline"], references=REFS)
        assert results["oracle"].l2_misses == results["baseline"].l2_misses

    def test_scheme_ordering_on_one_benchmark(self):
        results = run_benchmark(
            "twolf",
            ["oracle", "baseline", "pred_regular", "pred_context"],
            references=8000,
        )
        oracle = results["oracle"]
        baseline_ipc = results["baseline"].normalized_ipc(oracle)
        regular_ipc = results["pred_regular"].normalized_ipc(oracle)
        context_ipc = results["pred_context"].normalized_ipc(oracle)
        assert baseline_ipc < regular_ipc < context_ipc <= 1.0


class TestRunCellSeries:
    def test_series_off_by_default(self):
        cell = run_cell("gzip", "pred_regular", references=REFS, use_cache=False)
        assert cell.series is None

    def test_final_sample_equals_plain_run_snapshot(self):
        """The retention invariant: samples are cumulative, so a series
        run's last sample is exactly the snapshot a series-less run of the
        same cell produces — including trailing-writeback effects."""
        plain = run_cell("gzip", "pred_regular", references=REFS, use_cache=False)
        traced = run_cell(
            "gzip", "pred_regular", references=REFS, use_cache=False,
            series_interval=200,
        )
        assert traced.series is not None
        assert len(traced.series) >= 2
        final = traced.series.final
        assert final.values == plain.snapshot.values
        assert final.kinds == plain.snapshot.kinds
        assert final.meta["accesses"] == plain.metrics.fetches

    def test_sample_grid_follows_the_interval(self):
        cell = run_cell(
            "gzip", "pred_regular", references=REFS, use_cache=False,
            series_interval=200,
        )
        accesses = cell.series.accesses()
        # Every mid-run sample lands on an interval boundary; the final
        # post-writeback sample replaces or extends the grid.
        assert all(count % 200 == 0 for count in accesses[:-1])
        assert accesses == sorted(accesses)
        assert cell.series.meta["benchmark"] == "gzip"
        assert cell.series.meta["scheme"] == "pred_regular"

    def test_series_does_not_perturb_metrics(self):
        plain = run_cell("gzip", "pred_regular", references=REFS, use_cache=False)
        traced = run_cell(
            "gzip", "pred_regular", references=REFS, use_cache=False,
            series_interval=500,
        )
        assert traced.metrics.cycles == plain.metrics.cycles
        assert traced.metrics.prediction_hits == plain.metrics.prediction_hits

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError, match="series_interval"):
            run_cell(
                "gzip", "pred_regular", references=REFS, use_cache=False,
                series_interval=-1,
            )
