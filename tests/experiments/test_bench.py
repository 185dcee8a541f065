"""Bench regression guard logic (pure; the CLI wiring is in test_cli)."""

import pytest

from repro.experiments.bench import (
    REPLAY_SCHEMES,
    available_cpus,
    check_regression,
    render_report,
    replay_bench,
    temper_baseline,
)


def _report(vector=4.0, otp=2.0, warm=10.0, parallel=2.5,
            identical=True, hit_rate=1.0, replay=12.0,
            replay_identical=True, cpus=None):
    report = {
        "crypto": {"vector_speedup": vector},
        "otp": {"speedup": otp},
        "replay": {
            "speedup": replay,
            "metrics_identical": replay_identical,
        },
        "grid": {
            "warm_speedup": warm,
            "parallel_speedup": parallel,
            "metrics_identical": identical,
            "warm_cache_hit_rate": hit_rate,
        },
    }
    if cpus is not None:
        report["environment"] = {"cpus": cpus}
    return report


class TestAvailableCpus:
    def test_positive_and_bounded_by_machine(self):
        import os

        cpus = available_cpus()
        assert cpus >= 1
        assert cpus <= (os.cpu_count() or cpus)

    def test_respects_affinity_mask(self, monkeypatch):
        # A cgroup/affinity-limited runner must report its real budget,
        # not the machine's — that is what the speedup gate keys on.
        monkeypatch.setattr(
            "os.sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        assert available_cpus() == 2

    def test_falls_back_when_affinity_unavailable(self, monkeypatch):
        def broken(pid):
            raise OSError("not supported")

        monkeypatch.setattr("os.sched_getaffinity", broken, raising=False)
        import os

        assert available_cpus() == (os.cpu_count() or 1)


class TestCheckRegression:
    def test_identical_reports_pass(self):
        assert check_regression(_report(), _report()) == []

    def test_small_drop_within_tolerance_passes(self):
        current = _report(otp=1.7)  # 15% below baseline's 2.0
        assert check_regression(current, _report(), tolerance=0.2) == []

    def test_large_drop_fails(self):
        current = _report(otp=1.0)
        violations = check_regression(current, _report(), tolerance=0.2)
        assert len(violations) == 1
        assert "otp.speedup" in violations[0]

    def test_metrics_identical_is_a_hard_invariant(self):
        current = _report(identical=False)
        violations = check_regression(current, _report())
        assert any("metrics_identical" in v for v in violations)

    def test_warm_hit_rate_must_be_total(self):
        current = _report(hit_rate=0.9)
        violations = check_regression(current, _report())
        assert any("warm_cache_hit_rate" in v for v in violations)

    def test_missing_values_are_skipped_not_failed(self):
        current = _report()
        current["crypto"]["vector_speedup"] = None  # e.g. no numpy
        assert check_regression(current, _report()) == []
        baseline = _report()
        del baseline["otp"]
        assert check_regression(_report(), baseline) == []

    def test_improvements_always_pass(self):
        current = _report(vector=40.0, otp=20.0, warm=100.0, parallel=25.0)
        assert check_regression(current, _report()) == []

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            check_regression(_report(), _report(), tolerance=1.5)
        with pytest.raises(ValueError):
            check_regression(_report(), _report(), tolerance=-0.1)

    def test_replay_identity_is_a_hard_invariant(self):
        current = _report(replay_identical=False)
        violations = check_regression(current, _report())
        assert any("replay.metrics_identical" in v for v in violations)

    def test_replay_speedup_guarded_against_baseline(self):
        current = _report(replay=8.0)  # 33% below baseline's 12.0
        violations = check_regression(current, _report(), tolerance=0.2)
        assert any("replay.speedup" in v for v in violations)
        assert check_regression(current, _report(), tolerance=0.5) == []

    def test_report_without_replay_section_tolerated(self):
        # Old bench fixtures (and old committed baselines) predate the
        # replay layer; their absence must not fail the guard.
        current, baseline = _report(), _report()
        del current["replay"], baseline["replay"]
        assert check_regression(current, baseline) == []

    def test_parallel_speedup_must_beat_serial_on_multi_cpu(self):
        current = _report(parallel=0.92, cpus=8)
        violations = check_regression(current, _report(parallel=0.92))
        assert any("parallel_speedup" in v and "8-CPU" in v for v in violations)

    def test_parallel_speedup_not_required_for_one_job(self):
        # --jobs 1 runs the "parallel" pass as the serial loop again.
        current = _report(parallel=0.96, cpus=2)
        current["grid"]["jobs"] = 1
        assert check_regression(current, _report(parallel=0.96)) == []

    def test_parallel_speedup_required_for_two_jobs(self):
        current = _report(parallel=0.96, cpus=2)
        current["grid"]["jobs"] = 2
        violations = check_regression(current, _report(parallel=0.96))
        assert any("parallel_speedup" in v and "2-CPU" in v for v in violations)

    def test_parallel_speedup_not_required_on_one_cpu(self):
        current = _report(parallel=0.92, cpus=1)
        assert check_regression(current, _report(parallel=0.92)) == []

    def test_parallel_speedup_not_required_without_environment(self):
        current = _report(parallel=0.92)  # no environment section at all
        assert check_regression(current, _report(parallel=0.92)) == []


class TestTemperBaseline:
    def test_min_across_runs_times_safety(self):
        runs = [_report(otp=2.0), _report(otp=1.6), _report(otp=1.8)]
        baseline = temper_baseline(runs, safety=0.5)
        assert baseline["otp"]["speedup"] == 0.8  # min(2.0, 1.6, 1.8) * 0.5
        assert baseline["tempering"]["values"]["otp.speedup"] == 0.8

    def test_every_guarded_speedup_is_tempered(self):
        baseline = temper_baseline([_report()], safety=0.8)
        values = baseline["tempering"]["values"]
        assert set(values) == {
            "crypto.vector_speedup", "otp.speedup", "replay.speedup",
            "grid.warm_speedup", "grid.parallel_speedup",
            "service.submit_to_result_sec",
        }
        # _report() carries no service section, so the latency tempers
        # to None rather than failing.
        assert values["service.submit_to_result_sec"] is None

    def test_missing_values_become_none(self):
        run = _report()
        run["crypto"]["vector_speedup"] = None  # e.g. no numpy
        baseline = temper_baseline([run])
        assert baseline["tempering"]["values"]["crypto.vector_speedup"] is None
        assert baseline["crypto"]["vector_speedup"] is None  # left as recorded

    def test_tempered_baseline_passes_against_its_own_runs(self):
        runs = [_report(otp=2.0), _report(otp=1.6)]
        baseline = temper_baseline(runs, safety=0.8)
        for run in runs:
            assert check_regression(run, baseline, tolerance=0.0) == []

    def test_metadata_records_the_rule(self):
        baseline = temper_baseline([_report(), _report()], safety=0.7)
        assert baseline["tempering"]["runs"] == 2
        assert baseline["tempering"]["safety"] == 0.7
        assert "min" in baseline["tempering"]["rule"]

    def test_input_report_not_mutated(self):
        run = _report(otp=2.0)
        temper_baseline([run], safety=0.5)
        assert run["otp"]["speedup"] == 2.0
        assert "tempering" not in run

    def test_empty_reports_rejected(self):
        with pytest.raises(ValueError):
            temper_baseline([])

    def test_bad_safety_rejected(self):
        with pytest.raises(ValueError):
            temper_baseline([_report()], safety=0.0)
        with pytest.raises(ValueError):
            temper_baseline([_report()], safety=1.1)


class TestReplayBench:
    def test_small_grid_structure_and_identity(self):
        report = replay_bench(
            references=500, trials=1,
            benchmarks=("gzip",), schemes=("oracle", "pred_regular"),
        )
        assert report["metrics_identical"] is True
        assert report["benchmarks"] == ["gzip"]
        assert report["schemes"] == ["oracle", "pred_regular"]
        assert "batched" in report["backends"]
        assert len(report["cells"]) == 2
        for cell in report["cells"]:
            assert cell["identical"] is True
            assert cell["reference_seconds"] >= 0
            assert cell["batched_seconds"] >= 0
            assert cell["reference_refs_per_sec"] > 0
            assert cell["batched_refs_per_sec"] > 0
        assert report["compile_seconds"] >= 0
        assert report["speedup"] is not None

    def test_default_schemes_cover_every_fast_path(self):
        # One cell per distinct replay fast path: the oracle loop, the
        # static and adaptive regular-predictor loops, and the
        # seqcache-augmented loop.
        assert REPLAY_SCHEMES == (
            "oracle", "pred_regular_static", "pred_regular",
            "pred_plus_cache_32k",
        )


class TestRenderReport:
    def _full_report(self, with_replay=True):
        report = {
            "crypto": {
                "scalar_blocks_per_sec": 1000.0,
                "vector_blocks_per_sec": 4000.0,
                "vector_speedup": 4.0,
            },
            "otp": {
                "baseline_ops_per_sec": 100.0,
                "optimized_ops_per_sec": 200.0,
                "speedup": 2.0,
            },
            "grid": {
                "cold_seconds": 2.0, "warm_seconds": 0.2,
                "warm_speedup": 10.0, "parallel_seconds": 1.0,
                "parallel_speedup": 2.0, "jobs": 2,
                "warm_cache_hit_rate": 1.0, "metrics_identical": True,
            },
        }
        if with_replay:
            report["replay"] = {
                "reference_refs_per_sec": 90000.0,
                "batched_refs_per_sec": 990000.0,
                "speedup": 11.0,
                "cells": [{}] * 12,
                "compile_seconds": 0.01,
                "metrics_identical": True,
            }
        return report

    def test_replay_line_rendered_when_present(self):
        text = render_report(self._full_report())
        assert "replay:" in text
        assert "x11.0" in text
        assert "identical: True" in text

    def test_replay_line_omitted_for_old_reports(self):
        text = render_report(self._full_report(with_replay=False))
        assert "replay:" not in text


class TestServiceLatencyGuard:
    def _with_service(self, report, latency=0.2, identical=True):
        report["service"] = {
            "submit_to_result_sec": latency,
            "results_identical": identical,
        }
        return report

    def test_latency_within_ceiling_passes(self):
        baseline = self._with_service(_report(), latency=0.2)
        current = self._with_service(_report(), latency=0.25)
        assert check_regression(current, baseline, tolerance=0.2) == []

    def test_latency_over_ceiling_fails(self):
        baseline = self._with_service(_report(), latency=0.2)
        current = self._with_service(_report(), latency=0.6)
        violations = check_regression(current, baseline, tolerance=0.2)
        assert any("service.submit_to_result_sec" in v for v in violations)

    def test_small_baselines_get_additive_jitter_slack(self):
        # A 0.01s baseline is inside scheduler-poll quantization noise;
        # a 0.1s measurement next run is jitter, not a regression.
        baseline = self._with_service(_report(), latency=0.01)
        current = self._with_service(_report(), latency=0.11)
        assert check_regression(current, baseline, tolerance=0.2) == []

    def test_latency_improvements_always_pass(self):
        baseline = self._with_service(_report(), latency=0.5)
        current = self._with_service(_report(), latency=0.01)
        assert check_regression(current, baseline) == []

    def test_missing_service_section_is_skipped(self):
        baseline = self._with_service(_report())
        assert check_regression(_report(), baseline) == []

    def test_service_identity_is_a_hard_invariant(self):
        current = self._with_service(_report(), identical=False)
        violations = check_regression(current, _report())
        assert any("service.results_identical" in v for v in violations)

    def test_temper_takes_max_over_safety_for_latencies(self):
        reports = [
            self._with_service(_report(), latency=value)
            for value in (0.2, 0.4, 0.3)
        ]
        baseline = temper_baseline(reports, safety=0.8)
        assert baseline["service"]["submit_to_result_sec"] == 0.5  # 0.4 / 0.8
        values = baseline["tempering"]["values"]
        assert values["service.submit_to_result_sec"] == 0.5
