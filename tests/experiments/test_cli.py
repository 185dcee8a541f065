"""Command-line interface."""

import json

import pytest

import repro.cli as cli
from repro.cli import build_parser, main
from repro.cpu.tracefile import save_trace_file
from repro.experiments.runner import RunFailure
from repro.telemetry.events import validate_chrome_trace
from repro.telemetry.snapshot import SnapshotSeries
from repro.workloads.spec import build_workload


class TestList:
    def test_list_prints_catalogs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out
        assert "pred_context" in out
        assert "figure7" in out


class TestTable1:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Prediction depth" in out
        assert "96ns" in out


class TestFigure:
    def test_unknown_figure(self, capsys):
        assert main(["figure", "figure99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_figure9_small(self, capsys):
        assert main(["figure", "figure9", "--refs", "1500"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "Average" in out


class TestRun:
    def test_run_prints_schemes(self, capsys):
        assert main(["run", "gzip", "oracle", "baseline", "--refs", "1500"]) == 0
        out = capsys.readouterr().out
        assert "oracle" in out and "baseline" in out
        assert "norm" in out  # normalized column appears when oracle runs

    def test_run_without_oracle_omits_norm(self, capsys):
        assert main(["run", "gzip", "baseline", "--refs", "1500"]) == 0
        assert "norm" not in capsys.readouterr().out

    def test_unknown_scheme(self, capsys):
        assert main(["run", "gzip", "bogus"]) == 2
        assert "unknown scheme" in capsys.readouterr().err

    def test_unknown_benchmark(self, capsys):
        assert main(["run", "quake", "baseline"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_l2_selection(self, capsys):
        assert main(["run", "gzip", "baseline", "--refs", "1500", "--l2", "1M"]) == 0
        assert "table1-1M" in capsys.readouterr().out


class TestRunTrace:
    def test_trace_replay(self, tmp_path, capsys):
        trace_path = tmp_path / "captured.rtrc"
        save_trace_file(trace_path, build_workload("gzip", references=1500).trace)
        assert main(["run", "captured", "baseline", "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "captured" in out and "baseline" in out

    def test_missing_trace_file_is_one_line_error(self, capsys):
        assert main(["run", "x", "baseline", "--trace", "/no/such/file.rtrc"]) == 1
        err = capsys.readouterr().err
        assert "file not found" in err
        assert "Traceback" not in err

    def test_corrupt_trace_file_is_one_line_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.rtrc"
        bad.write_bytes(b"this is not a trace")
        assert main(["run", "x", "baseline", "--trace", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "corrupt trace file" in err
        assert "Traceback" not in err


class TestKeepGoing:
    def test_keep_going_reports_partial_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli,
            "run_benchmark_cells_parallel",
            lambda *args, **kwargs: (
                {},
                [RunFailure("gzip", "baseline", "RuntimeError", "boom", 2)],
            ),
        )
        assert main(["run", "gzip", "baseline", "--keep-going"]) == 1
        err = capsys.readouterr().err
        assert "FAILED" in err and "boom" in err

    def test_fail_fast_and_keep_going_conflict(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "gzip", "baseline", "--fail-fast", "--keep-going"]
            )


class TestFaults:
    def test_faults_json_report(self, capsys):
        code = main(
            ["faults", "--ops", "8", "--types", "bit_flip", "--rates", "0.5", "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["all_detected"] is True
        assert data["pad_reuse_free"] is True

    def test_faults_table_report(self, capsys):
        assert main(["faults", "--ops", "8", "--types", "drop", "--rates", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "verdict:" in out and "drop" in out

    def test_unknown_fault_type(self, capsys):
        assert main(["faults", "--types", "gamma_ray"]) == 2
        assert "unknown fault type" in capsys.readouterr().err

    def test_bad_rate(self, capsys):
        assert main(["faults", "--rates", "2.0"]) == 2
        assert "error:" in capsys.readouterr().err


class TestJobsAndCacheFlags:
    def test_run_with_jobs_matches_serial(self, capsys):
        assert main(["run", "gzip", "oracle", "baseline", "--refs", "1500"]) == 0
        serial_out = capsys.readouterr().out
        assert (
            main(
                ["run", "gzip", "oracle", "baseline", "--refs", "1500",
                 "--jobs", "2", "--no-cache"]
            )
            == 0
        )
        assert capsys.readouterr().out == serial_out

    def test_jobs_zero_means_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        args = build_parser().parse_args(["run", "gzip", "oracle", "--jobs", "0"])
        assert args.jobs is None

    def test_run_populates_cache_by_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        assert main(["run", "gzip", "oracle", "--refs", "1500"]) == 0
        capsys.readouterr()
        result_files = list((tmp_path / "c" / "results").rglob("*.json"))
        assert len(result_files) == 1

    def test_no_cache_leaves_cache_empty(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        assert main(["run", "gzip", "oracle", "--refs", "1500", "--no-cache"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        assert not (tmp_path / "c" / "results").exists()

    def test_figure_accepts_jobs(self, capsys):
        assert main(
            ["figure", "figure9", "--refs", "1500", "--jobs", "2", "--no-cache"]
        ) == 0
        assert "Figure 9" in capsys.readouterr().out

    def test_faults_accepts_jobs(self, capsys):
        code = main(
            ["faults", "--ops", "8", "--types", "bit_flip", "--rates", "0.5",
             "--jobs", "2", "--json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["all_detected"] is True


class TestCacheCommand:
    def test_cache_clear(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        assert main(["run", "gzip", "oracle", "--refs", "1500"]) == 0
        capsys.readouterr()
        assert main(["cache", "clear"]) == 0
        out = capsys.readouterr().out
        assert "removed" in out
        assert main(["cache", "clear"]) == 0
        assert "removed 0" in capsys.readouterr().out

    def test_cache_stats_reports_fingerprint(self, capsys):
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "fingerprint:" in out
        assert "results" in out and "traces" in out


class TestBench:
    def test_bench_writes_report(self, capsys, tmp_path):
        output = tmp_path / "BENCH_perf.json"
        code = main(
            ["bench", "--refs", "1200", "--ops", "30", "--jobs", "1",
             "--output", str(output)]
        )
        assert code == 0
        assert "Performance benchmark" in capsys.readouterr().out
        report = json.loads(output.read_text())
        assert report["grid"]["metrics_identical"] is True
        assert report["grid"]["warm_cache_hit_rate"] == 1.0
        assert report["crypto"]["scalar_blocks_per_sec"] > 0
        assert report["otp"]["optimized_ops_per_sec"] > 0


class TestBenchUpdateBaseline:
    def test_update_writes_tempered_baseline(self, capsys, tmp_path):
        baseline = tmp_path / "BENCH_baseline.json"
        code = main(
            ["bench", "--refs", "1200", "--ops", "30", "--jobs", "1",
             "--output", str(tmp_path / "report.json"),
             "--update-baseline", "--runs", "1", "--safety", "0.5",
             "--baseline", str(baseline)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "re-tempered" in stdout
        payload = json.loads(baseline.read_text())
        assert payload["tempering"]["runs"] == 1
        assert payload["tempering"]["safety"] == 0.5
        # Tempered floor sits below the single observed run by the safety
        # factor, so a re-check against it passes.
        report = json.loads((tmp_path / "report.json").read_text())
        observed = report["otp"]["speedup"]
        assert payload["otp"]["speedup"] == pytest.approx(
            round(observed * 0.5, 2)
        )


class TestBenchCheck:
    def test_check_passes_against_own_report(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        assert main(
            ["bench", "--refs", "1200", "--ops", "30", "--jobs", "1",
             "--output", str(baseline)]
        ) == 0
        capsys.readouterr()
        code = main(
            ["bench", "--refs", "1200", "--ops", "30", "--jobs", "1",
             "--output", str(tmp_path / "current.json"),
             "--check", str(baseline), "--tolerance", "0.9"]
        )
        assert code == 0
        assert "regression check" in capsys.readouterr().out

    def test_check_fails_on_regression(self, capsys, tmp_path):
        output = tmp_path / "current.json"
        assert main(
            ["bench", "--refs", "1200", "--ops", "30", "--jobs", "1",
             "--output", str(output)]
        ) == 0
        capsys.readouterr()
        report = json.loads(output.read_text())
        report["otp"]["speedup"] = report["otp"]["speedup"] * 1000
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(report))
        code = main(
            ["bench", "--refs", "1200", "--ops", "30", "--jobs", "1",
             "--output", str(tmp_path / "again.json"), "--check", str(baseline)]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().err


class TestTraceCommand:
    def test_trace_writes_chrome_json(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        code = main(
            ["trace", "gzip", "--refs", "1500", "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "captured" in stdout and str(out) in stdout
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]
        phases = {event["ph"] for event in payload["traceEvents"]}
        assert "X" in phases  # complete spans made it out

    def test_trace_unknown_benchmark(self, capsys):
        assert main(["trace", "quake"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_trace_unknown_scheme(self, capsys):
        assert main(["trace", "gzip", "--scheme", "bogus"]) == 2
        assert "unknown scheme" in capsys.readouterr().err

    def test_trace_is_well_formed_timeline(self, tmp_path):
        """Golden-shape check: counter tracks, flow arrows, named lanes —
        everything the validator enforces for Perfetto-loadable output."""
        out = tmp_path / "trace.json"
        assert main(["trace", "stream", "--refs", "1500", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload) == []
        counters = {
            e["name"] for e in payload["traceEvents"] if e["ph"] == "C"
        }
        assert len(counters) >= 3
        assert {"pred.queue_depth", "crypto.pipeline", "dram.outstanding"} <= counters
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert {"s", "f"} <= phases  # fetch→pad→xor arrows present

    def test_trace_demo_benchmark_accepted(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", "stream", "--refs", "1500", "--out", str(out)]) == 0
        assert "captured" in capsys.readouterr().out


class TestTraceDiff:
    def test_diff_merges_two_schemes(self, capsys, tmp_path):
        out = tmp_path / "diff.json"
        code = main(
            ["trace", "gzip", "--refs", "1500", "--out", str(out),
             "--diff", "pred_regular", "direct_encryption"]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "pred_regular" in stdout and "direct_encryption" in stdout
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload) == []
        names = {
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e.get("name") == "process_name"
        }
        assert names == {"pred_regular", "direct_encryption"}
        assert payload["otherData"]["groups"] == [
            "pred_regular", "direct_encryption",
        ]

    def test_diff_unknown_scheme(self, capsys):
        assert main(["trace", "gzip", "--diff", "pred_regular", "bogus"]) == 2
        assert "unknown scheme" in capsys.readouterr().err


class TestSeriesCommand:
    def test_series_writes_loadable_jsonl(self, capsys, tmp_path):
        out = tmp_path / "series.jsonl"
        code = main(
            ["series", "gzip", "--refs", "1500", "--interval", "300",
             "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "snapshots" in stdout and str(out) in stdout
        series = SnapshotSeries.load(out)
        assert len(series) >= 2
        assert series.meta["benchmark"] == "gzip"
        assert series.accesses() == sorted(series.accesses())

    def test_series_rate_prints_windows(self, capsys, tmp_path):
        code = main(
            ["series", "gzip", "--refs", "1500", "--interval", "300",
             "--out", str(tmp_path / "series.jsonl"),
             "--rate",
             "secure.predictor.prediction_hits/secure.predictor.lookups"]
        )
        assert code == 0
        assert "window" in capsys.readouterr().out

    def test_series_rejects_bad_interval(self, capsys):
        assert main(["series", "gzip", "--interval", "0"]) == 2
        assert "interval" in capsys.readouterr().err

    def test_series_unknown_benchmark(self, capsys):
        assert main(["series", "quake"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err


class TestEmitMetrics:
    def test_run_emits_merged_snapshot(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        code = main(
            ["--emit-metrics", str(path), "run", "gzip", "oracle",
             "pred_regular", "--refs", "1500", "--no-cache"]
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        names = payload["metrics"]
        assert any(name.startswith("secure.controller.") for name in names)
        assert any(name.startswith("crypto.engine.") for name in names)
        assert any(name.startswith("memory.dram.") for name in names)
        assert any(name.startswith("memory.hierarchy.") for name in names)
        assert payload["meta"]["merged_cells"] == 2

    def test_trace_emits_snapshot(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        code = main(
            ["--emit-metrics", str(path), "trace", "gzip", "--refs", "1500",
             "--out", str(tmp_path / "trace.json")]
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert any(
            name.startswith("secure.controller.") for name in payload["metrics"]
        )


class TestSupervisedRun:
    def test_supervise_matches_plain_run(self, capsys):
        assert main(["run", "gzip", "oracle", "--refs", "1200", "--no-cache"]) == 0
        plain = capsys.readouterr().out
        assert main(
            ["run", "gzip", "oracle", "--refs", "1200", "--supervise"]
        ) == 0
        supervised = capsys.readouterr().out
        assert "supervision:" in supervised
        table = [line for line in plain.splitlines() if "oracle" in line]
        assert all(line in supervised for line in table)

    def test_resume_serves_finished_cells(self, capsys):
        assert main(
            ["run", "gzip", "oracle", "--refs", "1200", "--supervise"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["run", "gzip", "oracle", "--refs", "1200", "--supervise"]
        ) == 0
        assert "cells_resumed=1" in capsys.readouterr().out

    def test_figure_accepts_supervise(self, capsys):
        assert main(["figure", "figure9", "--refs", "1200", "--supervise"]) == 0
        assert "Figure 9" in capsys.readouterr().out
        from repro.experiments import sweep as sweep_mod

        assert sweep_mod._DEFAULT_SUPERVISION is None  # reset after the run

    def test_keep_going_summary_counts_cells(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli,
            "run_benchmark_cells_parallel",
            lambda *args, **kwargs: (
                {},
                [RunFailure("gzip", "baseline", "RuntimeError", "boom", 2,
                            cell_key="ab" * 32)],
            ),
        )
        assert main(["run", "gzip", "baseline", "--keep-going"]) == 1
        err = capsys.readouterr().err
        assert "FAILED" in err and "abababababab" in err
        assert "keep-going: 1 of 1 cell(s) failed, 0 completed" in err


class TestCacheVerify:
    def test_verify_clean_cache(self, capsys):
        assert main(["run", "gzip", "oracle", "--refs", "1500"]) == 0
        capsys.readouterr()
        assert main(["cache", "verify"]) == 0
        out = capsys.readouterr().out
        assert "0 corrupt" in out

    def test_verify_reports_then_repairs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        assert main(["run", "gzip", "oracle", "--refs", "1500"]) == 0
        capsys.readouterr()
        entry = next((tmp_path / "c" / "results").rglob("*.json"))
        entry.write_text("{torn")
        assert main(["cache", "verify"]) == 1
        captured = capsys.readouterr()
        assert "1 corrupt" in captured.out
        assert entry.name in captured.err
        assert main(["cache", "verify", "--repair"]) == 0
        assert "quarantined 1" in capsys.readouterr().out
        assert not entry.exists()
        assert main(["cache", "verify"]) == 0
        assert "0 corrupt" in capsys.readouterr().out

    def test_stats_shows_quarantine_tier(self, capsys):
        assert main(["cache", "stats"]) == 0
        assert "quarantine" in capsys.readouterr().out


class TestFaultsSweepLayer:
    def test_sweep_layer_renders_soak_report(self, monkeypatch, capsys):
        import repro.faults.orchestration as orchestration

        report = {
            "cells": 4, "seed": 1, "jobs": 2,
            "chaos": {"planned": [
                {"cell_key": "ab" * 6, "attempt": 0, "action": "kill"},
            ]},
            "supervision": {"retries": 1, "timeouts": 0,
                            "worker_deaths": 1, "degraded_cells": 0},
            "supervised_identical_to_serial": True,
            "poisoned_entries": 1,
            "resume": {"cells_resumed": 3, "cells_completed": 1},
            "resume_quarantined": ["x.json"],
            "resume_recomputed_only_poisoned": True,
            "resumed_identical_to_serial": True,
            "ok": True,
        }
        seen = {}
        monkeypatch.setattr(
            orchestration, "run_sweep_soak",
            lambda **kwargs: seen.update(kwargs) or report,
        )
        assert main(["faults", "--layer", "sweep", "--refs", "700",
                     "--seed", "3", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "verdict: OK" in out
        assert seen["references"] == 700
        assert seen["seed"] == 3

    def test_sweep_layer_json_and_failure_exit(self, monkeypatch, capsys):
        import repro.faults.orchestration as orchestration

        monkeypatch.setattr(
            orchestration, "run_sweep_soak", lambda **kwargs: {"ok": False}
        )
        assert main(["faults", "--layer", "sweep", "--json"]) == 1
        assert json.loads(capsys.readouterr().out) == {"ok": False}

    def test_machine_layer_is_default(self, capsys):
        assert main(
            ["faults", "--ops", "8", "--types", "bit_flip", "--rates", "0.5"]
        ) == 0
        assert "verdict:" in capsys.readouterr().out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_cache_verify_accepts_repair(self):
        args = build_parser().parse_args(["cache", "verify", "--repair"])
        assert args.action == "verify" and args.repair

    def test_engine_flags_include_supervision(self):
        args = build_parser().parse_args(
            ["run", "gzip", "oracle", "--supervise", "--cell-timeout", "30"]
        )
        assert args.supervise and args.cell_timeout == 30.0
        args = build_parser().parse_args(["figure", "figure9", "--supervise"])
        assert args.supervise


class TestSwarmCommand:
    GRID = ["--benchmarks", "gzip", "--schemes", "oracle,pred_regular",
            "--refs", "1200"]

    def test_start_then_drain_then_status(self, capsys):
        assert main(["swarm", "start", *self.GRID]) == 0
        out = capsys.readouterr().out
        assert "seeded (2 cells)" in out
        assert "repro swarm drain" in out
        assert main(["swarm", "drain", *self.GRID, "--workers", "2",
                     "--ttl", "5"]) == 0
        out = capsys.readouterr().out
        assert "drained 2/2 cells" in out
        assert main(["swarm", "status", *self.GRID]) == 0
        out = capsys.readouterr().out
        assert "complete" in out
        assert "done" in out

    def test_status_json_is_machine_readable(self, capsys):
        assert main(["swarm", "start", *self.GRID]) == 0
        capsys.readouterr()
        assert main(["swarm", "status", *self.GRID, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["total"] == 2
        assert status["counts"]["pending"] == 2
        assert not status["complete"]

    def test_unknown_scheme_is_a_usage_error(self, capsys):
        assert main(["swarm", "start", "--benchmarks", "gzip",
                     "--schemes", "nope"]) == 2
        assert "unknown scheme" in capsys.readouterr().err

    def test_faults_layer_fabric_is_wired(self, capsys, monkeypatch):
        # The soak itself is exercised in tests/faults; here we only prove
        # the CLI dispatches to it and honors --json and the exit code.
        calls = {}

        def fake_soak(**kwargs):
            calls.update(kwargs)
            return {"ok": True, "cells": 4}

        monkeypatch.setattr(
            "repro.faults.orchestration.run_fabric_soak", fake_soak
        )
        assert main(["faults", "--layer", "fabric", "--refs", "999",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"]
        assert calls["references"] == 999


class TestCacheQuarantineLogStats:
    def test_stats_report_quarantine_log_line(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_QUARANTINE_LOG_MAX", "9")
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "quarantine log: 0 entries" in out
        assert "keeps last 9" in out
        assert "REPRO_QUARANTINE_LOG_MAX" in out


class TestBackendFlag:
    def test_backend_choice_exported_to_environment(self, capsys, monkeypatch):
        import os

        from repro.cpu.engine import BACKEND_ENV

        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert main(["--backend", "reference", "run", "gzip", "oracle",
                     "--refs", "1500"]) == 0
        # Exported rather than threaded through call sites, so parallel
        # sweep workers inherit the selection too.
        assert os.environ[BACKEND_ENV] == "reference"

    def test_backend_identical_output_across_backends(self, capsys):
        outputs = {}
        for backend in ("reference", "batched"):
            # --no-cache so the second backend really replays instead of
            # being served the first backend's cached cell.
            assert main(["--backend", backend, "run", "gzip", "pred_regular",
                         "--refs", "1500", "--no-cache"]) == 0
            outputs[backend] = capsys.readouterr().out
        assert outputs["reference"] == outputs["batched"]

    def test_unknown_backend_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["--backend", "turbo", "list"])
        assert "invalid choice" in capsys.readouterr().err


class TestServiceCommands:
    """The serve/submit/jobs/watch verbs against a real in-thread server."""

    @pytest.fixture
    def service_url(self, tmp_path, monkeypatch):
        from repro.service.queue import JobStore
        from repro.service.scheduler import SchedulerPolicy, ServiceScheduler
        from repro.service.server import serve_in_thread

        handle = serve_in_thread(
            ServiceScheduler(
                store=JobStore(tmp_path / "svc"),
                policy=SchedulerPolicy(
                    sample_interval_seconds=0.02, poll_interval_seconds=0.01
                ),
            )
        )
        monkeypatch.setenv("REPRO_SERVICE_URL", handle.url)
        yield handle.url
        handle.stop()

    GRID = ["--benchmarks", "stream", "--schemes", "baseline",
            "--refs", "800"]

    def test_submit_watch_and_jobs_round_trip(self, service_url, capsys):
        assert main(["submit", "--tenant", "alice", *self.GRID,
                     "--watch"]) == 0
        out = capsys.readouterr().out
        assert "queued: 1 cells" in out
        assert "state -> done" in out

        assert main(["jobs"]) == 0
        out = capsys.readouterr().out
        assert "alice" in out and "done" in out

        assert main(["jobs", "--tenant", "nobody", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_submit_json_receipt_and_watch_verb(self, service_url, capsys):
        assert main(["submit", "--tenant", "bob", *self.GRID,
                     "--json"]) == 0
        receipt = json.loads(capsys.readouterr().out)
        assert receipt["cells_total"] == 1
        assert main(["watch", receipt["job_id"]]) == 0
        out = capsys.readouterr().out
        assert "state -> done" in out

    def test_submit_quota_denial_exits_nonzero(self, service_url, capsys):
        # Fill the default per-tenant inflight quota (4) with queued jobs
        # by submitting distinct grids faster than one cell can run, then
        # overflow it.  Distinct seeds make distinct jobs.
        from repro.service.client import ServiceClient

        client = ServiceClient(service_url)
        for seed in range(2, 6):
            client.submit("carol", ["stream"], ["baseline", "oracle",
                                                "pred_regular"],
                          references=800, seed=seed)
        code = main(["submit", "--tenant", "carol", *self.GRID])
        err = capsys.readouterr().err
        assert code == 1
        assert "429" in err or "quota" in err

    def test_unreachable_service_is_one_line_error(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_URL", "http://127.0.0.1:1")
        assert main(["submit", *self.GRID]) == 1
        assert "cannot reach service" in capsys.readouterr().err


class TestSwarmStatusByKey:
    GRID = ["--benchmarks", "gzip", "--schemes", "oracle,pred_regular",
            "--refs", "1200"]

    def test_status_by_key_matches_status_by_grid(self, capsys):
        from repro.fabric.coordinator import SwarmSpec

        assert main(["swarm", "start", *self.GRID]) == 0
        capsys.readouterr()
        key = SwarmSpec(
            benchmarks=("gzip",), schemes=("oracle", "pred_regular"),
            references=1200,
        ).key
        assert main(["swarm", "status", "--key", key, "--json"]) == 0
        by_key = json.loads(capsys.readouterr().out)
        assert main(["swarm", "status", *self.GRID, "--json"]) == 0
        by_grid = json.loads(capsys.readouterr().out)
        assert by_key == by_grid
        assert by_key["total"] == 2

    def test_key_with_non_status_action_is_usage_error(self, capsys):
        assert main(["swarm", "drain", "--key", "abc"]) == 2
        assert "--key is only valid with status" in capsys.readouterr().err

    def test_unknown_key_is_one_line_error(self, capsys):
        assert main(["swarm", "status", "--key", "deadbeef"]) in (1, 2)
        err = capsys.readouterr().err
        assert err.strip()  # one-line error, no traceback
