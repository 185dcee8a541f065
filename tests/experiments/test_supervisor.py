"""Supervised sweep execution: equality, recovery, cache-served re-runs."""

import dataclasses
import json

import pytest

from repro.experiments import cache as result_cache
from repro.experiments import runner
from repro.experiments.supervisor import (
    MANIFEST_SCHEMA,
    SupervisorPolicy,
    SweepManifest,
    manifest_path,
    run_grid_supervised,
    sweep_key,
)
from repro.experiments.sweep import (
    reset_default_supervision,
    run_grid,
    set_default_supervision,
)
from repro.telemetry.events import EventTracer
from repro.telemetry.registry import MetricRegistry

REFS = 1200
BENCHMARKS = ["gzip"]
SCHEMES = ["oracle", "pred_regular"]

FAST = SupervisorPolicy(
    cell_timeout_seconds=60.0,
    max_retries=2,
    backoff_base_seconds=0.01,
    backoff_cap_seconds=0.05,
)


def _metrics(sweep):
    return {k: dataclasses.asdict(v) for k, v in sweep.results.items()}


class _ScriptedChaos:
    """Chaos stub: one fixed action on every cell's first attempt."""

    def __init__(self, action, seconds=0.0):
        self.action = action
        self.seconds = seconds
        self.calls = []

    def action_for(self, cell_key, attempt):
        self.calls.append((cell_key, attempt))
        if attempt > 0:
            return None
        return (self.action, self.seconds)


class TestPolicy:
    def test_backoff_grows_to_cap(self):
        policy = SupervisorPolicy(
            backoff_base_seconds=0.1, backoff_multiplier=2.0,
            backoff_cap_seconds=0.5,
        )
        assert policy.backoff_seconds(1) == pytest.approx(0.1)
        assert policy.backoff_seconds(2) == pytest.approx(0.2)
        assert policy.backoff_seconds(3) == pytest.approx(0.4)
        assert policy.backoff_seconds(4) == pytest.approx(0.5)

    def test_backoff_cheap_and_capped_at_huge_attempts(self):
        policy = SupervisorPolicy(backoff_cap_seconds=1.5)
        # Must not materialize multiplier**attempt for large attempts.
        assert policy.backoff_seconds(10**6) == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisorPolicy(cell_timeout_seconds=0)
        with pytest.raises(ValueError):
            SupervisorPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            SupervisorPolicy(backoff_multiplier=0.5)


class TestManifest:
    def test_header_and_round_trip(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        manifest = SweepManifest.open(path, meta={"key": "abc"})
        manifest.record("start", "k1", "gzip/oracle", attempt=0)
        manifest.record("done", "k1", "gzip/oracle", source="worker")
        manifest.record("failed", "k2", "gzip/baseline", error="boom")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["schema"] == MANIFEST_SCHEMA
        replayed = SweepManifest.open(path, meta={})
        assert set(replayed.done) == {"k1"}
        assert set(replayed.failed) == {"k2"}

    def test_done_supersedes_failed_on_replay(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        manifest = SweepManifest.open(path, meta={})
        manifest.record("failed", "k1", "gzip/oracle", error="boom")
        manifest.record("done", "k1", "gzip/oracle", source="worker")
        replayed = SweepManifest.open(path, meta={})
        assert set(replayed.done) == {"k1"}
        assert not replayed.failed

    def test_torn_trailing_line_is_ignored(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        manifest = SweepManifest.open(path, meta={})
        manifest.record("done", "k1", "gzip/oracle", source="worker")
        with path.open("a") as handle:
            handle.write('{"event": "done", "key": "k2", "ce')  # crash mid-append
        replayed = SweepManifest.open(path, meta={})
        assert set(replayed.done) == {"k1"}

    def test_sweep_key_varies_with_grid(self):
        from repro.experiments.config import TABLE1_1M, TABLE1_256K

        base = sweep_key(["gzip"], ["oracle"], TABLE1_256K, REFS, 1)
        assert sweep_key(["mcf"], ["oracle"], TABLE1_256K, REFS, 1) != base
        assert sweep_key(["gzip"], ["oracle"], TABLE1_1M, REFS, 1) != base
        assert sweep_key(["gzip"], ["oracle"], TABLE1_256K, REFS, 2) != base


class TestSupervisedEquality:
    def test_supervised_equals_serial(self):
        serial = run_grid(BENCHMARKS, SCHEMES, references=REFS)
        supervised = run_grid_supervised(
            BENCHMARKS, SCHEMES, references=REFS, jobs=2, policy=FAST
        )
        assert _metrics(supervised) == _metrics(serial)
        assert (
            supervised.merged_snapshot().values
            == serial.merged_snapshot().values
        )
        assert supervised.supervision["cells_completed"] == len(SCHEMES)
        assert supervised.supervision["failures"] == 0

    def test_run_grid_supervise_flag_delegates(self):
        serial = run_grid(BENCHMARKS, ["oracle"], references=REFS)
        supervised = run_grid(
            BENCHMARKS, ["oracle"], references=REFS,
            supervise=True, policy=FAST,
        )
        assert _metrics(supervised) == _metrics(serial)
        assert supervised.supervision is not None

    def test_default_supervision_installs_and_resets(self):
        set_default_supervision(policy=FAST)
        try:
            sweep = run_grid(BENCHMARKS, ["oracle"], references=REFS)
            assert sweep.supervision is not None
        finally:
            reset_default_supervision()
        sweep = run_grid(BENCHMARKS, ["oracle"], references=REFS)
        assert sweep.supervision is None


class TestRecovery:
    def test_killed_workers_are_retried_to_success(self):
        serial = run_grid(BENCHMARKS, SCHEMES, references=REFS)
        chaos = _ScriptedChaos("kill")
        supervised = run_grid_supervised(
            BENCHMARKS, SCHEMES, references=REFS, jobs=2,
            policy=FAST, chaos=chaos,
        )
        stats = supervised.supervision
        assert stats["worker_deaths"] == len(SCHEMES)
        assert stats["retries"] == len(SCHEMES)
        assert stats["failures"] == 0
        assert _metrics(supervised) == _metrics(serial)

    def test_hung_workers_time_out_and_recover(self):
        serial = run_grid(BENCHMARKS, ["oracle"], references=REFS)
        chaos = _ScriptedChaos("hang", seconds=30.0)
        policy = dataclasses.replace(FAST, cell_timeout_seconds=1.5)
        supervised = run_grid_supervised(
            BENCHMARKS, ["oracle"], references=REFS, jobs=1,
            policy=policy, chaos=chaos,
        )
        assert supervised.supervision["timeouts"] == 1
        assert supervised.supervision["failures"] == 0
        assert _metrics(supervised) == _metrics(serial)

    def test_exhausted_retries_degrade_to_in_process(self):
        class AlwaysKill:
            def action_for(self, cell_key, attempt):
                return ("kill", 0.0)

        serial = run_grid(BENCHMARKS, ["oracle"], references=REFS)
        policy = dataclasses.replace(FAST, max_retries=1)
        supervised = run_grid_supervised(
            BENCHMARKS, ["oracle"], references=REFS, jobs=1,
            policy=policy, chaos=AlwaysKill(),
        )
        assert supervised.supervision["degraded_cells"] == 1
        assert supervised.supervision["failures"] == 0
        assert _metrics(supervised) == _metrics(serial)

    def test_keep_going_records_failed_cells_with_keys(self):
        policy = dataclasses.replace(FAST, max_retries=0)
        sweep = run_grid_supervised(
            ["gzip", "nosuchbenchmark"], ["oracle"], references=REFS,
            jobs=1, keep_going=True, policy=policy,
        )
        assert ("gzip", "oracle") in sweep.results
        assert len(sweep.failures) == 1
        benchmark, scheme, cell_key = sweep.failed_cells()[0]
        assert benchmark == "nosuchbenchmark"
        assert scheme == "oracle"
        assert len(cell_key) == 64
        assert sweep.supervision["failures"] == 1

    def test_failure_raises_without_keep_going(self):
        policy = dataclasses.replace(
            FAST, max_retries=0, degrade_to_serial=False
        )
        with pytest.raises(RuntimeError, match="SupervisionExhausted"):
            run_grid_supervised(
                ["nosuchbenchmark"], ["oracle"], references=REFS,
                jobs=1, policy=policy, chaos=_ScriptedChaos("kill"),
            )


class TestResume:
    def test_resume_serves_finished_cells_from_cache(self):
        first = run_grid_supervised(
            BENCHMARKS, SCHEMES, references=REFS, jobs=2, policy=FAST
        )
        disk = result_cache.default_cache()
        disk.stats = result_cache.CacheStats()
        runner._MISS_TRACE_CACHE.clear()
        resumed = run_grid_supervised(
            BENCHMARKS, SCHEMES, references=REFS, jobs=2,
            policy=FAST,
        )
        stats = resumed.supervision
        assert stats["cells_resumed"] == len(SCHEMES)
        assert stats["cells_completed"] == 0
        assert _metrics(resumed) == _metrics(first)
        # Resume hit the cache once per cell and recomputed nothing.
        assert disk.stats.result_hits == len(SCHEMES)
        assert disk.stats.result_stores == 0

    def test_fully_cached_grid_forks_no_worker(self):
        from repro.experiments.config import TABLE1_256K

        run_grid_supervised(
            BENCHMARKS, SCHEMES, references=REFS, jobs=2, policy=FAST
        )
        disk = result_cache.default_cache()
        path = manifest_path(
            disk.root, sweep_key(BENCHMARKS, SCHEMES, TABLE1_256K, REFS, 1)
        )
        starts_before = path.read_text().count('"event": "start"')
        warm = run_grid_supervised(
            BENCHMARKS, SCHEMES, references=REFS, jobs=2, policy=FAST
        )
        assert path.read_text().count('"event": "start"') == starts_before
        assert warm.supervision["cells_resumed"] == warm.supervision[
            "cells_total"
        ] == len(SCHEMES)

    def test_resume_recomputes_quarantined_cells_only(self):
        run_grid_supervised(
            BENCHMARKS, SCHEMES, references=REFS, jobs=2, policy=FAST
        )
        disk = result_cache.default_cache()
        entries = sorted((disk.root / "results").rglob("*.json"))
        poisoned = entries[0]
        poisoned.write_bytes(poisoned.read_bytes()[:100])
        disk.stats = result_cache.CacheStats()
        runner._MISS_TRACE_CACHE.clear()
        resumed = run_grid_supervised(
            BENCHMARKS, SCHEMES, references=REFS, jobs=2,
            policy=FAST,
        )
        stats = resumed.supervision
        assert stats["cells_resumed"] == len(SCHEMES) - 1
        assert stats["cells_completed"] == 1
        assert disk.stats.quarantined_entries == 1
        # The quarantined entry was moved aside, reason journaled.
        quarantined = list((disk.root / "quarantine" / "results").iterdir())
        assert [p.name for p in quarantined] == [poisoned.name]
        serial = run_grid(BENCHMARKS, SCHEMES, references=REFS)
        assert _metrics(resumed) == _metrics(serial)

    def test_manifest_written_under_cache_root(self):
        run_grid_supervised(
            BENCHMARKS, ["oracle"], references=REFS, jobs=1, policy=FAST
        )
        disk = result_cache.default_cache()
        manifests = list(disk.root.glob("manifest-*.jsonl"))
        assert len(manifests) == 1
        from repro.experiments.config import TABLE1_256K

        expected = manifest_path(
            disk.root,
            sweep_key(BENCHMARKS, ["oracle"], TABLE1_256K, REFS, 1),
        )
        assert manifests[0] == expected


class TestTelemetryWiring:
    def test_registry_and_tracer_capture_supervision(self):
        registry = MetricRegistry()
        tracer = EventTracer(capacity=4096)
        run_grid_supervised(
            BENCHMARKS, ["oracle"], references=REFS, jobs=1,
            policy=FAST, registry=registry, tracer=tracer,
        )
        snapshot = registry.snapshot()
        assert snapshot.values["sweep.supervisor.cells_completed"] == 1
        assert "sweep.cache.corrupt_entries" in snapshot.values
        counters = [
            event for event in tracer.events() if event.name == "sweep.inflight"
        ]
        assert counters, "expected sweep.inflight counter samples"
        assert all(event.track == "sweep" for event in counters)


class TestManifestConcurrency:
    def test_interleaved_writers_replay_to_union(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        alpha = SweepManifest.open(path, meta={"key": "abc"})
        beta = SweepManifest.open(path, meta={"key": "abc"})
        for index in range(6):
            writer = alpha if index % 2 == 0 else beta
            writer.record("done", f"k{index}", f"cell{index}", source="test")
        replayed = SweepManifest.open(path, meta={})
        assert set(replayed.done) == {f"k{index}" for index in range(6)}

    def test_record_glued_onto_torn_fragment_is_salvaged(self, tmp_path):
        # Writer A crashes mid-append (no trailing newline); writer B's
        # O_APPEND write lands on the same line.  B's record must survive
        # replay; only A's torn event is lost.
        path = tmp_path / "manifest.jsonl"
        manifest = SweepManifest.open(path, meta={})
        manifest.record("done", "k1", "cell1", source="a")
        with path.open("a") as handle:
            handle.write('{"event": "done", "key": "torn", "ce')
        survivor = SweepManifest.open(path, meta={})
        survivor.record("done", "k2", "cell2", source="b")
        replayed = SweepManifest.open(path, meta={})
        assert set(replayed.done) == {"k1", "k2"}
        assert "torn" not in replayed.done

    def test_parse_line_rejects_pure_garbage(self):
        assert SweepManifest._parse_line("not json at all") is None
        assert SweepManifest._parse_line('{"torn": "fra') is None

    def test_parse_line_salvages_record_with_nested_objects(self):
        glued = '{"torn": "fra{"event": "done", "key": "k", "x": {"y": 1}}'
        record = SweepManifest._parse_line(glued)
        assert record == {"event": "done", "key": "k", "x": {"y": 1}}

    def test_two_processes_append_simultaneously(self, tmp_path):
        import multiprocessing

        path = tmp_path / "manifest.jsonl"
        SweepManifest.open(path, meta={"key": "abc"})
        mp = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        barrier = mp.Barrier(2)

        def hammer(writer_id, barrier=barrier, path=path):
            manifest = SweepManifest.open(path, meta={})
            barrier.wait()
            for index in range(50):
                manifest.record(
                    "done", f"w{writer_id}-{index}", "cell", source="mp"
                )

        procs = [mp.Process(target=hammer, args=(w,)) for w in range(2)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        replayed = SweepManifest.open(path, meta={})
        expected = {f"w{w}-{i}" for w in range(2) for i in range(50)}
        assert set(replayed.done) == expected


class TestResumeVerification:
    def test_resume_ignores_stale_done_event_for_deleted_entry(self):
        # The manifest says done, but the cache entry vanished entirely
        # (pruned, or written by a host whose store never landed): resume
        # must verify the entry exists and recompute, not trust the
        # journal blindly.
        first = run_grid_supervised(
            BENCHMARKS, SCHEMES, references=REFS, jobs=2, policy=FAST
        )
        disk = result_cache.default_cache()
        victim = sorted((disk.root / "results").rglob("*.json"))[0]
        victim.unlink()
        disk.stats = result_cache.CacheStats()
        runner._MISS_TRACE_CACHE.clear()
        resumed = run_grid_supervised(
            BENCHMARKS, SCHEMES, references=REFS, jobs=2,
            policy=FAST,
        )
        stats = resumed.supervision
        assert stats["cells_resumed"] == len(SCHEMES) - 1
        assert stats["cells_completed"] == 1
        assert _metrics(resumed) == _metrics(first)

    def test_resume_with_series_recomputes_instead_of_dropping(self):
        # Cache entries carry no SnapshotSeries; a resumed sweep that
        # wants series must recompute every cell rather than silently
        # serving series-less cache hits.
        interval = 400
        first = run_grid_supervised(
            BENCHMARKS, ["oracle"], references=REFS, jobs=1,
            policy=FAST, series_interval=interval,
        )
        assert ("gzip", "oracle") in first.series
        runner._MISS_TRACE_CACHE.clear()
        resumed = run_grid_supervised(
            BENCHMARKS, ["oracle"], references=REFS, jobs=1,
            policy=FAST, series_interval=interval,
        )
        assert resumed.supervision["cells_resumed"] == 0
        assert resumed.supervision["cells_completed"] == 1
        assert ("gzip", "oracle") in resumed.series
        assert _metrics(resumed) == _metrics(first)


class TestManifestTailing:
    def test_drain_is_incremental(self, tmp_path):
        from repro.experiments.supervisor import ManifestTail

        path = tmp_path / "journal.jsonl"
        tail = ManifestTail(path)
        assert tail.drain() == []  # file does not exist yet
        with path.open("a") as handle:
            handle.write('{"event": "a"}\n{"event": "b"}\n')
        assert [r["event"] for r in tail.drain()] == ["a", "b"]
        assert tail.drain() == []  # nothing new
        with path.open("a") as handle:
            handle.write('{"event": "c"}\n')
        assert [r["event"] for r in tail.drain()] == ["c"]

    def test_torn_trailing_line_buffered_until_complete(self, tmp_path):
        from repro.experiments.supervisor import ManifestTail

        path = tmp_path / "journal.jsonl"
        tail = ManifestTail(path)
        with path.open("a") as handle:
            handle.write('{"event": "a"}\n{"event": "b"')  # torn append
        assert [r["event"] for r in tail.drain()] == ["a"]
        with path.open("a") as handle:
            handle.write(', "n": 1}\n')  # the append completes
        assert tail.drain() == [{"event": "b", "n": 1}]

    def test_glued_record_salvaged_mid_stream(self, tmp_path):
        from repro.experiments.supervisor import ManifestTail

        path = tmp_path / "journal.jsonl"
        path.write_text('{"torn{"event": "done", "key": "k"}\n{"event": "x"}\n')
        records = ManifestTail(path).drain()
        assert records == [{"event": "done", "key": "k"}, {"event": "x"}]

    def test_sweep_manifest_parse_line_is_the_shared_parser(self):
        from repro.experiments.supervisor import (
            SweepManifest,
            parse_manifest_line,
        )

        assert SweepManifest._parse_line is parse_manifest_line
