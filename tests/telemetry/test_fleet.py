"""Cross-process tracing: context propagation and fleet trace folding."""

import json
import os
import threading
import time

from repro.experiments import supervisor
from repro.experiments.cache import default_cache
from repro.experiments.supervisor import SweepManifest, manifest_path
from repro.service.queue import JobSpec, JobStore
from repro.telemetry.events import (
    EventTracer,
    merge_chrome_traces,
    validate_chrome_trace,
)
from repro.telemetry.fleet import (
    TRACE_ENV,
    TraceContext,
    adopt_trace_context,
    current_trace_context,
    fleet_trace,
    span_record,
)


class TestTraceContext:
    def test_mint_and_child_link_spans(self):
        root = TraceContext.mint("job-1")
        child = root.child()
        assert child.job_id == "job-1"
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    def test_dict_roundtrip(self):
        context = TraceContext.mint("job-2").child()
        assert TraceContext.from_dict(context.to_dict()) == context

    def test_activate_sets_thread_local_only(self, monkeypatch):
        monkeypatch.delenv(TRACE_ENV, raising=False)
        context = TraceContext.mint("job-3")
        assert current_trace_context() is None
        with context.activate():
            assert current_trace_context() == context
            assert os.environ.get(TRACE_ENV) is None
        assert current_trace_context() is None
        assert os.environ.get(TRACE_ENV) is None

    def test_overlapping_jobs_leave_no_stale_context(self, monkeypatch):
        # A enters, B enters, A exits, B exits — on two threads, as two
        # service jobs run.  Nothing may be left naming either job.
        monkeypatch.delenv(TRACE_ENV, raising=False)
        job_a, job_b = TraceContext.mint("job-A"), TraceContext.mint("job-B")
        a_entered, b_entered, a_exited = (threading.Event() for _ in range(3))
        seen = {}

        def run_a():
            with job_a.activate():
                a_entered.set()
                b_entered.wait(5)
                seen["a"] = current_trace_context()
            a_exited.set()

        def run_b():
            a_entered.wait(5)
            with job_b.activate():
                b_entered.set()
                a_exited.wait(5)
                seen["b"] = current_trace_context()

        threads = [threading.Thread(target=run_a), threading.Thread(target=run_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen == {"a": job_a, "b": job_b}
        assert os.environ.get(TRACE_ENV) is None
        assert current_trace_context() is None

    def test_adopt_sets_the_context_in_this_processs_env(self, monkeypatch):
        monkeypatch.setenv(TRACE_ENV, "")  # restored (unset) after the test
        context = TraceContext.mint("job-fork")
        with context.activate():
            handed = current_trace_context()
        # What a forked child runs first: its own environment now carries
        # the job, for itself and for the processes it forks.
        adopt_trace_context(handed)
        assert os.environ[TRACE_ENV] == context.to_env()
        assert current_trace_context() == context

    def test_activate_restores_previous(self):
        outer = TraceContext.mint("job-outer")
        inner = TraceContext.mint("job-inner")
        with outer.activate():
            with inner.activate():
                assert current_trace_context() == inner
            assert current_trace_context() == outer

    def test_thread_local_wins_over_env(self, monkeypatch):
        env_context = TraceContext.mint("job-env")
        monkeypatch.setenv(TRACE_ENV, env_context.to_env())
        assert current_trace_context() == env_context
        local_context = TraceContext.mint("job-local")
        with local_context.activate():
            assert current_trace_context() == local_context

    def test_other_threads_fall_back_to_env(self, monkeypatch):
        # A forked worker's environment carries the job it was handed.
        context = TraceContext.mint("job-t")
        monkeypatch.setenv(TRACE_ENV, context.to_env())
        seen = []
        with TraceContext.mint("job-main-thread").activate():
            thread = threading.Thread(
                target=lambda: seen.append(current_trace_context())
            )
            thread.start()
            thread.join()
        # The worker thread has no thread-local slot; it resolved the
        # env carriage — the same path a forked worker process takes.
        assert seen == [context]

    def test_torn_env_value_is_ignored(self, monkeypatch):
        monkeypatch.setenv(TRACE_ENV, "{not json")
        assert TraceContext.from_env() is None

    def test_span_record_shape(self):
        context = TraceContext.mint("job-4")
        record = span_record("admitted", "scheduler", context, tenant="acme",
                             skipped=None)
        assert record["event"] == "span"
        assert record["name"] == "admitted"
        assert record["role"] == "scheduler"
        assert record["pid"] == os.getpid()
        assert record["trace"] == context.to_dict()
        assert record["tenant"] == "acme"
        assert "skipped" not in record


class TestForkHandOff:
    def test_supervised_cell_worker_runs_under_the_forking_threads_job(
        self, tmp_path, monkeypatch
    ):
        # One real supervised cell, forked while a job is active on this
        # thread.  The worker reports what it and a thread it starts
        # resolve; the thread has no thread-local slot, so it sees the job
        # only if the fork site handed it down into the worker's env.
        monkeypatch.delenv(TRACE_ENV, raising=False)
        report = tmp_path / "worker-context.json"
        run_cell = supervisor.run_cell

        def reporting_run_cell(*args, **kwargs):
            seen = [current_trace_context()]
            thread = threading.Thread(
                target=lambda: seen.append(current_trace_context())
            )
            thread.start()
            thread.join()
            report.write_text(json.dumps({
                "pid": os.getpid(),
                "contexts": [c.to_dict() if c else None for c in seen],
            }))
            return run_cell(*args, **kwargs)

        monkeypatch.setattr(supervisor, "run_cell", reporting_run_cell)
        context = TraceContext.mint("job-supervised")
        with context.activate():
            sweep = supervisor.run_grid_supervised(
                ["stream"], ["baseline"], references=300, use_cache=False,
            )
        assert sweep.supervision["cells_completed"] == 1
        worker = json.loads(report.read_text())
        assert worker["pid"] != os.getpid()
        assert worker["contexts"] == [context.to_dict()] * 2
        assert os.environ.get(TRACE_ENV) is None


class TestManifestTagging:
    def test_manifest_lines_carry_trace_when_active(self, tmp_path):
        manifest = SweepManifest.open(tmp_path / "manifest.jsonl", {"k": "v"})
        context = TraceContext.mint("job-5")
        with context.activate():
            manifest.record("start", "key-1", "stream/baseline", owner="w1")
        manifest.record("done", "key-1", "stream/baseline")
        lines = [
            json.loads(line)
            for line in (tmp_path / "manifest.jsonl").read_text().splitlines()
        ]
        start, done = lines[1], lines[2]
        assert start["trace"]["job_id"] == "job-5"
        assert start["pid"] == os.getpid()
        assert isinstance(start["ts"], float)
        assert "trace" not in done  # no context active: no tag


def _seed_job(tmp_path):
    """A terminal job with spans, manifest lines and a worker beacon."""
    store = JobStore(tmp_path / "service")
    spec = JobSpec(tenant="acme", benchmarks=("stream",), schemes=("baseline",))
    record = store.submit(spec)
    job_id = record.job_id
    root = TraceContext.mint(job_id)
    store.append(job_id, span_record("submitted", "server", root))
    store.append(job_id, span_record("admitted", "scheduler", root.child()))
    store.set_state(job_id, "running", sweep_key=spec.sweep_key)
    store.append(job_id, span_record("scheduled", "scheduler", root.child()))

    cache_root = default_cache().root
    manifest = SweepManifest.open(
        manifest_path(cache_root, spec.sweep_key), {"key": spec.sweep_key}
    )
    child = root.child()
    with child.activate():
        manifest.record(
            "start", "cell-key", "stream/baseline", owner="w1", token=1
        )
        manifest.record("done", "cell-key", "stream/baseline", owner="w1")

    workers_dir = cache_root / "leases" / spec.sweep_key / "workers"
    workers_dir.mkdir(parents=True)
    (workers_dir / "w1.json").write_text(json.dumps({
        "owner": "w1", "pid": 4242, "state": "draining",
        "updated": time.time(),
        "stats": {"cells_executed": 1, "cells_fenced_out": 0},
    }))

    store.append(job_id, span_record("result_stored", "scheduler", root.child()))
    store.set_state(job_id, "done")
    store.append(job_id, {
        "event": "latency", "ts": time.time(),
        "submit_to_result_sec": 0.5, "submit_to_schedule_sec": 0.1,
    })
    return store, job_id


class TestFleetTrace:
    def test_folds_all_sources_into_valid_trace(self, tmp_path):
        store, job_id = _seed_job(tmp_path)
        payload = fleet_trace(job_id, store=store)
        assert validate_chrome_trace(payload) == []

        lanes = {
            event["args"]["name"]: event["pid"]
            for event in payload["traceEvents"]
            if event.get("ph") == "M" and event["name"] == "process_name"
        }
        assert set(lanes) == {"server", "scheduler", "worker-w1"}

        names = {
            event["name"]
            for event in payload["traceEvents"]
            if event.get("ph") == "i"
        }
        assert {"submitted", "admitted", "scheduled", "result_stored",
                "lease_claimed", "beacon"} <= names

        # Lifecycle spans land on the lane their role names.
        by_name = {
            event["name"]: event
            for event in payload["traceEvents"]
            if event.get("ph") == "i"
        }
        assert by_name["submitted"]["pid"] == lanes["server"]
        assert by_name["admitted"]["pid"] == lanes["scheduler"]
        assert by_name["lease_claimed"]["pid"] == lanes["worker-w1"]

        # The job's state machine renders as spans plus one flow arrow.
        states = [
            event["name"]
            for event in payload["traceEvents"]
            if event.get("ph") == "X" and event["name"].startswith("job:")
        ]
        assert states == ["job:queued", "job:running", "job:done"]
        assert [e["ph"] for e in payload["traceEvents"]
                if e["ph"] in ("s", "t", "f")] == ["s", "t", "f"]

        # The cell ran on the worker lane, with its duration span.
        cells = [
            event
            for event in payload["traceEvents"]
            if event.get("ph") == "X" and event["name"].startswith("cell:")
        ]
        assert len(cells) == 1
        assert cells[0]["pid"] == lanes["worker-w1"]
        assert cells[0]["args"]["outcome"] == "done"

        assert payload["otherData"]["job_id"] == job_id
        assert payload["otherData"]["state"] == "done"

    def test_foreign_jobs_sharing_manifest_are_excluded(self, tmp_path):
        store, job_id = _seed_job(tmp_path)
        record = store.job(job_id)
        cache_root = default_cache().root
        manifest = SweepManifest.open(
            manifest_path(cache_root, record.spec.sweep_key), {}
        )
        foreign = TraceContext.mint("job-other")
        with foreign.activate():
            manifest.record("start", "other-key", "stream/oracle", owner="w9")
        payload = fleet_trace(job_id, store=store)
        lanes = {
            event["args"]["name"]
            for event in payload["traceEvents"]
            if event.get("ph") == "M" and event["name"] == "process_name"
        }
        assert "worker-w9" not in lanes

    def test_unknown_job_raises_keyerror(self, tmp_path):
        store = JobStore(tmp_path / "service")
        try:
            fleet_trace("job-missing", store=store)
        except KeyError:
            pass
        else:
            raise AssertionError("expected KeyError for unknown job")


class TestFleetMerge:
    """merge_chrome_traces over fleet-shaped inputs (the satellite)."""

    def _lane(self, spans, counters=(), flows=()):
        tracer = EventTracer()
        for name, start, end in spans:
            tracer.span(name, start=start, end=end, track="cells")
        for name, at, value in counters:
            tracer.counter(name, at=at, track="load", value=value)
        for name, phase, at, flow_id in flows:
            getattr(tracer, f"flow_{phase}")(name, at=at, flow_id=flow_id)
        return tracer

    def test_each_process_gets_its_own_pid_group(self):
        labeled = [
            ("scheduler", self._lane([("job", 0, 10)])),
            ("worker-w1", self._lane([("cell:a", 2, 6)])),
            ("worker-w2", self._lane([("cell:b", 3, 8)])),
        ]
        payload = merge_chrome_traces(labeled, align=False)
        assert validate_chrome_trace(payload) == []
        meta = {
            event["args"]["name"]: event["pid"]
            for event in payload["traceEvents"]
            if event["ph"] == "M" and event["name"] == "process_name"
        }
        assert meta == {"scheduler": 1, "worker-w1": 2, "worker-w2": 3}
        for event in payload["traceEvents"]:
            if event["ph"] == "X":
                expected = 1 if event["name"] == "job" else (
                    2 if event["name"] == "cell:a" else 3
                )
                assert event["pid"] == expected

    def test_flow_ids_are_namespaced_per_lane(self):
        def flowy():
            tracer = EventTracer()
            flow = tracer.next_flow_id()
            tracer.flow_begin("hop", at=0, flow_id=flow)
            tracer.flow_step("hop", at=5, flow_id=flow)
            tracer.flow_end("hop", at=9, flow_id=flow)
            return tracer

        payload = merge_chrome_traces(
            [("scheduler", flowy()), ("worker-w1", flowy())], align=False
        )
        assert validate_chrome_trace(payload) == []
        flow_ids = {
            event["pid"]: event["id"]
            for event in payload["traceEvents"]
            if event["ph"] == "s"
        }
        # Same local flow id in both lanes, but the merged ids must not
        # collide or the arrows would cross-link between processes.
        assert len(set(flow_ids.values())) == 2
        for pid, flow_id in flow_ids.items():
            assert flow_id.startswith(f"{pid}.")

    def test_counter_tracks_stay_monotone_per_lane(self):
        lanes = [
            ("scheduler", self._lane([], counters=[("depth", 0, 1),
                                                   ("depth", 5, 3)])),
            ("worker-w1", self._lane([], counters=[("depth", 2, 7)])),
        ]
        payload = merge_chrome_traces(lanes, align=False)
        assert validate_chrome_trace(payload) == []
        seen: dict[int, list[int]] = {}
        for event in payload["traceEvents"]:
            if event["ph"] == "C":
                seen.setdefault(event["pid"], []).append(event["ts"])
        for stamps in seen.values():
            assert stamps == sorted(stamps)

    def test_unaligned_merge_preserves_wall_clock_order(self):
        early = self._lane([("first", 100, 200)])
        late = self._lane([("second", 300, 400)])
        payload = merge_chrome_traces(
            [("a", early), ("b", late)], align=False
        )
        spans = {
            event["name"]: event["ts"]
            for event in payload["traceEvents"]
            if event["ph"] == "X"
        }
        assert spans["first"] < spans["second"]  # align=True would zero both
