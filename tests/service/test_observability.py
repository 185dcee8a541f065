"""The observability plane end to end: probes, metrics, traces, top.

The acceptance test for the fleet observability plane: a job submitted
through the HTTP service, whose supervisor forks one worker process per
cell, must yield a valid fleet trace whose spans come from at least
three distinct OS processes, and ``/metrics`` must stay lintable with
monotone counters across scrapes.
"""

import json
import time

import pytest

from repro.cli import main
from repro.experiments.cache import default_cache
from repro.experiments.supervisor import manifest_path
from repro.service.client import ServiceClient, ServiceError
from repro.service.queue import JobStore
from repro.service.scheduler import SchedulerPolicy, ServiceScheduler
from repro.service.server import serve_in_thread
from repro.telemetry.events import validate_chrome_trace
from repro.telemetry.prometheus import check_monotone_counters, lint_exposition
from repro.telemetry.top import fleet_snapshot, render_top, watch

_REFS = 800
_BENCHMARKS = ["stream"]
_SCHEMES = ["baseline", "pred_regular"]


@pytest.fixture
def service(tmp_path):
    handle = serve_in_thread(
        ServiceScheduler(
            store=JobStore(tmp_path / "service"),
            policy=SchedulerPolicy(
                sample_interval_seconds=0.02, poll_interval_seconds=0.01
            ),
        )
    )
    try:
        yield ServiceClient(handle.url), handle
    finally:
        handle.stop()


def _wait_ready(client, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            return client.ready()
        except ServiceError:
            time.sleep(0.05)
    raise AssertionError("service never became ready")


class TestProbes:
    def test_healthz_answers(self, service):
        client, _ = service
        assert client.health() == {"ok": True}

    def test_readyz_reports_checks(self, service):
        client, _ = service
        verdict = _wait_ready(client)
        assert verdict["ready"] is True
        assert verdict["checks"]["store_writable"]["ok"] is True
        assert verdict["checks"]["scheduler_loop"]["ok"] is True

    def test_readyz_is_503_when_loop_dead(self, service, monkeypatch):
        client, handle = service
        # Writing a stale last_tick races the live admission loop (it
        # re-stamps every poll); pin the derived age instead.
        monkeypatch.setattr(
            handle.server.scheduler, "heartbeat_age", lambda: 3600.0
        )
        with pytest.raises(ServiceError) as excinfo:
            client.ready()
        assert excinfo.value.status == 503
        assert excinfo.value.payload["ready"] is False
        assert excinfo.value.payload["checks"]["scheduler_loop"]["ok"] is False


class TestMetricsEndpoint:
    def test_exposition_lints_and_counters_are_monotone(self, service):
        client, _ = service
        cold = client.metrics()
        assert lint_exposition(cold) == []

        receipt = client.submit(
            "acme", _BENCHMARKS, ["baseline"], references=_REFS, seed=1
        )
        assert client.wait(receipt["job_id"])["state"] == "done"

        warm = client.metrics()
        assert lint_exposition(warm) == []
        assert check_monotone_counters(cold, warm) == []
        assert "repro_service_jobs_admitted_total 1" in warm
        assert "repro_service_http_requests_total" in warm
        assert 'tenant="acme"' in warm

    def test_latency_histograms_exported_per_stage(self, service):
        client, _ = service
        receipt = client.submit(
            "acme", _BENCHMARKS, ["baseline"], references=_REFS, seed=1
        )
        assert client.wait(receipt["job_id"])["state"] == "done"
        text = client.metrics()
        for stage in (
            "submit_to_schedule_sec",
            "schedule_to_first_cell_sec",
            "first_cell_to_result_sec",
            "submit_to_result_sec",
        ):
            assert f"repro_service_latency_{stage}_count 1" in text

    def test_handler_failures_are_counted(self, service, monkeypatch):
        client, handle = service
        registry = handle.server.scheduler.registry
        before = registry.counter("service.http.errors").value

        def boom(tenant):
            raise RuntimeError("kaboom")

        # The fault barrier must absorb the handler crash, answer a
        # structured 500, and count the invisible failure.
        monkeypatch.setattr(handle.server.scheduler, "usage", boom)
        with pytest.raises(ServiceError) as excinfo:
            client.usage("acme")
        assert excinfo.value.status == 500
        assert registry.counter("service.http.errors").value == before + 1


class TestFleetTraceAcceptance:
    def test_job_trace_spans_three_processes(self, service):
        client, handle = service
        receipt = client.submit(
            "acme", _BENCHMARKS, _SCHEMES, references=_REFS, seed=1
        )
        job_id = receipt["job_id"]
        assert receipt["trace"]["job_id"] == job_id
        assert client.wait(job_id, timeout=120.0)["state"] == "done"

        payload = client.trace(job_id)
        assert validate_chrome_trace(payload) == []

        lanes = {
            event["args"]["name"]
            for event in payload["traceEvents"]
            if event.get("ph") == "M" and event["name"] == "process_name"
        }
        assert len(lanes) >= 3
        assert {"server", "scheduler"} <= lanes

        # Records written by >= 3 distinct OS processes, all correlated
        # by the job's trace context: journal spans, and manifest lines
        # that carry the pid of the worker that ran each cell.
        store = handle.server.scheduler.store
        record = store.job(job_id)
        pids = {
            event["pid"]
            for event in record.events
            if event.get("event") == "span" and isinstance(event.get("pid"), int)
        }
        manifest = manifest_path(default_cache().root, record.spec.sweep_key)
        for line in manifest.read_text().splitlines()[1:]:
            entry = json.loads(line)
            if entry.get("trace", {}).get("job_id") == job_id:
                pids.add(entry["pid"])
        assert len(pids) >= 3

        names = {
            event["name"]
            for event in payload["traceEvents"]
            if event.get("ph") in ("i", "X")
        }
        assert {"submitted", "admitted", "scheduled", "result_stored"} <= names

    def test_trace_of_unknown_job_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.trace("job-nope")
        assert excinfo.value.status == 404


class TestTopAndWatch:
    def test_fleet_snapshot_folds_jobs(self, service):
        client, handle = service
        receipt = client.submit(
            "acme", _BENCHMARKS, ["baseline"], references=_REFS, seed=1
        )
        assert client.wait(receipt["job_id"])["state"] == "done"
        snapshot = fleet_snapshot(store=handle.server.scheduler.store)
        assert len(snapshot["jobs"]) == 1
        job = snapshot["jobs"][0]
        assert job["job_id"] == receipt["job_id"]
        assert job["state"] == "done"
        assert job["cells_done"] == 1
        assert job["cells_total"] == 1
        assert job["age"] is not None
        assert "acme" in snapshot["tenants"]
        screen = render_top(snapshot)
        assert receipt["job_id"] in screen
        assert "acme" in screen

    def test_watch_once_writes_single_screen(self, tmp_path, capsys):
        import io

        stream = io.StringIO()
        watch(store=JobStore(tmp_path / "empty"), once=True, stream=stream)
        assert "(no jobs)" in stream.getvalue()

    def test_cli_top_once(self, capsys):
        assert main(["top", "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro fleet" in out

    def test_cli_jobs_shows_age_columns(self, service, capsys, monkeypatch):
        client, handle = service
        receipt = client.submit(
            "acme", _BENCHMARKS, ["baseline"], references=_REFS, seed=1
        )
        assert client.wait(receipt["job_id"])["state"] == "done"
        assert main(["jobs", "--url", handle.url]) == 0
        out = capsys.readouterr().out
        assert receipt["job_id"] in out
        assert "age" in out
        assert "ev" in out

    def test_cli_trace_job_writes_fleet_trace(
        self, service, tmp_path, capsys, monkeypatch
    ):
        client, handle = service
        receipt = client.submit(
            "acme", _BENCHMARKS, ["baseline"], references=_REFS, seed=1
        )
        assert client.wait(receipt["job_id"])["state"] == "done"
        # The CLI folds from the default JobStore; point it at this one.
        monkeypatch.setattr(
            "repro.service.queue.JobStore",
            lambda root=None: handle.server.scheduler.store,
        )
        out_path = tmp_path / "fleet.json"
        assert main(["trace", "--job", receipt["job_id"],
                     "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert validate_chrome_trace(payload) == []
        assert payload["otherData"]["job_id"] == receipt["job_id"]

    def test_cli_trace_without_benchmark_or_job_errors(self, capsys):
        assert main(["trace"]) == 2
        assert "required" in capsys.readouterr().err
