"""Observability smoke: the CI gate for the fleet observability plane.

Starts a real service with its default executor (the supervisor forks
one worker process per cell, so the job genuinely spans multiple OS
processes), submits one tiny grid, and asserts the observability
contract end to end:

1. **probes** — ``GET /healthz`` answers and ``GET /readyz`` reports
   ready (store writable, admission loop heartbeating);
2. **metrics** — ``GET /metrics`` passes the pure-python exposition
   linter on both a cold and a warm scrape, and every counter is
   monotone between the two;
3. **trace** — ``GET /v1/jobs/{id}/trace`` returns a Chrome trace that
   passes :func:`~repro.telemetry.events.validate_chrome_trace`, spans
   at least three process lanes, and is stitched from records written
   by at least three distinct OS processes carrying the job's trace
   context.

``--artifacts DIR`` saves both scrapes, the merged trace, and the
report for CI upload.  Run directly (CI's ``metrics-smoke`` job)::

    PYTHONPATH=src python -m repro.service.obs_smoke --refs 2000 \
        --artifacts obs-artifacts --json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.experiments import cache as result_cache
from repro.service.client import ServiceClient
from repro.service.queue import JobStore
from repro.service.scheduler import SchedulerPolicy, ServiceScheduler
from repro.service.server import serve_in_thread
from repro.telemetry.events import validate_chrome_trace
from repro.telemetry.prometheus import (
    check_monotone_counters,
    lint_exposition,
    parse_exposition,
)

__all__ = ["run_obs_smoke", "main"]

_BENCHMARKS = ["stream", "gzip"]
_SCHEMES = ["baseline", "pred_regular"]
_TENANT = "obs-smoke"


def _wait_ready(client: ServiceClient, timeout: float = 10.0) -> dict:
    """Poll ``/readyz`` until ready (the loop needs one tick to start)."""
    from repro.service.client import ServiceError

    deadline = time.monotonic() + timeout
    last: dict = {}
    while time.monotonic() < deadline:
        try:
            return client.ready()
        except ServiceError as err:
            last = err.payload
        time.sleep(0.1)
    raise AssertionError(f"service never became ready: {last}")


def _observed_pids(store: JobStore, job_id: str, cache_root: Path) -> set[int]:
    """Distinct OS pids that wrote records carrying this job's context.

    Journal spans and manifest lines are trace-tagged directly, and a
    cell's manifest lines carry the pid of the worker that ran it —
    together they witness every process the job touched.
    """
    from repro.experiments.supervisor import manifest_path, parse_manifest_line

    record = store.job(job_id)
    pids: set[int] = set()
    for event in record.events:
        if event.get("event") == "span" and isinstance(event.get("pid"), int):
            pids.add(event["pid"])
    sweep_key = record.spec.sweep_key
    try:
        manifest_text = manifest_path(cache_root, sweep_key).read_text()
    except OSError:
        manifest_text = ""
    for line in manifest_text.splitlines():
        parsed = parse_manifest_line(line.strip()) if line.strip() else None
        if parsed is None:
            continue
        trace = parsed.get("trace") or {}
        if trace.get("job_id") != job_id:
            continue
        if isinstance(parsed.get("pid"), int):
            pids.add(parsed["pid"])
    return pids


def run_obs_smoke(
    references: int = 2000,
    seed: int = 1,
    cache_dir: str | None = None,
    artifacts: str | None = None,
) -> dict:
    """Run the observability smoke; returns the report, raises on violation."""
    saved_env = os.environ.get(result_cache.CACHE_DIR_ENV)
    if cache_dir is not None:
        os.environ[result_cache.CACHE_DIR_ENV] = str(cache_dir)
        result_cache.reset_default_cache()
    started = time.perf_counter()
    artifacts_dir = Path(artifacts) if artifacts else None
    if artifacts_dir is not None:
        artifacts_dir.mkdir(parents=True, exist_ok=True)

    def _save(name: str, text: str) -> None:
        if artifacts_dir is not None:
            (artifacts_dir / name).write_text(text)

    try:
        store = JobStore()
        handle = serve_in_thread(
            ServiceScheduler(
                store=store,
                policy=SchedulerPolicy(sample_interval_seconds=0.05),
            )
        )
        try:
            client = ServiceClient(handle.url)

            # 1. probes.
            health = client.health()
            if health != {"ok": True}:
                raise AssertionError(f"unexpected /healthz payload: {health}")
            verdict = _wait_ready(client)
            if not verdict.get("ready"):
                raise AssertionError(f"/readyz not ready: {verdict}")

            # 2. cold scrape lints before any job exists.
            cold = client.metrics()
            _save("metrics-cold.txt", cold)
            problems = lint_exposition(cold)
            if problems:
                raise AssertionError(f"cold /metrics fails lint: {problems}")

            # 3. one tiny job, one forked worker per cell.
            receipt = client.submit(
                _TENANT, _BENCHMARKS, _SCHEMES, references=references, seed=seed
            )
            job_id = receipt["job_id"]
            if not receipt.get("trace", {}).get("job_id") == job_id:
                raise AssertionError(f"receipt carries no trace context: {receipt}")
            record = client.wait(job_id, timeout=300.0)
            if record["state"] != "done":
                raise AssertionError(f"job ended {record['state']}: {record}")

            # 4. warm scrape: still lints, counters moved only forward.
            warm = client.metrics()
            _save("metrics-warm.txt", warm)
            problems = lint_exposition(warm)
            if problems:
                raise AssertionError(f"warm /metrics fails lint: {problems}")
            regressions = check_monotone_counters(cold, warm)
            if regressions:
                raise AssertionError(f"counters moved backwards: {regressions}")
            families = parse_exposition(warm)
            for required in (
                "repro_service_http_requests_total",
                "repro_service_jobs_admitted_total",
                "repro_service_latency_submit_to_result_sec",
            ):
                if required not in families:
                    raise AssertionError(f"/metrics is missing {required}")

            # 5. the fleet trace spans the whole fleet.
            trace = client.trace(job_id)
            _save("trace.json", json.dumps(trace, sort_keys=True))
            trace_problems = validate_chrome_trace(trace)
            if trace_problems:
                raise AssertionError(f"fleet trace invalid: {trace_problems}")
            lanes = {
                event["args"]["name"]
                for event in trace["traceEvents"]
                if event.get("ph") == "M" and event.get("name") == "process_name"
            }
            if len(lanes) < 3:
                raise AssertionError(f"expected >=3 process lanes, got {lanes}")
            pids = _observed_pids(store, job_id, result_cache.default_cache().root)
            if len(pids) < 3:
                raise AssertionError(
                    f"expected records from >=3 distinct OS processes, got {pids}"
                )
        finally:
            handle.stop()

        report = {
            "ok": True,
            "references": references,
            "job_id": job_id,
            "lanes": sorted(lanes),
            "distinct_pids": len(pids),
            "trace_events": len(trace["traceEvents"]),
            "metric_families": len(families),
            "elapsed_sec": round(time.perf_counter() - started, 3),
        }
        _save("report.json", json.dumps(report, indent=2, sort_keys=True))
        return report
    finally:
        if cache_dir is not None:
            if saved_env is None:
                os.environ.pop(result_cache.CACHE_DIR_ENV, None)
            else:
                os.environ[result_cache.CACHE_DIR_ENV] = saved_env
            result_cache.reset_default_cache()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="observability smoke test")
    parser.add_argument("--refs", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--artifacts", default=None, metavar="DIR",
        help="save scrapes, trace and report here for CI upload",
    )
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    args = parser.parse_args(argv)
    report = run_obs_smoke(
        references=args.refs,
        seed=args.seed,
        artifacts=args.artifacts,
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            f"obs smoke ok: job {report['job_id']}, "
            f"{len(report['lanes'])} lanes, {report['distinct_pids']} pids, "
            f"{report['metric_families']} metric families, "
            f"{report['elapsed_sec']}s"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
