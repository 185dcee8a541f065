"""service_jobs: two tenants in a closed loop against ``repro serve``.

The service runs as its own process, started with its defaults on a
private store.  Each tenant has one connection at a time and waits for a
job's result bytes before it submits again.  Every fifth job of a tenant
is a fresh two-cell grid (``bzip2`` under ``baseline`` and
``pred_regular`` at 1 500 references, under a workload seed no job used
before) that the supervisor computes; the other four resubmit a grid that
is already finished: one of the tenant's own from this round or any grid
from an earlier round.  Compute per job is small, so HTTP, admission,
the job journal, the supervisor and result serialization dominate.

Fresh grids all use one model so that they cost alike: one fresh job in
five puts the 90th percentile in the middle of the fresh jobs, where
models of different cost would make it jump with the seed.  The seed
picks the fresh grids' workload seeds and which finished grid each warm
job resubmits.

The client polls job state every 10 ms; the client's own 0.1 s default
would quantize a job that takes 0.05 s.

Times are in seconds at the reference speed (``ReferenceClock``), from
the harness's own samples: over a run the host's two vCPUs speed up and
slow down together.  The median job alone is read in wall seconds.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from harness.common import (
    HarnessError, Measurement, RunContext, peak_rss_mb, rounds_for,
)
from harness.tracing import load_spool

LAYERS = ()    # client-side job spans only; the server traces itself
# A round takes about 0.9 s, but the service replays every stored job on
# each admission pass and each POST, so each round is slower than the
# last and the server's CPU use grows with the store.  Five rounds in a
# 10 s run (50 jobs) keep that growth, and with it the run's exposure to
# a busy host, small (see the README).
NOMINAL_ROUND_S = 2.0
POLL_S = 0.01
TENANTS = ("tenant-a", "tenant-b")
FRESH_MODEL = "bzip2"
SCHEMES = ("baseline", "pred_regular")
WARM_PER_FRESH = 4
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0
JOB_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Size:
    references: int


FULL = Size(references=1_500)
SMOKE = Size(references=800)


@dataclass(frozen=True)
class Grid:
    benchmark: str
    seed: int


class Service:
    """One ``repro serve`` process on a private store."""

    def __init__(self, run_dir: Path, spool: Path | None):
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")
        if spool is None:
            command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        else:
            launcher = Path(__file__).resolve().parent / "traced_server.py"
            command = [sys.executable, str(launcher), str(spool), "serve", "--port", "0"]
        self.log = run_dir / "server.log"
        with self.log.open("w") as log:
            self.process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=env
            )
        self.url = self._wait_ready()

    def _wait_ready(self) -> str:
        from repro.service.client import ServiceClient, ServiceError

        deadline = time.monotonic() + START_TIMEOUT_S
        url = None
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise HarnessError(f"repro serve exited: {self.log.read_text()}")
            if url is None:
                for line in self.log.read_text().splitlines():
                    if line.startswith("repro service listening on "):
                        url = line.rsplit(" ", 1)[1]
            if url is not None:
                try:
                    if ServiceClient(url).ready()["ready"]:
                        return url
                except (ServiceError, OSError):
                    pass
            time.sleep(0.01)
        self.stop()
        raise HarnessError("repro serve did not become ready")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def tenant_plan(rng: random.Random, used: set[int]) -> list[Grid | None]:
    """One tenant's jobs in one round: a fresh grid, then four warm (None)."""
    seed = rng.randrange(1 << 31)
    while seed in used:
        seed = rng.randrange(1 << 31)
    used.add(seed)
    return [Grid(FRESH_MODEL, seed)] + [None] * WARM_PER_FRESH


def run_job(client, tenant: str, grid: Grid, size: Size, kind: str) -> dict:
    """Submit, poll until terminal, fetch the result bytes; client-side timings."""
    started = time.perf_counter()
    receipt = client.submit(
        tenant, [grid.benchmark], list(SCHEMES),
        references=size.references, seed=grid.seed,
    )
    submitted = time.perf_counter()
    job_id = receipt["job_id"]
    polls, running_at = 0, None
    while True:
        record = client.job(job_id)
        polls += 1
        now = time.perf_counter()
        if running_at is None and record["state"] != "queued":
            running_at = now
        if record["state"] in ("done", "failed", "cancelled"):
            break
        if now - submitted > JOB_TIMEOUT_S:
            record = {**record, "state": f"{record['state']} after {JOB_TIMEOUT_S} s"}
            running_at = running_at or now
            break
        time.sleep(POLL_S)
    finished = time.perf_counter()
    body = client.result_bytes(job_id) if record["state"] == "done" else b""
    ended = time.perf_counter()
    return {
        "job_id": job_id,
        "tenant": tenant,
        "grid": grid,
        "kind": kind,
        "latency_s": ended - started,
        "submit_s": submitted - started,
        "queued_s": running_at - submitted,
        "run_s": finished - running_at,
        "result_s": ended - finished,
        "polls": polls,
        "state": record["state"],
        "detail": record["detail"],
        "body": body,
    }


def check_jobs(jobs: list[dict]) -> list[str]:
    """Every job done and complete; cache accounting matches the harness's record."""
    problems = []
    first_body: dict[Grid, bytes] = {}
    for job in jobs:
        where = f"{job['tenant']} {job['grid']} ({job['kind']})"
        detail = job["detail"]
        if job["state"] != "done" or not detail.get("complete"):
            problems.append(f"{where}: ended {job['state']} {detail}")
            continue
        total, hits = detail.get("cells_total"), detail.get("cache_hits")
        if job["kind"] == "fresh" and hits != 0:
            problems.append(f"{where}: a grid's first job reported {hits} cache hits")
        if job["kind"] == "warm" and hits != total:
            problems.append(f"{where}: a finished grid reported {hits}/{total} hits")
        body = first_body.setdefault(job["grid"], job["body"])
        if job["body"] != body:
            problems.append(f"{where}: result bytes differ from the grid's first job")
    return problems


def check_results(jobs: list[dict], size: Size) -> list[str]:
    """Each grid's bytes equal an in-process serial ``run_grid`` of its spec."""
    from repro.experiments.sweep import run_grid

    problems = []
    for job in jobs:
        if job["kind"] != "fresh" or job["state"] != "done":
            continue
        grid = job["grid"]
        expected = run_grid(
            [grid.benchmark], list(SCHEMES), references=size.references, seed=grid.seed
        ).canonical_json().encode("utf-8")
        if job["body"] != expected:
            problems.append(f"{grid}: service bytes differ from an in-process run_grid")
    return problems


def run(ctx: RunContext, size: Size = FULL) -> Measurement:
    from repro.service.client import ServiceClient

    measurement = Measurement()
    spool = ctx.out_dir / "spool" if ctx.tracer is not None else None
    service = Service(ctx.out_dir, spool)
    jobs: list[dict] = []
    try:
        clients = [ServiceClient(service.url) for _ in TENANTS]
        rngs = [random.Random(f"{ctx.seed}/{tenant}") for tenant in TENANTS]
        finished: list[Grid] = []
        used: set[int] = set()
        clock = ctx.clock
        measurement.setup_s = clock.setup()
        for _ in range(rounds_for(ctx.seconds, NOMINAL_ROUND_S)):
            plans = [tenant_plan(rngs[t], used) for t in range(len(TENANTS))]
            records: list[list[dict]] = [[] for _ in TENANTS]
            errors: list[BaseException] = []

            def tenant_loop(t: int) -> None:
                own: list[Grid] = []
                try:
                    for grid in plans[t]:
                        kind = "fresh" if grid is not None else "warm"
                        if grid is None:
                            grid = rngs[t].choice(own + finished)
                        with ctx.operation("service.job") as span, clock.operation():
                            job = run_job(clients[t], TENANTS[t], grid, size, kind)
                            if span is not None:
                                # The server's spans of this job carry its id.
                                span["op"] = job["job_id"]
                        records[t].append(job)
                        if kind == "fresh":
                            own.append(grid)
                except BaseException as error:  # re-raised by the main thread
                    errors.append(error)

            clock.lap()  # the round starts here
            other = threading.Thread(target=tenant_loop, args=(1,))
            other.start()
            tenant_loop(0)
            other.join()
            measurement.round_s.append(clock.lap())
            if errors:
                raise errors[0]
            for tenant_records in records:
                jobs.extend(tenant_records)
                finished.extend(j["grid"] for j in tenant_records if j["kind"] == "fresh")
    finally:
        ctx.end_timed_phase()
        service.stop()
    # Only now, with the server reaped, does its peak reach RUSAGE_CHILDREN.
    measurement.peak_rss_mb = peak_rss_mb()

    measurement.op_s = clock.op_s
    # The median job is a warm one, about half of it fixed waits (the
    # admission loop's 50 ms sleep, the 10 ms polls) that a faster host
    # does not shorten, so its median is read in wall seconds: scaled by
    # the host's speed it spread by 16% over ten runs.
    measurement.median_op_s = [job["latency_s"] for job in jobs]
    measurement.attempted = len(jobs)
    measurement.expect(check_jobs(jobs))
    measurement.expect(check_results(jobs, size))
    measurement.notes["jobs"] = jobs
    if spool is not None:
        measurement.notes["server_spans"] = load_spool(spool)
    return measurement
