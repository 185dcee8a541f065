"""Asyncio job scheduler: admission under quotas, execution, accounting.

The scheduler is the only component that runs grids.  Admission applies
per-tenant quotas (inflight jobs, concurrent jobs, cells per job) and a
global concurrency cap; execution routes each admitted job through
:func:`~repro.experiments.supervisor.run_grid_supervised` in a worker
thread, with ``use_cache=True`` so cells another tenant — or a previous
life of this service — already computed are served from the
content-addressed cache instead of re-run.

Dedup accounting is measured, not trusted: ``cache_hits`` is the number
of cells the supervisor served from verified cache entries, and the
remainder is ``cells_computed``.  The two always sum to the grid size,
and because keys are content-addressed the same split is what any tenant
would observe — cross-tenant dedup shows up as a second tenant's job
arriving all-hits.
"""

from __future__ import annotations

import asyncio
import re
import time
from dataclasses import dataclass

from repro.experiments.cache import default_cache
from repro.experiments.supervisor import (
    ManifestTail,
    SupervisorPolicy,
    manifest_path,
    run_grid_supervised,
)
from repro.service.queue import TERMINAL_STATES, JobRecord, JobSpec, JobStore
from repro.telemetry.fleet import TraceContext, span_record
from repro.telemetry.log import get_logger
from repro.telemetry.registry import MetricRegistry
from repro.telemetry.snapshot import MetricsSnapshot

__all__ = [
    "TenantQuota",
    "SchedulerPolicy",
    "QuotaExceeded",
    "ServiceScheduler",
]


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits (the multi-tenant fairness contract)."""

    max_inflight_jobs: int = 4       # queued + running at once
    max_concurrent_jobs: int = 1     # running at once
    max_cells_per_job: int = 256     # grid size ceiling per submission


@dataclass(frozen=True)
class SchedulerPolicy:
    """Service-wide execution knobs."""

    max_concurrent_jobs: int = 2          # across all tenants
    sample_interval_seconds: float = 0.25  # progress-sample cadence
    poll_interval_seconds: float = 0.05    # admission-loop cadence
    cell_jobs: int = 1                     # worker processes per grid


class QuotaExceeded(Exception):
    """A submission the tenant's quota rejects (HTTP 429 at the edge)."""

    status = 429

    def __init__(self, tenant: str, reason: str, limit: int, current: int):
        super().__init__(
            f"tenant {tenant!r} over quota: {reason} (limit {limit}, at {current})"
        )
        self.tenant = tenant
        self.reason = reason
        self.limit = limit
        self.current = current

    def to_dict(self) -> dict:
        return {
            "error": {
                "type": "quota_exceeded",
                "status": self.status,
                "message": str(self),
                "tenant": self.tenant,
                "reason": self.reason,
                "limit": self.limit,
                "current": self.current,
            }
        }


def _tenant_slug(tenant: str) -> str:
    return re.sub(r"[^a-z0-9_]", "_", tenant.lower())


#: Seconds buckets resolving both a warm all-cache-hits job (~10ms) and a
#: cold multi-cell grid (minutes).
LATENCY_BOUNDS_SECONDS = (
    0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)

_LOG = get_logger("scheduler")


class ServiceScheduler:
    """Admission + execution loop over a :class:`JobStore`.

    Synchronous entry points (:meth:`submit`, :meth:`usage`,
    :meth:`cancel`) are safe to call from the server's event loop; the
    grid itself runs in a thread via ``run_in_executor`` so the loop stays
    responsive while a job computes.
    """

    def __init__(
        self,
        store: JobStore | None = None,
        quota: TenantQuota | None = None,
        quotas: dict[str, TenantQuota] | None = None,
        policy: SchedulerPolicy | None = None,
        registry: MetricRegistry | None = None,
    ):
        self.store = store or JobStore()
        self.quota = quota or TenantQuota()
        self.quotas = dict(quotas or {})
        self.policy = policy or SchedulerPolicy()
        self.registry = registry or MetricRegistry()
        self._stop = False
        self._active: dict[str, asyncio.Task] = {}
        self._cancelled: set[str] = set()
        self._denials: dict[str, int] = {}
        #: Wall clock of the admission loop's last iteration — the
        #: liveness signal behind ``GET /readyz``.
        self.last_tick = 0.0

    # -- admission -------------------------------------------------------------

    def tenant_quota(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.quota)

    def submit(self, spec: JobSpec, origin: str = "scheduler") -> dict:
        """Admit one job or raise :class:`QuotaExceeded`.

        Returns the submission receipt: job id, state, sweep key, the
        dedup precheck — which of the grid's cache keys already resolve
        (possibly computed by *other* tenants; content addressing makes
        that indistinguishable from this tenant's own warm cache, which
        is the point) — and the job's freshly minted trace context.

        ``origin`` names the layer that accepted the submission (the HTTP
        front door passes ``"server"``); it becomes the role of the
        ``submitted`` span, so the fleet trace renders the entry point as
        its own process lane.
        """
        quota = self.tenant_quota(spec.tenant)
        cells = spec.cells()
        if len(cells) > quota.max_cells_per_job:
            self._deny(spec.tenant)
            raise QuotaExceeded(
                spec.tenant, "cells per job", quota.max_cells_per_job, len(cells)
            )
        inflight = [
            record
            for record in self.store.jobs(spec.tenant)
            if record.state not in TERMINAL_STATES
        ]
        if len(inflight) >= quota.max_inflight_jobs:
            self._deny(spec.tenant)
            raise QuotaExceeded(
                spec.tenant, "inflight jobs", quota.max_inflight_jobs, len(inflight)
            )
        disk = default_cache()
        cached = [key for _, _, key in cells if disk.lookup_cell(key) is not None]
        record = self.store.submit(spec)
        root = TraceContext.mint(record.job_id)
        self.store.append(
            record.job_id,
            span_record("submitted", origin, root, tenant=spec.tenant),
        )
        self.store.append(
            record.job_id, span_record("admitted", "scheduler", root.child())
        )
        self.registry.counter("service.jobs.admitted").inc()
        self._refresh_queue_depth()
        _LOG.info(
            "job admitted", job=record.job_id, tenant=spec.tenant,
            cells=len(cells), cached=len(cached),
        )
        return {
            "job_id": record.job_id,
            "state": record.state,
            "sweep_key": spec.sweep_key,
            "cells_total": len(cells),
            "cached_keys": cached,
            "trace": root.to_dict(),
        }

    def _deny(self, tenant: str) -> None:
        self._denials[tenant] = self._denials.get(tenant, 0) + 1
        self.registry.counter("service.jobs.denied").inc()
        _LOG.warning("submission denied by quota", tenant=tenant)

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a queued or running job (idempotent for terminal states)."""
        record = self.store.job(job_id)
        if record.terminal:
            return record
        self._cancelled.add(job_id)
        self.store.set_state(job_id, "cancelled")
        self.registry.counter("service.jobs.cancelled").inc()
        self._refresh_queue_depth()
        return self.store.job(job_id)

    def recover(self) -> list[JobRecord]:
        """Replay the store after a restart; non-terminal jobs re-queue."""
        return self.store.recover()

    def request_stop(self) -> None:
        self._stop = True

    # -- the loop --------------------------------------------------------------

    async def run(self) -> None:
        """Admit queued jobs FIFO until :meth:`request_stop`, then drain."""
        self._stop = False  # a stop request only ends the run it interrupts
        try:
            while not self._stop:
                self.last_tick = time.time()
                self._admit_ready()
                await asyncio.sleep(self.policy.poll_interval_seconds)
        finally:
            if self._active:
                await asyncio.gather(
                    *self._active.values(), return_exceptions=True
                )

    def _admit_ready(self) -> None:
        self._active = {
            job_id: task
            for job_id, task in self._active.items()
            if not task.done()
        }
        if len(self._active) >= self.policy.max_concurrent_jobs:
            return
        running_by_tenant: dict[str, int] = {}
        queued: list[JobRecord] = []
        for record in self.store.jobs():
            if record.job_id in self._cancelled:
                continue
            if record.job_id in self._active:
                tenant = record.spec.tenant
                running_by_tenant[tenant] = running_by_tenant.get(tenant, 0) + 1
            elif record.state == "queued":
                queued.append(record)
        self.registry.gauge("service.queue.depth").set(len(queued))
        for record in queued:
            if len(self._active) >= self.policy.max_concurrent_jobs:
                break
            tenant = record.spec.tenant
            limit = self.tenant_quota(tenant).max_concurrent_jobs
            if running_by_tenant.get(tenant, 0) >= limit:
                continue
            running_by_tenant[tenant] = running_by_tenant.get(tenant, 0) + 1
            self._active[record.job_id] = asyncio.ensure_future(
                self._execute(record.job_id)
            )

    def _refresh_queue_depth(self) -> None:
        depth = sum(
            1 for record in self.store.jobs() if record.state == "queued"
        )
        self.registry.gauge("service.queue.depth").set(depth)

    # -- liveness --------------------------------------------------------------

    def heartbeat_age(self) -> float | None:
        """Seconds since the admission loop last ticked; None before it
        ever ran (a started-but-not-yet-looping scheduler is not ready)."""
        if not self.last_tick:
            return None
        return max(0.0, time.time() - self.last_tick)

    def readiness(self) -> dict:
        """The ``/readyz`` verdict: store writable + loop heartbeating.

        A scheduler whose loop stalled (deadlocked executor, crashed
        task) or whose store is unwritable (full/read-only disk) can
        accept a POST but never run it — that is exactly the state a
        load balancer must route away from.
        """
        checks: dict[str, dict] = {}
        probe = self.store.root / f".readyz-probe.{id(self):x}"
        try:
            probe.parent.mkdir(parents=True, exist_ok=True)
            probe.write_text(str(time.time()))
            probe.unlink()
            checks["store_writable"] = {"ok": True}
        except OSError as error:
            checks["store_writable"] = {"ok": False, "error": str(error)}
        age = self.heartbeat_age()
        limit = max(5 * self.policy.poll_interval_seconds, 2.0)
        checks["scheduler_loop"] = {
            "ok": age is not None and age < limit,
            "heartbeat_age": age,
            "limit_seconds": limit,
        }
        return {
            "ready": all(check["ok"] for check in checks.values()),
            "checks": checks,
        }

    # -- execution -------------------------------------------------------------

    def _job_trace(self, record: JobRecord) -> TraceContext:
        """The job's root trace context, replayed from its journal."""
        for event in record.events:
            if event.get("event") == "span" and event.get("trace"):
                try:
                    return TraceContext.from_dict(event["trace"])
                except (KeyError, TypeError):
                    continue
        return TraceContext.mint(record.job_id)

    async def _execute(self, job_id: str) -> None:
        record = self.store.job(job_id)
        spec = record.spec
        trace = self._job_trace(record)
        resumed = bool(record.detail.get("recovered"))
        running_ts = time.time()
        self.store.set_state(job_id, "running", sweep_key=spec.sweep_key)
        self.store.append(
            job_id, span_record("scheduled", "scheduler", trace.child())
        )
        loop = asyncio.get_running_loop()
        sampler = asyncio.ensure_future(self._sample_progress(job_id, spec))
        try:
            sweep, accounting = await loop.run_in_executor(
                None, self._run_job, spec, trace.child()
            )
        except Exception as error:  # noqa: BLE001 — journalled, not raised
            sampler.cancel()
            await asyncio.gather(sampler, return_exceptions=True)
            if job_id in self._cancelled:
                return
            self.store.set_state(
                job_id,
                "failed",
                error_type=type(error).__name__,
                message=str(error),
            )
            self.registry.counter("service.jobs.failed").inc()
            _LOG.error(
                "job failed", job=job_id, tenant=spec.tenant,
                error_type=type(error).__name__, error=str(error),
            )
            return
        sampler.cancel()
        await asyncio.gather(sampler, return_exceptions=True)
        if job_id in self._cancelled:
            # The cancelled job's cells still landed in the shared cache
            # (content-addressed work is never wasted), but its result and
            # terminal state stay "cancelled".
            return
        self.store.store_result(job_id, sweep.canonical_json())
        done_ts = time.time()
        self.store.append(
            job_id, span_record("result_stored", "scheduler", trace.child())
        )
        self.store.set_state(
            job_id,
            "done",
            resumed=resumed,
            complete=sweep.complete,
            **accounting,
        )
        self.registry.counter("service.jobs.completed").inc()
        slug = _tenant_slug(spec.tenant)
        total = accounting["cells_total"]
        if total:
            self.registry.gauge(f"service.tenant.{slug}.cache_hit_ratio").set(
                accounting["cache_hits"] / total
            )
        self._observe_latency(
            job_id, spec, submitted=record.submitted or running_ts,
            running_ts=running_ts, done_ts=done_ts,
        )
        _LOG.info(
            "job done", job=job_id, tenant=spec.tenant,
            seconds=round(done_ts - running_ts, 3), **accounting,
        )

    # -- latency accounting ----------------------------------------------------

    def _first_cell_ts(self, job_id: str, spec: JobSpec, floor: float) -> float:
        """When this job's first cell started, per the sweep manifest.

        Prefers lines tagged with the job's trace context; falls back to
        the first ``start`` at or after the job began running (an
        untagged line from a direct CLI drain of the same sweep).  A
        fully warm job writes no ``start`` at all — then the job's
        "first cell" is the moment execution began.
        """
        from repro.experiments.supervisor import parse_manifest_line

        best = None
        try:
            text = manifest_path(default_cache().root, spec.sweep_key).read_text()
        except OSError:
            return floor
        for line in text.splitlines():
            record = parse_manifest_line(line.strip()) if line.strip() else None
            if record is None or record.get("event") != "start":
                continue
            ts = record.get("ts")
            if not isinstance(ts, (int, float)):
                continue
            tagged = (record.get("trace") or {}).get("job_id")
            if tagged is not None:
                if tagged != job_id:
                    continue
            elif ts < floor:
                continue
            if best is None or ts < best:
                best = ts
        return best if best is not None else floor

    def _observe_latency(
        self, job_id: str, spec: JobSpec,
        submitted: float, running_ts: float, done_ts: float,
    ) -> None:
        """Journal and export the submit→schedule→first-cell→result split."""
        first_cell = self._first_cell_ts(job_id, spec, running_ts)
        stages = {
            "submit_to_schedule_sec": max(0.0, running_ts - submitted),
            "schedule_to_first_cell_sec": max(0.0, first_cell - running_ts),
            "first_cell_to_result_sec": max(0.0, done_ts - first_cell),
            "submit_to_result_sec": max(0.0, done_ts - submitted),
        }
        slug = _tenant_slug(spec.tenant)
        for name, seconds in stages.items():
            for metric in (
                f"service.latency.{name}",
                f"service.tenant.{slug}.latency.{name}",
            ):
                self.registry.histogram(
                    metric, bounds=LATENCY_BOUNDS_SECONDS
                ).observe(seconds)
        self.store.append(
            job_id,
            {"event": "latency", "ts": done_ts,
             **{name: round(value, 6) for name, value in stages.items()}},
        )

    def _run_job(self, spec: JobSpec, trace: TraceContext | None = None):
        """Run one grid in a worker thread; returns (sweep, accounting).

        The job's trace context is activated around the run — thread-local
        for the supervisor/manifest writes happening on this thread; the
        worker processes forked below are handed it at their fork sites —
        so every manifest line lands tagged with the job that caused it.
        """
        from contextlib import nullcontext

        with trace.activate() if trace is not None else nullcontext():
            sweep = run_grid_supervised(
                list(spec.benchmarks),
                list(spec.schemes),
                machine=spec.machine_config,
                references=spec.references,
                seed=spec.seed,
                keep_going=True,
                jobs=self.policy.cell_jobs,
                use_cache=True,
                policy=SupervisorPolicy(),
            )
        total = sweep.supervision["cells_total"]
        hits = sweep.supervision["cells_resumed"]
        accounting = {
            "cells_total": total,
            "cache_hits": hits,
            "cells_computed": total - hits,
        }
        return sweep, accounting

    async def _sample_progress(self, job_id: str, spec: JobSpec) -> None:
        """Journal periodic progress snapshots while the job runs.

        Samples are cumulative :class:`MetricsSnapshot` dicts with
        ``meta["accesses"]`` carrying the sample index, so a consumer can
        fold them straight into a
        :class:`~repro.telemetry.snapshot.SnapshotSeries`.  The first
        sample is emitted immediately so even a fully warm job (zero
        compute time) streams at least one sample.
        """
        tail = ManifestTail(
            manifest_path(default_cache().root, spec.sweep_key)
        )
        done = failed = 0
        index = 0
        try:
            while True:
                for event in tail.drain():
                    if event.get("event") == "done":
                        done += 1
                    elif event.get("event") == "failed":
                        failed += 1
                index += 1
                snapshot = MetricsSnapshot(
                    values={
                        "service.job.cells_done": done,
                        "service.job.cells_failed": failed,
                        "service.job.cells_total": len(spec.cells()),
                    },
                    kinds={
                        "service.job.cells_done": "counter",
                        "service.job.cells_failed": "counter",
                        "service.job.cells_total": "gauge",
                    },
                    meta={"accesses": index, "job_id": job_id},
                )
                self.store.append(
                    job_id,
                    {
                        "event": "sample",
                        "ts": time.time(),
                        "snapshot": snapshot.to_dict(),
                    },
                )
                await asyncio.sleep(self.policy.sample_interval_seconds)
        except asyncio.CancelledError:
            return

    # -- usage accounting ------------------------------------------------------

    def usage(self, tenant: str) -> dict:
        """Fold one tenant's journals into a usage report.

        Everything except the denial counter is derived from the durable
        journals, so usage survives restarts and two readers always
        agree.
        """
        states: dict[str, int] = {}
        cells_total = cache_hits = cells_computed = 0
        for record in self.store.jobs(tenant):
            states[record.state] = states.get(record.state, 0) + 1
            if record.state == "done":
                cells_total += record.detail.get("cells_total", 0)
                cache_hits += record.detail.get("cache_hits", 0)
                cells_computed += record.detail.get("cells_computed", 0)
        return {
            "tenant": tenant,
            "jobs": states,
            "cells_total": cells_total,
            "cache_hits": cache_hits,
            "cells_computed": cells_computed,
            "cache_hit_ratio": (cache_hits / cells_total) if cells_total else 0.0,
            "denied": self._denials.get(tenant, 0),
        }
