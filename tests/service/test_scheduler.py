"""Scheduler: quotas, dedup accounting, cancellation, crash recovery.

Grids here are tiny (one benchmark, 800 references) so each test runs in
seconds; the scheduler loop is driven with ``asyncio.run`` directly —
the suite has no async plugin and does not need one.
"""

import asyncio

import pytest

from repro.experiments.cache import default_cache
from repro.service.queue import JobSpec, JobStore
from repro.service.scheduler import (
    QuotaExceeded,
    SchedulerPolicy,
    ServiceScheduler,
    TenantQuota,
)

_REFS = 800


def _spec(tenant="acme", schemes=("baseline",), **overrides):
    base = dict(
        tenant=tenant,
        benchmarks=("stream",),
        schemes=tuple(schemes),
        references=_REFS,
    )
    base.update(overrides)
    return JobSpec(**base)


def _scheduler(tmp_path, **policy_overrides):
    policy = SchedulerPolicy(
        sample_interval_seconds=0.02,
        poll_interval_seconds=0.01,
        **policy_overrides,
    )
    return ServiceScheduler(store=JobStore(tmp_path / "service"), policy=policy)


def _run_until_terminal(scheduler, job_ids, timeout=120.0):
    """Drive the scheduler loop until every job id is terminal."""

    async def _driver():
        loop_task = asyncio.ensure_future(scheduler.run())
        deadline = asyncio.get_running_loop().time() + timeout
        try:
            while True:
                records = [scheduler.store.job(job_id) for job_id in job_ids]
                if all(record.terminal for record in records):
                    return records
                if asyncio.get_running_loop().time() > deadline:
                    raise TimeoutError(f"jobs still running: {records}")
                await asyncio.sleep(0.02)
        finally:
            scheduler.request_stop()
            await loop_task

    return asyncio.run(_driver())


class TestQuotas:
    def test_cells_per_job_ceiling(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        scheduler.quotas["acme"] = TenantQuota(max_cells_per_job=1)
        with pytest.raises(QuotaExceeded) as excinfo:
            scheduler.submit(_spec(schemes=("baseline", "oracle")))
        assert excinfo.value.status == 429
        payload = excinfo.value.to_dict()["error"]
        assert payload["type"] == "quota_exceeded"
        assert payload["limit"] == 1

    def test_inflight_ceiling_counts_queued_jobs(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        scheduler.quotas["acme"] = TenantQuota(max_inflight_jobs=1)
        scheduler.submit(_spec())
        with pytest.raises(QuotaExceeded, match="inflight"):
            scheduler.submit(_spec(schemes=("oracle",)))

    def test_denials_are_per_tenant_and_counted(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        scheduler.quotas["acme"] = TenantQuota(max_cells_per_job=1)
        with pytest.raises(QuotaExceeded):
            scheduler.submit(_spec(schemes=("baseline", "oracle")))
        assert scheduler.usage("acme")["denied"] == 1
        assert scheduler.usage("other")["denied"] == 0


class TestExecutionAndAccounting:
    def test_job_runs_to_done_with_accounting(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        receipt = scheduler.submit(_spec())
        assert receipt["cached_keys"] == []
        (record,) = _run_until_terminal(scheduler, [receipt["job_id"]])
        assert record.state == "done"
        assert record.detail["cells_total"] == 1
        assert record.detail["cache_hits"] == 0
        assert record.detail["cells_computed"] == 1
        assert scheduler.store.result_path(record.job_id).exists()

    def test_two_tenants_overlapping_grids_dedup_on_cache_keys(self, tmp_path):
        """The satellite contract: overlapping grids from different
        tenants land on identical cache keys; whoever runs second gets
        hits for the overlap, and each tenant's hits + computed sums to
        its grid size."""
        scheduler = _scheduler(tmp_path, max_concurrent_jobs=1)
        alice_spec = _spec(tenant="alice", schemes=("baseline", "oracle"))
        bob_spec = _spec(tenant="bob", schemes=("baseline", "pred_regular"))
        overlap = set(key for _, _, key in alice_spec.cells()) & set(
            key for _, _, key in bob_spec.cells()
        )
        assert len(overlap) == 1  # stream/baseline is shared

        alice = scheduler.submit(alice_spec)
        bob = scheduler.submit(bob_spec)
        # max_concurrent_jobs=1 makes ordering deterministic: alice (FIFO
        # first) computes both her cells, bob then hits the shared one.
        records = _run_until_terminal(
            scheduler, [alice["job_id"], bob["job_id"]]
        )
        by_tenant = {record.spec.tenant: record for record in records}

        assert by_tenant["alice"].detail["cache_hits"] == 0
        assert by_tenant["alice"].detail["cells_computed"] == 2
        assert by_tenant["bob"].detail["cache_hits"] == 1
        assert by_tenant["bob"].detail["cells_computed"] == 1
        for record in records:
            detail = record.detail
            assert (
                detail["cache_hits"] + detail["cells_computed"]
                == detail["cells_total"]
                == 2
            )

        alice_usage = scheduler.usage("alice")
        bob_usage = scheduler.usage("bob")
        assert alice_usage["cache_hit_ratio"] == 0.0
        assert bob_usage["cache_hit_ratio"] == 0.5
        # Work is conserved under dedup: total computed across tenants is
        # the number of *distinct* keys, not the sum of grid sizes.
        distinct = set(key for _, _, key in alice_spec.cells()) | set(
            key for _, _, key in bob_spec.cells()
        )
        assert (
            alice_usage["cells_computed"] + bob_usage["cells_computed"]
            == len(distinct)
        )

    def test_warm_resubmission_is_all_hits_with_identical_result(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        first = scheduler.submit(_spec(tenant="alice"))
        (done,) = _run_until_terminal(scheduler, [first["job_id"]])
        cold_bytes = scheduler.store.result_path(done.job_id).read_bytes()

        second = scheduler.submit(_spec(tenant="bob"))
        assert len(second["cached_keys"]) == 1  # dedup visible at submit time
        (warm,) = _run_until_terminal(scheduler, [second["job_id"]])
        assert warm.detail["cache_hits"] == 1
        assert warm.detail["cells_computed"] == 0
        warm_bytes = scheduler.store.result_path(warm.job_id).read_bytes()
        assert warm_bytes == cold_bytes

    def test_mixed_grid_counts_each_cached_cell_once(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        warm = scheduler.submit(_spec(schemes=("baseline",)))
        _run_until_terminal(scheduler, [warm["job_id"]])
        disk = default_cache()
        mixed = scheduler.submit(_spec(schemes=("baseline", "oracle")))
        assert len(mixed["cached_keys"]) == 1
        lookups = disk.stats.result_hits + disk.stats.result_misses
        (record,) = _run_until_terminal(scheduler, [mixed["job_id"]])
        assert record.detail["cache_hits"] == 1
        assert record.detail["cells_computed"] == 1
        # The executor's serving pass is the job's only lookup in this
        # process: one per cell (the fresh cell's worker looks again).
        assert disk.stats.result_hits + disk.stats.result_misses == lookups + 2

    def test_progress_samples_journalled_even_for_fast_jobs(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        receipt = scheduler.submit(_spec())
        (record,) = _run_until_terminal(scheduler, [receipt["job_id"]])
        samples = [e for e in record.events if e.get("event") == "sample"]
        assert samples, "at least one progress sample must be journalled"
        snapshot = samples[-1]["snapshot"]
        assert snapshot["metrics"]["service.job.cells_total"] == 1


class TestCancellation:
    def test_cancel_queued_job_never_runs(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        receipt = scheduler.submit(_spec())
        record = scheduler.cancel(receipt["job_id"])
        assert record.state == "cancelled"
        assert not scheduler.store.result_path(receipt["job_id"]).exists()

    def test_cancel_is_idempotent_on_terminal_jobs(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        receipt = scheduler.submit(_spec())
        (done,) = _run_until_terminal(scheduler, [receipt["job_id"]])
        assert done.state == "done"
        assert scheduler.cancel(receipt["job_id"]).state == "done"


class TestCrashRecovery:
    def test_restart_resumes_without_recomputing_cached_cells(self, tmp_path):
        # Life 1: run a job to completion (cache now holds its cell),
        # then submit a second job and "crash" mid-flight by marking it
        # running without executing.
        first_life = _scheduler(tmp_path)
        done = first_life.submit(_spec(tenant="alice"))
        _run_until_terminal(first_life, [done["job_id"]])
        interrupted = first_life.submit(_spec(tenant="alice", seed=1))
        first_life.store.set_state(interrupted["job_id"], "running")

        # Life 2: a fresh scheduler over the same store recovers the
        # running job back to queued and serves it entirely from cache.
        second_life = _scheduler(tmp_path)
        recovered = second_life.recover()
        assert [r.job_id for r in recovered] == [interrupted["job_id"]]
        (record,) = _run_until_terminal(second_life, [interrupted["job_id"]])
        assert record.state == "done"
        assert record.detail["resumed"] is True
        assert record.detail["cache_hits"] == 1
        assert record.detail["cells_computed"] == 0


class TestTelemetry:
    def test_counters_track_admission_and_completion(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        scheduler.quotas["acme"] = TenantQuota(max_cells_per_job=1)
        receipt = scheduler.submit(_spec())
        with pytest.raises(QuotaExceeded):
            scheduler.submit(_spec(schemes=("baseline", "oracle")))
        _run_until_terminal(scheduler, [receipt["job_id"]])
        snapshot = scheduler.registry.snapshot()
        assert snapshot.get("service.jobs.admitted") == 1
        assert snapshot.get("service.jobs.denied") == 1
        assert snapshot.get("service.jobs.completed") == 1

    def test_accounting_survives_in_shared_cache(self, tmp_path):
        # The cells a service job computes land in the ordinary
        # content-addressed cache: a direct (non-service) lookup sees them.
        scheduler = _scheduler(tmp_path)
        spec = _spec()
        receipt = scheduler.submit(spec)
        _run_until_terminal(scheduler, [receipt["job_id"]])
        disk = default_cache()
        for _, _, key in spec.cells():
            assert disk.lookup_cell(key) is not None
