"""Leased drains and the swarm coordinator: drain, takeover, merging."""

import dataclasses
import json
import multiprocessing
import time

import pytest

from repro.experiments import cache as result_cache
from repro.experiments.supervisor import (
    ManifestTail,
    SupervisorPolicy,
    manifest_path,
    run_grid_supervised,
    verified_done_cell,
)
from repro.experiments.sweep import run_grid
from repro.faults.orchestration import (
    HOST_KILL_EXIT,
    ChaosLeaseManager,
    FabricChaos,
    FabricChaosSpec,
)
from repro.fabric import (
    LeaseManager,
    SwarmSpec,
    drain_swarm,
    render_status,
    start_swarm,
    swarm_status,
)
from repro.fabric.lease import lease_root
from repro.service.queue import JobSpec, JobStore
from repro.telemetry.events import EventTracer
from repro.telemetry.fleet import fleet_trace
from repro.telemetry.registry import MetricRegistry
from repro.telemetry.top import fleet_snapshot

REFS = 1200
SPEC = SwarmSpec(
    benchmarks=("gzip",), schemes=("oracle", "pred_regular"),
    references=REFS, seed=1,
)
FAST = SupervisorPolicy(ttl_seconds=2.0, drain_timeout_seconds=180.0)

_MP = multiprocessing.get_context("fork")


def _metrics(sweep) -> dict:
    return {
        f"{benchmark}/{scheme}": dataclasses.asdict(metrics)
        for (benchmark, scheme), metrics in sweep.results.items()
    }


def _serial():
    return run_grid(["gzip"], ["oracle", "pred_regular"], references=REFS, seed=1)


def _leases(owner, chaos=None, policy=FAST) -> LeaseManager:
    root = result_cache.default_cache().root
    if chaos is not None:
        return ChaosLeaseManager(
            lease_root(root, SPEC.key), owner, policy.ttl_seconds, chaos,
            manifest_path(root, SPEC.key),
        )
    return LeaseManager(
        lease_root(root, SPEC.key), owner=owner, ttl_seconds=policy.ttl_seconds
    )


def _drain(owner, chaos=None, policy=FAST, **kwargs):
    return drain_swarm(
        SPEC, workers=1, policy=policy, leases=_leases(owner, chaos, policy),
        **kwargs,
    )


def _fork_drain(owner, chaos=None):
    """A second drain host: the same drain in a forked process."""
    host = _MP.Process(target=_drain, args=(owner, chaos))
    host.start()
    return host


def _wait_for_claim(owner: str, host, timeout: float = 60.0) -> None:
    """Block until ``owner`` has journaled a claim in SPEC's manifest."""
    tail = ManifestTail(manifest_path(result_cache.default_cache().root, SPEC.key))
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        alive = host.is_alive()  # read first: a dead host's lines are all in
        if any(entry.get("owner") == owner for entry in tail.drain()):
            return
        assert alive, f"{owner} exited before claiming a cell"
        time.sleep(0.01)
    raise AssertionError(f"{owner} claimed no cell within {timeout} s")


class TestSwarmSpec:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            SwarmSpec(benchmarks=("gzip",), schemes=("nope",))

    def test_unknown_machine_rejected(self):
        with pytest.raises(ValueError, match="unknown machine"):
            SwarmSpec(benchmarks=("gzip",), schemes=("oracle",), machine="huge")

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            SwarmSpec(benchmarks=(), schemes=("oracle",))

    def test_round_trip_preserves_key(self):
        clone = SwarmSpec.from_dict(SPEC.to_dict())
        assert clone == SPEC
        assert clone.key == SPEC.key

    def test_cells_enumerates_grid(self):
        cells = SPEC.cells()
        assert [(b, spec.name) for b, spec, _ in cells] == [
            ("gzip", "oracle"), ("gzip", "pred_regular"),
        ]


class TestSingleWorkerDrain:
    def test_drain_equals_serial(self):
        sweep = _drain("solo:1")
        stats = sweep.supervision
        assert stats["cells_completed"] == 2
        assert stats["stores"] == 2
        assert stats["cells_fenced_out"] == 0
        assert sweep.canonical_json() == _serial().canonical_json()

    def test_second_drain_skips_verified_done(self):
        _drain("solo:1")
        stats = _drain("solo:2").supervision
        assert stats["cells_completed"] == 0
        assert stats["cells_resumed"] == 2
        assert stats["stores"] == 0
        assert stats["leases"]["acquired"] == 0

    def test_stale_done_event_is_recomputed(self):
        # The manifest says done, but the cache entry is gone: a drain
        # must not trust the journal blindly.
        _drain("solo:1")
        disk = result_cache.default_cache()
        _, _, victim_key = SPEC.cells()[0]
        disk._result_path(victim_key).unlink()
        stats = _drain("solo:2").supervision
        assert stats["cells_completed"] == 1
        assert verified_done_cell(disk, victim_key) is not None  # victim is back

    def test_lease_dir_unavailable_raises(self):
        disk = result_cache.default_cache()
        disk.root.mkdir(parents=True, exist_ok=True)
        (disk.root / "leases").write_text("not a directory")
        with pytest.raises(OSError):
            _drain("solo:1")

    def test_disabled_cache_is_refused(self, monkeypatch):
        # Drains share finished cells through the cache; with it disabled
        # no fenced store could land and the drain would recompute forever.
        monkeypatch.setenv(result_cache.CACHE_DISABLE_ENV, "1")
        result_cache.reset_default_cache()
        with pytest.raises(ValueError, match="result cache"):
            _drain("solo:1")


class TestMultiWorkerDrain:
    def test_two_worker_drain_equals_serial(self):
        # Two drains of one grid over one lease directory, one forked:
        # the result is the serial grid byte for byte and every fenced
        # store landed under its own token.
        host = _fork_drain("m1")
        try:
            sweep = _drain("m0")
        finally:
            host.join(timeout=120)
        assert host.exitcode == 0
        assert sweep.canonical_json() == _serial().canonical_json()
        tokens = _leases("m0").stored_tokens()
        assert len(tokens) == 2
        assert len({(key, token) for key, token, _ in tokens}) == len(tokens)

    def test_takeover_after_worker_kill(self):
        # The in-process k0 starts draining only once the forked k1 has
        # claimed a cell (and died holding it), so k0 cannot finish both
        # cells first: it must take k1's lease over after the TTL.
        chaos = FabricChaos(
            FabricChaosSpec(kill_rate=1.0, immune_owners=("k0",))
        )
        host = _fork_drain("k1", chaos)
        try:
            _wait_for_claim("k1", host)
            sweep = _drain("k0", chaos)
        finally:
            host.join(timeout=120)
        assert host.exitcode == HOST_KILL_EXIT
        assert sweep.supervision["leases"]["taken_over"] >= 1
        assert len(sweep.results) == 2
        assert _metrics(sweep) == _metrics(_serial())


class TestCoordinator:
    def test_start_is_idempotent_and_persists_spec(self):
        key_a = start_swarm(SPEC)
        key_b = start_swarm(SPEC)
        assert key_a == key_b == SPEC.key
        disk = result_cache.default_cache()
        payload = json.loads((disk.root / f"swarm-{key_a}.json").read_text())
        assert SwarmSpec.from_dict(payload) == SPEC

    def test_status_tracks_pending_to_done(self):
        start_swarm(SPEC)
        before = swarm_status(SPEC)
        assert not before["complete"]
        assert before["counts"]["pending"] == 2
        _drain("solo:1")
        after = swarm_status(SPEC)
        assert after["complete"]
        assert after["counts"]["done"] == 2
        assert after["hosts"]["solo:1"]["state"] == "finished"
        rendered = render_status(after)
        assert "complete" in rendered
        assert "solo:1" in rendered

    def test_status_counts_cells_served_from_the_cache_as_done(self):
        # A cell another sweep computed is served by the drain, not
        # journaled in this swarm's manifest: the cache says it is done.
        run_grid_supervised(["gzip"], ["oracle"], references=REFS)
        assert _drain("solo:1").supervision["cells_resumed"] == 1
        status = swarm_status(SPEC)
        assert status["complete"]
        assert status["counts"]["done"] == 2

    def test_status_flags_stale_done_cells(self):
        _drain("solo:1")
        disk = result_cache.default_cache()
        _, _, victim_key = SPEC.cells()[0]
        disk._result_path(victim_key).unlink()
        status = swarm_status(SPEC)
        assert status["counts"]["stale"] == 1
        assert not status["complete"]

    def test_status_top_and_fleet_trace_read_the_drain_beacon(self, tmp_path):
        store = JobStore(tmp_path / "service")
        job = store.submit(
            JobSpec(
                tenant="acme", benchmarks=SPEC.benchmarks,
                schemes=SPEC.schemes, references=REFS, seed=1,
            )
        )
        assert job.spec.sweep_key == SPEC.key
        _drain("beacon:1")

        host = swarm_status(SPEC)["hosts"]["beacon:1"]
        assert (host["state"], host["executed"], host["stores"]) == (
            "finished", 2, 2,
        )
        (worker,) = fleet_snapshot(store=store)["workers"]
        assert worker["owner"] == "beacon:1"
        assert (worker["executed"], worker["stores"]) == (2, 2)
        lanes = {
            event["args"]["name"]
            for event in fleet_trace(job.job_id, store=store)["traceEvents"]
            if event.get("ph") == "M" and event["name"] == "process_name"
        }
        assert "worker-beacon:1" in lanes


class TestHeartbeatTelemetry:
    def test_heartbeat_age_track_emitted(self):
        # A tight TTL makes the loop renew (at a third of it) on every
        # poll while the cells run; every renewal lands an age sample on
        # the fabric track, and the lease counters reach the registry.
        tracer = EventTracer(capacity=4096)
        registry = MetricRegistry()
        policy = SupervisorPolicy(ttl_seconds=0.015, drain_timeout_seconds=180.0)
        sweep = _drain(
            "hb:1", policy=policy, tracer=tracer, registry=registry,
        )
        assert sweep.supervision["leases"]["renewals"] >= 1
        samples = [
            event for event in tracer.events()
            if getattr(event, "name", None) == "fabric.lease.heartbeat_age"
        ]
        assert samples
        assert all(event.track == "fabric" for event in samples)
        published = registry.snapshot().values
        assert published.get("sweep.supervisor.cells_completed") == 2
        assert published.get("sweep.supervisor.stores") == 2
        assert published.get("fabric.lease.acquired") == 2
        assert published.get("fabric.lease.renewals") >= 1
        assert "fabric.lease.heartbeat_age" in published
