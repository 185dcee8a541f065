"""Fabric workers and the swarm coordinator: drain, takeover, merging."""

import dataclasses
import json
import time

import pytest

from repro.experiments import cache as result_cache
from repro.experiments.supervisor import manifest_path, parse_manifest_line
from repro.experiments.sweep import run_grid
from repro.faults.orchestration import FabricChaos, FabricChaosSpec
from repro.fabric import (
    FabricPolicy,
    FabricWorker,
    SwarmSpec,
    collect_sweep,
    drain_swarm,
    render_status,
    start_swarm,
    swarm_status,
)
from repro.fabric.worker import CHAOS_KILL_EXIT, LeaseDirUnavailable
from repro.telemetry.events import EventTracer
from repro.telemetry.registry import MetricRegistry

REFS = 1200
SPEC = SwarmSpec(
    benchmarks=("gzip",), schemes=("oracle", "pred_regular"),
    references=REFS, seed=1,
)
FAST = FabricPolicy(
    ttl_seconds=2.0,
    claim_backoff_seconds=0.01,
    claim_backoff_cap_seconds=0.1,
    drain_timeout_seconds=180.0,
)


def _metrics(sweep) -> dict:
    return {
        f"{benchmark}/{scheme}": dataclasses.asdict(metrics)
        for (benchmark, scheme), metrics in sweep.results.items()
    }


def _merged(sweep) -> str:
    merged = sweep.merged_snapshot()
    return json.dumps(merged.values if merged else {}, sort_keys=True)


def _wait_for_claim(worker, owner: str, timeout: float = 60.0) -> None:
    """Block until ``owner`` has journaled a claim in ``worker``'s sweep."""
    path = manifest_path(worker.disk.root, worker.key)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        lines = path.read_text().splitlines() if path.exists() else []
        for entry in filter(None, map(parse_manifest_line, lines)):
            if entry.get("event") == "start" and entry.get("owner") == owner:
                return
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
        worker = FabricWorker(SPEC, owner="solo:1", policy=FAST)
        stats = worker.drain()
        assert stats.cells_executed == 2
        assert stats.stores == 2
        assert stats.cells_fenced_out == 0
        sweep = collect_sweep(SPEC)
        serial = run_grid(
            ["gzip"], ["oracle", "pred_regular"], references=REFS, seed=1,
        )
        assert _metrics(sweep) == _metrics(serial)
        assert _merged(sweep) == _merged(serial)

    def test_second_drain_skips_verified_done(self):
        FabricWorker(SPEC, owner="solo:1", policy=FAST).drain()
        second = FabricWorker(SPEC, owner="solo:2", policy=FAST)
        stats = second.drain()
        assert stats.cells_executed == 0
        assert stats.stores == 0

    def test_stale_done_event_is_recomputed(self):
        # The manifest says done, but the cache entry is gone: a drain
        # must not trust the journal blindly.
        FabricWorker(SPEC, owner="solo:1", policy=FAST).drain()
        disk = result_cache.default_cache()
        _, _, victim_key = SPEC.cells()[0]
        disk._result_path(victim_key).unlink()
        repair = FabricWorker(SPEC, owner="solo:2", policy=FAST)
        stats = repair.drain()
        assert stats.cells_executed == 1
        assert collect_sweep(SPEC).results  # victim is back

    def test_lease_dir_unavailable_raises(self, tmp_path):
        disk = result_cache.default_cache()
        (disk.root / "leases").parent.mkdir(parents=True, exist_ok=True)
        (disk.root / "leases").write_text("not a directory")
        worker = FabricWorker(SPEC, owner="solo:1", policy=FAST)
        with pytest.raises(LeaseDirUnavailable):
            worker.drain()


class TestMultiWorkerDrain:
    def test_two_worker_drain_equals_serial(self):
        sweep = drain_swarm(SPEC, workers=2, policy=FAST, owner_prefix="m")
        assert not sweep.fabric["degraded"]
        assert sweep.fabric["worker_exit_codes"] == [0]
        serial = run_grid(
            ["gzip"], ["oracle", "pred_regular"], references=REFS, seed=1,
        )
        assert _metrics(sweep) == _metrics(serial)
        assert _merged(sweep) == _merged(serial)
        tokens = sweep.fabric["stored_tokens"]
        assert len({(key, token) for key, token, _ in tokens}) == len(tokens)

    def test_takeover_after_worker_kill(self, monkeypatch):
        # The in-process k0 starts draining only once the forked k1 has
        # claimed a cell (and died holding it), so k0 cannot finish both
        # cells first: it must take k1's lease over after the TTL.
        drain = FabricWorker.drain

        def drain_after_k1_claims(worker):
            if worker.owner == "k0":
                _wait_for_claim(worker, "k1")
            return drain(worker)

        monkeypatch.setattr(FabricWorker, "drain", drain_after_k1_claims)
        chaos = FabricChaos(
            FabricChaosSpec(kill_rate=1.0, immune_owners=("k0",))
        )
        sweep = drain_swarm(
            SPEC, workers=2, policy=FAST, chaos=chaos, owner_prefix="k",
        )
        assert CHAOS_KILL_EXIT in sweep.fabric["worker_exit_codes"]
        assert sweep.fabric["local_leases"]["taken_over"] >= 1
        assert len(sweep.results) == 2
        serial = run_grid(
            ["gzip"], ["oracle", "pred_regular"], references=REFS, seed=1,
        )
        assert _metrics(sweep) == _metrics(serial)

    def test_degrades_to_supervised_when_lease_dir_unusable(self):
        disk = result_cache.default_cache()
        disk.root.mkdir(parents=True, exist_ok=True)
        (disk.root / "leases").write_text("not a directory")
        sweep = drain_swarm(SPEC, workers=1, policy=FAST)
        assert sweep.fabric["degraded"]
        assert len(sweep.results) == 2
        serial = run_grid(
            ["gzip"], ["oracle", "pred_regular"], references=REFS, seed=1,
        )
        assert _metrics(sweep) == _metrics(serial)


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
        FabricWorker(SPEC, owner="solo:1", policy=FAST).drain()
        after = swarm_status(SPEC)
        assert after["complete"]
        assert after["counts"]["done"] == 2
        assert after["hosts"]["solo:1"]["state"] == "finished"
        rendered = render_status(after)
        assert "complete" in rendered
        assert "solo:1" in rendered

    def test_status_flags_stale_done_cells(self):
        FabricWorker(SPEC, owner="solo:1", policy=FAST).drain()
        disk = result_cache.default_cache()
        _, _, victim_key = SPEC.cells()[0]
        disk._result_path(victim_key).unlink()
        status = swarm_status(SPEC)
        assert status["counts"]["stale"] == 1
        assert not status["complete"]

    def test_collect_strict_raises_on_missing_cells(self):
        start_swarm(SPEC)
        with pytest.raises(RuntimeError, match="swarm incomplete"):
            collect_sweep(SPEC)
        partial = collect_sweep(SPEC, strict=False)
        assert partial.results == {}


class TestHeartbeatTelemetry:
    def test_heartbeat_age_track_emitted(self):
        # A tight heartbeat interval guarantees at least one tick during
        # the cell's execution; every tick lands on the fabric track.
        tracer = EventTracer(capacity=4096)
        registry = MetricRegistry()
        policy = FabricPolicy(
            ttl_seconds=2.0,
            heartbeat_interval_seconds=0.01,
            claim_backoff_seconds=0.01,
            claim_backoff_cap_seconds=0.1,
            drain_timeout_seconds=180.0,
        )
        worker = FabricWorker(
            SPEC, owner="hb:1", policy=policy, tracer=tracer,
            registry=registry,
        )
        stats = worker.drain()
        assert stats.heartbeats >= 1
        samples = [
            event for event in tracer.events()
            if getattr(event, "name", None) == "fabric.lease.heartbeat_age"
        ]
        assert samples
        assert all(event.track == "fabric" for event in samples)
        published = registry.snapshot().values
        assert published.get("fabric.worker.cells_executed") == 2
        assert "fabric.lease.heartbeat_age" in published
