"""Swarm coordination: seed, watch, and merge a multi-worker sweep.

The coordinator owns the three verbs behind the ``repro swarm`` CLI:

* **start** — persist a :class:`SwarmSpec` (the sweep's shape) under the
  shared cache root and open its checkpoint manifest, so any number of
  ``repro swarm drain`` invocations — in other terminals, or on other
  hosts sharing the cache directory — can pick the work up by sweep key.
* **status** — fold the manifest, the lease directory, and the worker
  beacons into one liveness/work table: per-cell state (done / failed /
  leased-by-whom / pending, heartbeat ages, fencing tokens) and per-host
  totals.
* **drain** — run N local workers against the swarm, then collect.

**Collection is a merge, not a gather.**  Finished cells live in the
content-addressed result cache; :func:`collect_sweep` reads them back by
key and assembles a :class:`~repro.experiments.sweep.SweepResult`.
Snapshot merging is commutative and associative (locked by the telemetry
suite), so the merged snapshot of a sweep drained by any number of hosts
in any interleaving equals the serial run's — the property the fabric
soak (``repro faults --layer fabric``) asserts byte-for-byte.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from repro.experiments import cache as result_cache
from repro.experiments.config import TABLE1_1M, TABLE1_256K, MachineConfig
from repro.experiments.runner import SCHEMES
from repro.experiments.supervisor import (
    SweepManifest,
    grid_cells,
    manifest_path,
    sweep_key,
    verified_done_cell,
)
from repro.fabric.lease import LeaseManager, lease_root
from repro.fabric.worker import (
    FabricPolicy,
    FabricWorker,
    LeaseDirUnavailable,
)
from repro.ioutil import atomic_write_json
from repro.telemetry.fleet import adopt_trace_context, current_trace_context

__all__ = [
    "SWARM_SCHEMA",
    "SwarmSpec",
    "start_swarm",
    "swarm_status",
    "render_status",
    "collect_sweep",
    "drain_swarm",
]

SWARM_SCHEMA = "repro.fabric.swarm/v1"

_MACHINES: dict[str, MachineConfig] = {
    cfg.name: cfg for cfg in (TABLE1_256K, TABLE1_1M)
}


@dataclass(frozen=True)
class SwarmSpec:
    """The shape of one distributed sweep (host-portable, JSON-stable)."""

    benchmarks: tuple[str, ...]
    schemes: tuple[str, ...]
    machine: str = TABLE1_256K.name
    references: int | None = None
    seed: int = 1

    def __post_init__(self) -> None:
        if not self.benchmarks or not self.schemes:
            raise ValueError("a swarm needs at least one benchmark and scheme")
        unknown = [s for s in self.schemes if s not in SCHEMES]
        if unknown:
            raise ValueError(f"unknown scheme(s): {', '.join(unknown)}")
        if self.machine not in _MACHINES:
            raise ValueError(
                f"unknown machine {self.machine!r}; "
                f"choose from {', '.join(sorted(_MACHINES))}"
            )

    @property
    def machine_config(self) -> MachineConfig:
        return _MACHINES[self.machine]

    @property
    def key(self) -> str:
        return sweep_key(
            list(self.benchmarks), list(self.schemes),
            self.machine_config, self.references, self.seed,
        )

    def cells(self):
        return grid_cells(
            list(self.benchmarks), list(self.schemes),
            self.machine_config, self.references, self.seed,
        )

    def meta(self) -> dict:
        return {
            "key": self.key,
            "benchmarks": list(self.benchmarks),
            "schemes": list(self.schemes),
            "machine": self.machine,
            "references": self.references,
            "seed": self.seed,
        }

    def to_dict(self) -> dict:
        return {"schema": SWARM_SCHEMA, **self.meta()}

    @classmethod
    def from_dict(cls, payload: dict) -> "SwarmSpec":
        return cls(
            benchmarks=tuple(payload["benchmarks"]),
            schemes=tuple(payload["schemes"]),
            machine=payload.get("machine", TABLE1_256K.name),
            references=payload.get("references"),
            seed=payload.get("seed", 1),
        )


def _spec_path(cache_root: Path | str, key: str) -> Path:
    return Path(cache_root) / f"swarm-{key}.json"


def load_spec(key: str, cache_root: Path | str | None = None) -> SwarmSpec:
    """Load a started swarm's spec by its sweep key."""
    root = Path(cache_root) if cache_root else result_cache.default_cache().root
    payload = json.loads(_spec_path(root, key).read_text())
    return SwarmSpec.from_dict(payload)


def start_swarm(spec: SwarmSpec, cache_root: Path | str | None = None) -> str:
    """Seed a swarm: persist the spec, open the manifest, create the
    lease directory.  Idempotent; returns the sweep key other terminals
    and hosts use to join."""
    root = Path(cache_root) if cache_root else result_cache.default_cache().root
    root.mkdir(parents=True, exist_ok=True)
    key = spec.key
    atomic_write_json(_spec_path(root, key), spec.to_dict(), sort_keys=True)
    SweepManifest.open(manifest_path(root, key), meta=spec.meta())
    try:
        lease_root(root, key).mkdir(parents=True, exist_ok=True)
    except OSError:
        pass  # workers detect this and degrade to single-host mode
    return key


# -- status --------------------------------------------------------------------


def swarm_status(
    spec: SwarmSpec,
    cache_root: Path | str | None = None,
    ttl_seconds: float = 10.0,
    clock=time.time,
) -> dict:
    """One machine-readable view of a swarm's cells, leases, and hosts."""
    disk = result_cache.default_cache()
    root = Path(cache_root) if cache_root else disk.root
    key = spec.key
    manifest = SweepManifest.open(manifest_path(root, key), meta=spec.meta())
    leases = LeaseManager(
        lease_root(root, key), owner="status", ttl_seconds=ttl_seconds,
        clock=clock,
    )
    lease_rows = {row["key"]: row for row in leases.snapshot()}

    cells = []
    counts = {"done": 0, "failed": 0, "leased": 0, "pending": 0, "stale": 0}
    for benchmark, cell_spec, cell_key in spec.cells():
        row = {
            "cell": f"{benchmark}/{cell_spec.name}",
            "key": cell_key,
            "state": "pending",
            "owner": None,
            "token": None,
            "heartbeat_age": None,
        }
        lease = lease_rows.get(cell_key)
        if cell_key in manifest.done:
            if verified_done_cell(disk, cell_key) is not None:
                row["state"] = "done"
                row["owner"] = manifest.done[cell_key].get("owner")
            else:
                # Journaled done, but the entry no longer verifies: the
                # cell will be recomputed by the next drain pass.
                row["state"] = "stale"
        elif cell_key in manifest.failed:
            row["state"] = "failed"
        elif lease is not None and lease["state"] == "held":
            row["state"] = "expired" if lease["expired"] else "leased"
        if lease is not None:
            row["owner"] = row["owner"] or lease["owner"]
            row["token"] = lease["token"]
            row["heartbeat_age"] = lease["heartbeat_age"]
        counts[row["state"]] = counts.get(row["state"], 0) + 1
        cells.append(row)

    hosts: dict[str, dict] = {}
    workers_dir = lease_root(root, key) / "workers"
    if workers_dir.is_dir():
        now = clock()
        for path in sorted(workers_dir.glob("*.json")):
            try:
                beacon = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            owner = beacon.get("owner", path.stem)
            hosts[owner] = {
                "state": beacon.get("state"),
                "beacon_age": max(0.0, now - float(beacon.get("updated", now))),
                "executed": beacon.get("stats", {}).get("cells_executed", 0),
                "stores": beacon.get("stats", {}).get("stores", 0),
                "fenced_out": beacon.get("stats", {}).get("cells_fenced_out", 0),
                "takeovers": beacon.get("leases", {}).get("taken_over", 0),
            }

    return {
        "key": key,
        "spec": spec.meta(),
        "cells": cells,
        "counts": counts,
        "total": len(cells),
        "hosts": hosts,
        "complete": counts["done"] == len(cells),
    }


def render_status(status: dict) -> str:
    """Human-readable swarm table (``repro swarm status``)."""
    counts = status["counts"]
    lines = [
        f"swarm {status['key'][:16]}  "
        f"({status['total']} cells: {counts['done']} done, "
        f"{counts.get('leased', 0)} leased, "
        f"{counts.get('expired', 0)} expired, "
        f"{counts['pending']} pending, {counts['failed']} failed, "
        f"{counts.get('stale', 0)} stale)",
        f"{'cell':<32}{'state':<10}{'owner':<22}{'token':>6}{'hb age':>9}",
    ]
    for row in status["cells"]:
        age = row["heartbeat_age"]
        lines.append(
            f"{row['cell']:<32}{row['state']:<10}"
            f"{(row['owner'] or '-'):<22}"
            f"{row['token'] if row['token'] is not None else '-':>6}"
            f"{f'{age:.1f}s' if age is not None else '-':>9}"
        )
    if status["hosts"]:
        lines.append("")
        lines.append(
            f"{'host':<26}{'state':<10}{'beacon':>8}{'ran':>5}"
            f"{'stored':>7}{'fenced':>7}{'stolen':>7}"
        )
        for owner in sorted(status["hosts"]):
            host = status["hosts"][owner]
            lines.append(
                f"{owner:<26}{(host['state'] or '?'):<10}"
                f"{host['beacon_age']:>7.1f}s{host['executed']:>5}"
                f"{host['stores']:>7}{host['fenced_out']:>7}"
                f"{host['takeovers']:>7}"
            )
    lines.append("complete" if status["complete"] else "in progress")
    return "\n".join(lines)


# -- collection ----------------------------------------------------------------


def collect_sweep(spec: SwarmSpec, strict: bool = True):
    """Assemble the drained sweep from the shared cache.

    Every cell is read back (and digest-verified) through the cache by
    its content key, in the canonical grid order — merges of the
    per-cell snapshots are commutative and associative, so this equals
    the serial ``run_grid`` result no matter how many hosts drained the
    manifest or in what interleaving.  With ``strict`` (default) a
    missing or unverifiable cell raises; otherwise it is skipped (the
    partial-progress view used by ``swarm status``-style tooling).
    """
    from repro.experiments.sweep import SweepResult

    disk = result_cache.default_cache()
    sweep = SweepResult(machine=spec.machine, references=spec.references)
    missing = []
    for benchmark, cell_spec, cell_key in spec.cells():
        cell = verified_done_cell(disk, cell_key)
        if cell is None:
            missing.append(f"{benchmark}/{cell_spec.name}")
            continue
        sweep.results[(benchmark, cell_spec.name)] = cell.metrics
        sweep.snapshots[(benchmark, cell_spec.name)] = cell.snapshot
    if missing and strict:
        raise RuntimeError(
            f"swarm incomplete: {len(missing)} cell(s) not drained "
            f"({', '.join(missing[:4])}{'...' if len(missing) > 4 else ''})"
        )
    return sweep


# -- draining ------------------------------------------------------------------


def _drain_worker_entry(
    spec_payload, owner, policy, chaos, cache_dir, trace=None
) -> None:
    """Subprocess body of one drain worker (fork-safe, self-contained).

    ``trace`` is the forking thread's job context, adopted first so the
    worker's lines, and the cell workers it forks, carry it.
    """
    import os

    adopt_trace_context(trace)
    os.environ[result_cache.CACHE_DIR_ENV] = str(cache_dir)
    result_cache.reset_default_cache()
    from repro.experiments import runner

    runner._MISS_TRACE_CACHE.clear()
    spec = SwarmSpec.from_dict(spec_payload)
    worker = FabricWorker(spec, owner=owner, policy=policy, chaos=chaos)
    try:
        worker.drain()
    except LeaseDirUnavailable:
        os._exit(3)


def drain_swarm(
    spec: SwarmSpec,
    workers: int = 2,
    policy: FabricPolicy | None = None,
    chaos=None,
    tracer=None,
    registry=None,
    owner_prefix: str = "w",
    strict: bool = True,
):
    """Drain a swarm with ``workers`` local worker processes and collect.

    Worker 0 runs *in this process* (so its tracer/registry wiring —
    including the ``fabric.lease.heartbeat_age`` track — lands in the
    caller's telemetry); the rest fork.  A worker process that dies
    (chaos, OOM, operator kill) is *not* restarted: its leases expire and
    the survivors take the cells over — that is the mechanism under test.

    Degrades to single-host supervised execution when the lease
    directory is unusable, preserving the results contract.  Returns the
    collected :class:`~repro.experiments.sweep.SweepResult` with a
    ``fabric`` attribute describing what the drain did.
    """
    import multiprocessing

    policy = policy or FabricPolicy()
    disk = result_cache.default_cache()
    start_swarm(spec, cache_root=disk.root)

    mp = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )
    procs = []
    for index in range(1, max(1, workers)):
        proc = mp.Process(
            target=_drain_worker_entry,
            args=(
                spec.to_dict(), f"{owner_prefix}{index}", policy, chaos,
                str(disk.root), current_trace_context(),
            ),
            daemon=True,
        )
        proc.start()
        procs.append(proc)

    local = FabricWorker(
        spec, owner=f"{owner_prefix}0", policy=policy, chaos=chaos,
        tracer=tracer, registry=registry,
    )
    degraded = False
    try:
        local.drain()
    except LeaseDirUnavailable:
        degraded = True
    finally:
        for proc in procs:
            proc.join(timeout=policy.drain_timeout_seconds)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)

    if degraded:
        from repro.experiments.supervisor import run_grid_supervised

        sweep = run_grid_supervised(
            list(spec.benchmarks), list(spec.schemes),
            machine=spec.machine_config, references=spec.references,
            seed=spec.seed, use_cache=True,
            tracer=tracer, registry=registry,
        )
        sweep.fabric = {"degraded": True, "workers": 0}
        return sweep

    sweep = collect_sweep(spec, strict=strict)
    exit_codes = [proc.exitcode for proc in procs]
    sweep.fabric = {
        "degraded": False,
        "workers": max(1, workers),
        "local": local.stats.as_dict(),
        "local_leases": local.lease.stats.as_dict(),
        "worker_exit_codes": exit_codes,
        "stored_tokens": local.lease.stored_tokens(),
    }
    return sweep
