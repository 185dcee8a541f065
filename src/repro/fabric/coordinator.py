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
* **drain** — run the supervisor's loop over the swarm, claiming each
  cell through the lease directory, N cells at a time on this host.

**Collection is a merge, not a gather.**  Finished cells live in the
content-addressed result cache; a drain serves every cell whose entry
verifies and returns the whole sweep.  Snapshot merging is commutative and
associative (locked by the telemetry suite), so the merged snapshot of a
sweep drained by any number of hosts in any interleaving equals the serial
run's — the property the fabric soak (``repro faults --layer fabric``)
asserts byte-for-byte.
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
    SupervisorPolicy,
    SweepManifest,
    grid_cells,
    manifest_path,
    run_grid_supervised,
    sweep_key,
    verified_done_cell,
)
from repro.fabric.lease import LeaseManager, lease_root
from repro.ioutil import atomic_write_json

__all__ = [
    "SWARM_SCHEMA",
    "SwarmSpec",
    "start_swarm",
    "swarm_status",
    "render_status",
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
        pass  # a drain's first claim reports the unusable directory
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
        # The cache decides: a drain serves a cell another sweep computed
        # without journaling it here.
        if verified_done_cell(disk, cell_key) is not None:
            row["state"] = "done"
            row["owner"] = manifest.done.get(cell_key, {}).get("owner")
        elif cell_key in manifest.done:
            # Journaled done, but the entry no longer verifies: the cell
            # will be recomputed by the next drain pass.
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


# -- draining ------------------------------------------------------------------


def drain_swarm(
    spec: SwarmSpec,
    workers: int = 2,
    policy: SupervisorPolicy | None = None,
    leases: LeaseManager | None = None,
    tracer=None,
    registry=None,
    strict: bool = True,
):
    """Drain a swarm from this host, ``workers`` cells at a time.

    The drain is the supervisor's loop claiming through the swarm's lease
    directory: cells another drain holds wait, cells a dead drain held
    are taken over once their lease's TTL lapses, and every store is
    fenced.  More hosts means more ``drain`` processes over the shared
    cache directory.  ``leases`` overrides the lease manager (its owner
    names this drain in leases, the manifest and its beacon; chaos soaks
    pass a sabotaged one); by default it is ``<host>:<pid>`` with
    ``policy.ttl_seconds``.  An unusable lease directory raises
    ``OSError``, a disabled result cache ``ValueError``: drains share
    finished cells through it, and without it a fenced store could never
    land.  With ``strict`` a cell that fails for good raises; otherwise it
    is recorded in the sweep's ``failures``.

    Returns the :class:`~repro.experiments.sweep.SweepResult`, whose
    ``supervision`` carries what this drain did.
    """
    policy = policy or SupervisorPolicy()
    disk = result_cache.default_cache()
    if not disk.enabled:
        raise ValueError(
            "a drain shares finished cells through the result cache; "
            f"unset {result_cache.CACHE_DISABLE_ENV}"
        )
    key = start_swarm(spec, cache_root=disk.root)
    if leases is None:
        leases = LeaseManager(
            lease_root(disk.root, key), ttl_seconds=policy.ttl_seconds
        )
    return run_grid_supervised(
        list(spec.benchmarks), list(spec.schemes),
        machine=spec.machine_config, references=spec.references,
        seed=spec.seed, keep_going=not strict, jobs=workers,
        policy=policy, tracer=tracer, registry=registry, leases=leases,
    )
