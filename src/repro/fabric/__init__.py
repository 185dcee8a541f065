"""Distributed sweep fabric: lease-based multi-host grid execution.

The single-host half of distributed sweeps already exists — pure cells
keyed by content-addressed cache keys, an append-only JSONL checkpoint
manifest, a digest-verified self-healing result cache, and the
supervisor's loop that runs cells in isolated workers.  This package adds
the coordination that lets N drains (processes, or hosts sharing a
filesystem) cooperatively run *one* grid without double work, lost work,
or divergent results:

* :mod:`repro.fabric.lease` — per-cell lease files with monotonically
  increasing **fencing tokens**: atomic claim (``O_EXCL``), heartbeat
  renewal, TTL-based takeover of dead owners, and token comparison at
  cache-store time so a resurrected zombie can never clobber a newer
  owner's result.  The supervisor's loop claims, renews, fences and
  releases through a :class:`LeaseManager`.
* :mod:`repro.fabric.coordinator` — ``repro swarm start/status/drain``:
  seed the manifest, watch per-host liveness and per-cell state, and
  drain the grid through the supervisor with leases; the drained sweep
  equals the serial run (snapshot merges are commutative and
  associative, so multi-host == serial — locked by the fabric soak).

Determinism contract: cells are pure, the cache key is the unit of work,
and every store is fenced — therefore serial == 2-drain == N-drain ==
N-drain-under-chaos, byte-identical snapshots included (see
``repro faults --layer fabric``).
"""

from repro.fabric.coordinator import (
    SwarmSpec,
    drain_swarm,
    render_status,
    start_swarm,
    swarm_status,
)
from repro.fabric.lease import Lease, LeaseLost, LeaseManager, LeaseStats

__all__ = [
    "Lease",
    "LeaseLost",
    "LeaseManager",
    "LeaseStats",
    "SwarmSpec",
    "start_swarm",
    "swarm_status",
    "render_status",
    "drain_swarm",
]
