"""``repro top``: one refreshing screen of fleet state, read from disk.

Everything the dashboard shows already lives under the shared cache
root — the job store's journals, the sweep manifests, the fabric's lease
files and worker beacons — so the view needs no live service: it folds
the same durable state any scheduler replica or fabric drain would
replay, which means it works mid-outage, exactly when an operator wants
it.

:func:`fleet_snapshot` is the machine-readable fold (also the data
source for ``repro jobs --watch``); :func:`render_top` formats one
screen; :func:`watch` redraws until interrupted.

Import discipline: module level touches only the stdlib + telemetry;
job-store and fabric helpers load lazily inside the fold.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

__all__ = ["fleet_snapshot", "render_top", "watch"]


def _age(now: float, then) -> float | None:
    if not isinstance(then, (int, float)) or then <= 0:
        return None
    return max(0.0, now - then)


def _fmt_age(seconds) -> str:
    if seconds is None:
        return "-"
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{seconds / 60:.0f}m"
    return f"{seconds / 3600:.1f}h"


def _manifest_progress(cache_root: Path, sweep_key: str) -> tuple[int, int]:
    """``(done, failed)`` cells journaled in one sweep's manifest."""
    from repro.experiments.supervisor import manifest_path, parse_manifest_line

    done: set[str] = set()
    failed: set[str] = set()
    try:
        text = manifest_path(cache_root, sweep_key).read_text()
    except OSError:
        return 0, 0
    for line in text.splitlines():
        record = parse_manifest_line(line.strip()) if line.strip() else None
        if record is None:
            continue
        key = record.get("key")
        event = record.get("event")
        if not key:
            continue
        if event == "done":
            failed.discard(key)
            done.add(key)
        elif event == "failed":
            done.discard(key)
            failed.add(key)
    return len(done), len(failed)


def fleet_snapshot(store=None, cache_root=None, now=None) -> dict:
    """Fold jobs + manifests + leases + beacons into one status dict.

    Returns ``{"now", "jobs", "queue_depth", "tenants", "workers",
    "leases"}`` — every row JSON-serializable, ages in seconds.  Jobs
    carry their sweep's manifest progress; workers are the fabric
    beacons younger than ten minutes (older ones are previous sweeps'
    leftovers, not a live fleet).
    """
    from repro.experiments.cache import default_cache
    from repro.service.queue import JobStore

    if store is None:
        store = JobStore()
    cache_root = Path(cache_root) if cache_root else default_cache().root
    now = now if now is not None else time.time()

    jobs = []
    tenants: dict[str, dict] = {}
    queue_depth = 0
    progress_cache: dict[str, tuple[int, int]] = {}
    for record in store.jobs():
        spec = record.spec
        sweep_key = spec.sweep_key
        if sweep_key not in progress_cache:
            progress_cache[sweep_key] = _manifest_progress(cache_root, sweep_key)
        done, failed = progress_cache[sweep_key]
        total = len(spec.benchmarks) * len(spec.schemes)
        last_ts = max(
            (
                event["ts"]
                for event in record.events
                if isinstance(event.get("ts"), (int, float))
            ),
            default=record.submitted,
        )
        if record.state == "queued":
            queue_depth += 1
        jobs.append(
            {
                "job_id": record.job_id,
                "tenant": spec.tenant,
                "state": record.state,
                "age": _age(now, record.submitted),
                "last_event_age": _age(now, last_ts),
                "cells_done": done,
                "cells_failed": failed,
                "cells_total": total,
                "sweep_key": sweep_key,
            }
        )
        tenant = tenants.setdefault(
            spec.tenant, {"jobs": {}, "cells_total": 0, "cache_hits": 0}
        )
        tenant["jobs"][record.state] = tenant["jobs"].get(record.state, 0) + 1
        if record.state == "done":
            tenant["cells_total"] += record.detail.get("cells_total", 0)
            tenant["cache_hits"] += record.detail.get("cache_hits", 0)

    workers = []
    leases = []
    leases_root = cache_root / "leases"
    if leases_root.is_dir():
        for sweep_dir in sorted(leases_root.iterdir()):
            if not sweep_dir.is_dir():
                continue
            held = expired = 0
            for lease_path in sweep_dir.glob("*.lease"):
                try:
                    lease = json.loads(lease_path.read_text())
                except (OSError, ValueError):
                    continue
                if lease.get("state") != "held":
                    continue
                heartbeat_age = _age(now, lease.get("heartbeat"))
                # The default fabric TTL; an operator screen only needs
                # the order of magnitude to flag an abandoned lease.
                if heartbeat_age is not None and heartbeat_age > 10.0:
                    expired += 1
                else:
                    held += 1
            if held or expired:
                leases.append(
                    {"sweep_key": sweep_dir.name, "held": held,
                     "expired": expired}
                )
            workers_dir = sweep_dir / "workers"
            if not workers_dir.is_dir():
                continue
            for path in sorted(workers_dir.glob("*.json")):
                try:
                    beacon = json.loads(path.read_text())
                except (OSError, ValueError):
                    continue
                beacon_age = _age(now, beacon.get("updated"))
                if beacon_age is None or beacon_age > 600.0:
                    continue
                stats = beacon.get("stats", {})
                workers.append(
                    {
                        "owner": beacon.get("owner", path.stem),
                        "pid": beacon.get("pid"),
                        "sweep_key": sweep_dir.name,
                        "state": beacon.get("state"),
                        "beacon_age": beacon_age,
                        "executed": stats.get("cells_executed", 0),
                        "stores": stats.get("stores", 0),
                        "fenced_out": stats.get("cells_fenced_out", 0),
                        "heartbeats": stats.get("heartbeats", 0),
                    }
                )

    return {
        "now": now,
        "jobs": jobs,
        "queue_depth": queue_depth,
        "tenants": tenants,
        "workers": workers,
        "leases": leases,
    }


def render_top(snapshot: dict) -> str:
    """One terminal screen of fleet state."""
    jobs = snapshot["jobs"]
    running = sum(1 for job in jobs if job["state"] == "running")
    lines = [
        f"repro fleet  {time.strftime('%H:%M:%S', time.localtime(snapshot['now']))}"
        f"  jobs: {len(jobs)} total, {running} running, "
        f"{snapshot['queue_depth']} queued",
        "",
        f"{'job':<18}{'tenant':<14}{'state':<11}{'age':>6}{'last ev':>9}"
        f"{'cells':>12}",
    ]
    for job in jobs:
        cells = f"{job['cells_done']}/{job['cells_total']}"
        if job["cells_failed"]:
            cells += f" !{job['cells_failed']}"
        lines.append(
            f"{job['job_id']:<18}{job['tenant']:<14}{job['state']:<11}"
            f"{_fmt_age(job['age']):>6}{_fmt_age(job['last_event_age']):>9}"
            f"{cells:>12}"
        )
    if not jobs:
        lines.append("(no jobs)")

    if snapshot["workers"]:
        lines.append("")
        lines.append(
            f"{'worker':<22}{'state':<11}{'beacon':>7}{'ran':>5}{'stored':>7}"
            f"{'fenced':>7}{'hb':>5}"
        )
        for worker in snapshot["workers"]:
            lines.append(
                f"{worker['owner']:<22}{(worker['state'] or '?'):<11}"
                f"{_fmt_age(worker['beacon_age']):>7}{worker['executed']:>5}"
                f"{worker['stores']:>7}{worker['fenced_out']:>7}"
                f"{worker['heartbeats']:>5}"
            )
    if snapshot["leases"]:
        lines.append("")
        for row in snapshot["leases"]:
            lines.append(
                f"leases {row['sweep_key'][:16]}: {row['held']} held, "
                f"{row['expired']} expired"
            )
    if snapshot["tenants"]:
        lines.append("")
        lines.append(f"{'tenant':<18}{'jobs':<26}{'cells':>8}{'hit%':>7}")
        for tenant in sorted(snapshot["tenants"]):
            usage = snapshot["tenants"][tenant]
            states = " ".join(
                f"{state}:{count}"
                for state, count in sorted(usage["jobs"].items())
            )
            total = usage["cells_total"]
            ratio = (usage["cache_hits"] / total * 100) if total else 0.0
            lines.append(
                f"{tenant:<18}{states:<26}{total:>8}{ratio:>6.0f}%"
            )
    return "\n".join(lines)


def watch(
    store=None,
    cache_root=None,
    interval: float = 1.0,
    once: bool = False,
    stream=None,
    render=render_top,
    iterations: int | None = None,
) -> None:
    """Redraw the fleet screen every ``interval`` seconds until ^C.

    ``once`` prints a single snapshot and returns (for scripts and CI);
    ``iterations`` bounds the loop (tests).  ``render`` is pluggable so
    ``repro jobs --watch`` reuses this loop with its own table.
    """
    stream = stream or sys.stdout
    count = 0
    while True:
        snapshot = fleet_snapshot(store=store, cache_root=cache_root)
        screen = render(snapshot)
        if once:
            stream.write(screen + "\n")
            return
        stream.write("\x1b[2J\x1b[H" + screen + "\n")
        stream.flush()
        count += 1
        if iterations is not None and count >= iterations:
            return
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            return
