"""Supervised, crash-safe sweep execution.

:mod:`repro.experiments.parallel` fans a grid out with a bare
``ProcessPoolExecutor.map`` — fast, deterministic, and fragile: a killed
worker tears down the whole pool, a hung cell stalls the sweep forever,
and an interrupted run forgets which cells already finished.  This module
supervises the same pure, content-addressed cells (the cache key *is* the
unit of work) with the orchestration-level analogue of the controller's
:class:`~repro.secure.controller.RecoveryPolicy`:

* **Per-cell timeouts.**  Every cell runs in its own worker process with a
  wall-clock deadline; a hung worker is terminated, not waited on.
* **Crash detection and bounded retry.**  A worker that dies (nonzero
  exit, lost pipe) or times out is retried with exponential backoff — and
  after ``max_retries`` the cell **degrades to in-process serial
  execution**, trading isolation for certainty, exactly like the
  controller falling back to the demand path.
* **The cache decides what is done.**  A cell whose result-cache entry
  verifies is served without forking a worker, so a restarted sweep
  recomputes only what is missing — idempotent because cell identity is
  the content-addressed cache key.  Progress is also journaled (one JSON
  line per event) to ``.repro-cache/manifest-<sweep_key>.jsonl`` for the
  status readers.
* **Leases.**  Given a :class:`~repro.fabric.lease.LeaseManager`, the
  loop shares the grid with other drains over one lease directory: it
  claims each cell before forking its worker (a cell a live peer holds
  waits for the next poll), renews its leases from the poll loop once
  they are ``ttl / 3`` old, stores each result through the lease's
  fencing check and releases the lease.  This is the distributed fabric;
  without a lease manager this process is the only claimant.

Because a supervised cell runs the *same* :func:`~repro.experiments.
runner.run_cell` as the serial loop, a sweep that survived any amount of
supervision drama produces a :class:`~repro.experiments.sweep.SweepResult`
identical to an undisturbed serial run — the property the chaos soaks in
:mod:`repro.faults.orchestration` lock.

Chaos hooks: a ``chaos`` object with an ``action_for(cell_key, attempt)``
method (see :class:`repro.faults.orchestration.SweepChaos`) can sabotage
attempts — the resolved ``(action, seconds)`` pair rides into the worker,
which kills itself, sleeps, or corrupts its own cache entry on command.
Host-level sabotage wraps the lease manager instead.  The supervisor
itself stays chaos-agnostic.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import time
from dataclasses import dataclass
from pathlib import Path

from repro.experiments import cache as result_cache
from repro.experiments.config import MachineConfig, TABLE1_256K
from repro.experiments.parallel import resolve_jobs
from repro.experiments.runner import (
    CellResult,
    RunFailure,
    SCHEMES,
    default_references,
    get_miss_trace,
    run_cell,
)
from repro.telemetry.fleet import adopt_trace_context, current_trace_context
from repro.telemetry.log import get_logger

__all__ = [
    "MANIFEST_SCHEMA",
    "SupervisorPolicy",
    "SupervisorStats",
    "SweepManifest",
    "ManifestTail",
    "parse_manifest_line",
    "sweep_key",
    "manifest_path",
    "grid_cells",
    "verified_done_cell",
    "run_grid_supervised",
]

MANIFEST_SCHEMA = "repro.sweep.manifest/v1"

#: Worker exit code for a chaos-commanded kill (recognizable in manifests).
CHAOS_KILL_EXIT = 43

_MP = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)

_LOG = get_logger("supervisor")


@dataclass(frozen=True)
class SupervisorPolicy:
    """How the supervisor responds when a worker misbehaves.

    The orchestration twin of the controller's ``RecoveryPolicy``: bounded
    retries under exponential (capped) backoff, then graceful degradation —
    here, re-running the cell in-process where no worker can die.  The
    last two fields only act on a leased run: a lease is abandoned once
    its heartbeat is ``ttl_seconds`` old (the loop renews at a third of
    that), and a drain whose every pending cell a peer holds for
    ``drain_timeout_seconds`` gives up.
    """

    cell_timeout_seconds: float = 120.0
    max_retries: int = 2
    backoff_base_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_cap_seconds: float = 2.0
    degrade_to_serial: bool = True
    poll_interval_seconds: float = 0.02
    ttl_seconds: float = 10.0
    drain_timeout_seconds: float = 600.0

    def __post_init__(self) -> None:
        if self.cell_timeout_seconds <= 0:
            raise ValueError(
                f"cell_timeout_seconds must be > 0, got {self.cell_timeout_seconds}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base_seconds < 0:
            raise ValueError(
                f"backoff_base_seconds must be >= 0, got {self.backoff_base_seconds}"
            )
        if self.backoff_multiplier < 1:
            raise ValueError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if self.backoff_cap_seconds < 0:
            raise ValueError(
                f"backoff_cap_seconds must be >= 0, got {self.backoff_cap_seconds}"
            )
        if self.ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be > 0, got {self.ttl_seconds}")
        if self.drain_timeout_seconds <= 0:
            raise ValueError(
                f"drain_timeout_seconds must be > 0, got {self.drain_timeout_seconds}"
            )

    def backoff_seconds(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based), capped.

        Computed without ever materializing a huge power, so the value is
        stable (and cheap) at arbitrarily large attempt numbers.
        """
        delay = self.backoff_base_seconds
        for _ in range(max(0, attempt - 1)):
            delay *= self.backoff_multiplier
            if delay >= self.backoff_cap_seconds:
                return self.backoff_cap_seconds
        return min(delay, self.backoff_cap_seconds)


@dataclass
class SupervisorStats:
    """What supervision actually did during one sweep."""

    cells_total: int = 0
    cells_completed: int = 0          # computed by a worker this run
    cells_resumed: int = 0            # served from a verified cache entry
    retries: int = 0                  # worker attempts beyond the first
    timeouts: int = 0                 # workers terminated at the deadline
    worker_deaths: int = 0            # workers that died without reporting
    worker_errors: int = 0            # workers that reported an exception
    degraded_cells: int = 0           # cells that fell back to in-process
    failures: int = 0                 # cells that produced no result at all
    chaos_events: int = 0             # sabotage actions handed to workers
    stores: int = 0                   # fenced stores that landed (leased)
    cells_fenced_out: int = 0         # computed, refused at store (leased)

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)

    def publish(self, registry, prefix: str = "sweep.supervisor") -> None:
        """Export supervision counters into a telemetry registry."""
        for name, value in self.as_dict().items():
            registry.counter(f"{prefix}.{name}").inc(value)


# -- sweep identity ------------------------------------------------------------


def sweep_key(
    benchmarks, schemes, machine: MachineConfig, references, seed: int
) -> str:
    """Content key naming one sweep's manifest (config + code fingerprint)."""
    return result_cache._digest(
        {
            "kind": "sweep-manifest",
            "benchmarks": list(benchmarks),
            "schemes": [
                scheme if isinstance(scheme, str) else scheme.name
                for scheme in schemes
            ],
            "machine": machine,
            "references": references,
            "seed": seed,
            "code": result_cache.code_fingerprint(),
        }
    )


def manifest_path(cache_root: Path | str, key: str) -> Path:
    return Path(cache_root) / f"manifest-{key}.jsonl"


def parse_manifest_line(line: str):
    """Parse one journal line, salvaging a complete record glued onto a
    torn fragment (writer A crashed mid-append, writer B's O_APPEND write
    landed on the same line).  Returns ``None`` for an unsalvageable line.

    The single parsing rule for every JSONL journal in the system — sweep
    manifests, the service layer's per-job journals — so each consumer
    tolerates torn writes identically.
    """
    try:
        return json.loads(line)
    except ValueError:
        start = line.find('{"', 1)
        while start != -1:
            try:
                return json.loads(line[start:])
            except ValueError:
                start = line.find('{"', start + 1)
        return None


class ManifestTail:
    """Incremental, torn-line-tolerant reader of one append-only journal.

    Tracks a byte offset into the file and, on each :meth:`drain`, parses
    only the *complete* lines appended since the previous call.  A trailing
    fragment without its newline yet — an append caught mid-write — is
    buffered and retried on the next drain, so a consumer polling a live
    manifest never sees a torn event and never misses the completed form.
    A file that does not exist yet simply drains to nothing (the journal's
    writer may not have started).

    The service layer's asyncio event streams and progress sampler
    interleave ``drain()`` with their own sleep primitive.
    """

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self._offset = 0
        self._partial = ""

    def drain(self) -> list[dict]:
        """Every complete event appended since the last drain, in order."""
        try:
            with self.path.open("rb") as handle:
                handle.seek(self._offset)
                data = handle.read()
        except (FileNotFoundError, OSError):
            return []
        if not data:
            return []
        self._offset += len(data)
        text = self._partial + data.decode("utf-8", "replace")
        lines = text.split("\n")
        # The final element is everything after the last newline: a torn
        # trailing line still being appended.  Keep it for the next drain.
        self._partial = lines.pop()
        records = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            record = parse_manifest_line(line)
            if record is not None:
                records.append(record)
        return records


def grid_cells(benchmarks, schemes, machine, references, seed):
    """Enumerate a grid's cells as ``(benchmark, spec, cell_key)`` triples.

    The single source of truth for cell identity and order: every drain of
    a grid, leased or not, iterates exactly this sequence.
    """
    cells = []
    for benchmark in benchmarks:
        for scheme in schemes:
            spec = SCHEMES[scheme] if isinstance(scheme, str) else scheme
            cell_key = result_cache.result_key(
                benchmark, spec, machine,
                references or default_references(), seed,
            )
            cells.append((benchmark, spec, cell_key))
    return cells


def verified_done_cell(disk, cell_key: str, series_interval: int = 0):
    """A finished cell's cached result — verified, or ``None``.

    A ``done`` event is a *claim*, not proof: the entry behind it may have
    been quarantined, deleted, or truncated since it was journaled (a
    stale manifest over a poisoned cache).  Serve the cell only if the
    cache entry still exists *and* passes its digest check (``lookup_cell``
    quarantines and reports a miss otherwise), so a bad entry is
    recomputed instead of silently dropping the cell from the sweep.

    Cached entries carry no :class:`~repro.telemetry.snapshot.
    SnapshotSeries`, so when the caller asked for one (``series_interval``
    > 0) the cell must be recomputed regardless — a re-run series sweep
    would otherwise silently lose the series of every served cell.
    """
    if series_interval:
        return None
    cached = disk.lookup_cell(cell_key)
    if cached is None:
        return None
    metrics, snapshot = cached
    return CellResult(metrics=metrics, snapshot=snapshot)


class SweepManifest:
    """Append-only journal of one sweep's per-cell progress.

    One JSON object per line; the header line records the sweep's shape,
    every later line is an event (``start`` / ``done`` / ``failed`` /
    ``degrade``) keyed by the cell's cache key.  Appends are single
    ``write`` calls of one line, so a crash can at worst lose the final
    line — never corrupt an earlier one — and replay simply ignores a torn
    trailing line.

    Several writers (drains sharing a lease directory, possibly on
    different hosts over a shared filesystem) may append to one manifest
    concurrently: the file is opened in append mode, each event is one
    short write, and replay is order-insensitive up to the done/failed
    precedence rule, so interleaved appends replay to the union of every
    writer's events.  If a writer crashes mid-append and another writer's
    complete line lands glued onto the torn fragment, :meth:`_parse_line`
    salvages the intact suffix, so only the torn event itself is lost.
    """

    def __init__(self, path: Path, meta: dict | None = None):
        self.path = Path(path)
        self.done: dict[str, dict] = {}
        self.failed: dict[str, dict] = {}
        self._meta = dict(meta or {})

    @classmethod
    def open(cls, path: Path, meta: dict) -> "SweepManifest":
        """Load an existing manifest or start a fresh one with a header.

        ``done``/``failed`` hold the journal as it stood at open; later
        appends go to the file only, for the readers that replay it.
        """
        manifest = cls(path, meta)
        if manifest.path.exists():
            manifest._replay()
        else:
            manifest.path.parent.mkdir(parents=True, exist_ok=True)
            manifest._append({"schema": MANIFEST_SCHEMA, "sweep": manifest._meta})
        return manifest

    _parse_line = staticmethod(parse_manifest_line)

    def _replay(self) -> None:
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            return
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            record = self._parse_line(line)
            if record is None:
                continue  # torn line from a crash mid-append
            event = record.get("event")
            key = record.get("key")
            if event == "done" and key:
                self.failed.pop(key, None)
                self.done[key] = record
            elif event == "failed" and key:
                self.done.pop(key, None)
                self.failed[key] = record

    def _append(self, record: dict) -> None:
        with self.path.open("a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()

    def record(self, event: str, key: str, cell: str, **extra) -> None:
        # Every line carries its wall clock, a pid (its writer's, or the
        # worker's that ran the cell) and — when a service job is
        # executing — the job's trace context, so the fleet trace can
        # place the event on the right process lane and tell overlapping
        # jobs sharing one manifest apart.  Replay only reads event/key,
        # so the extra fields cost nothing to older consumers.
        record = {
            "event": event, "key": key, "cell": cell,
            "ts": time.time(), "pid": os.getpid(), **extra,
        }
        trace = current_trace_context()
        if trace is not None:
            record["trace"] = trace.to_dict()
        self._append(record)


# -- the worker side -----------------------------------------------------------


@dataclass(frozen=True)
class _CellTask:
    """Everything one supervised worker needs (picklable)."""

    index: int
    benchmark: str
    scheme: object                    # str or SchemeSpec
    machine: MachineConfig
    references: int | None
    seed: int
    use_cache: bool
    series_interval: int
    cell_key: str
    leased: bool = False              # the supervisor stores the result
    chaos: tuple | None = None        # resolved (action, seconds) or None

    @property
    def scheme_name(self) -> str:
        return self.scheme if isinstance(self.scheme, str) else self.scheme.name

    @property
    def cell(self) -> str:
        return f"{self.benchmark}/{self.scheme_name}"


def _run_task(task: _CellTask) -> CellResult:
    """Compute one cell, in a worker or (degraded) in the supervisor.

    A leased cell shares its miss trace through the trace tier but leaves
    the result store to the supervisor, which holds the lease's fence.
    """
    if task.leased:
        get_miss_trace(
            task.benchmark, task.machine, task.references, task.seed,
            use_cache=task.use_cache,
        )
    return run_cell(
        task.benchmark,
        task.scheme,
        machine=task.machine,
        references=task.references,
        seed=task.seed,
        use_cache=task.use_cache and not task.leased,
        series_interval=task.series_interval,
    )


def _corrupt_own_entry(task: _CellTask) -> None:
    """Chaos: truncate the cache entry this worker just stored."""
    path = result_cache.default_cache()._result_path(task.cell_key)
    if path.exists():
        data = path.read_bytes()
        path.write_bytes(data[: max(1, len(data) // 2)])


def _cell_worker(conn, task: _CellTask, trace=None) -> None:
    """Worker body: obey chaos, run the cell, report through the pipe.

    ``trace`` is the forking thread's job context, adopted first so the
    worker's own lines carry it.
    """
    adopt_trace_context(trace)
    try:
        action, seconds = task.chaos if task.chaos else (None, 0.0)
        if action == "kill":
            os._exit(CHAOS_KILL_EXIT)
        if action in ("hang", "slow"):
            time.sleep(seconds)
        cell = _run_task(task)
        if action == "corrupt":
            _corrupt_own_entry(task)
        conn.send(("ok", cell))
    except KeyboardInterrupt:
        raise
    except BaseException as err:  # report, let the supervisor decide
        try:
            conn.send(("error", (type(err).__name__, str(err))))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


@dataclass
class _RunningCell:
    task: _CellTask
    process: object
    conn: object
    deadline: float
    attempt: int                      # 0-based attempt currently running
    lease: object = None              # the Lease held while it runs
    lost: bool = False                # a renewal found the lease taken over


def _lease_fields(lease) -> dict:
    return {} if lease is None else {"owner": lease.owner, "token": lease.token}


# -- the supervisor ------------------------------------------------------------


class _Supervisor:
    """One sweep's supervision state machine (see run_grid_supervised)."""

    def __init__(
        self,
        policy: SupervisorPolicy,
        manifest: SweepManifest,
        jobs: int,
        keep_going: bool,
        chaos=None,
        tracer=None,
        leases=None,
    ):
        self.policy = policy
        self.manifest = manifest
        self.jobs = max(1, jobs)
        self.keep_going = keep_going
        self.chaos = chaos
        self.tracer = tracer
        self.leases = leases
        self.disk = result_cache.default_cache()
        self.stats = SupervisorStats()
        self._epoch = time.monotonic()
        self.results: dict[int, CellResult] = {}
        self.failures: list[RunFailure] = []

    # -- telemetry -------------------------------------------------------------

    def _at(self) -> int:
        return int((time.monotonic() - self._epoch) * 1_000_000)

    def _mark_inflight(self, count: int) -> None:
        if self.tracer is not None:
            self.tracer.counter(
                "sweep.inflight", at=self._at(), track="sweep", inflight=count
            )

    def _emit_heartbeat_age(self, lease) -> None:
        if self.tracer is not None:
            age = max(0.0, self.leases.clock() - lease.heartbeat)
            self.tracer.counter(
                "fabric.lease.heartbeat_age", at=self._at(), track="fabric",
                seconds=round(age, 6),
            )

    def _beacon(self, state: str) -> None:
        """Publish this drain's liveness row (leased runs only)."""
        if self.leases is not None:
            self.leases.beacon(
                state,
                {
                    **self.stats.as_dict(),
                    "cells_executed": self.stats.cells_completed,
                    "heartbeats": self.leases.stats.renewals,
                },
            )

    # -- lifecycle -------------------------------------------------------------

    def _serve(self, task: _CellTask) -> bool:
        """Take the cell's verified cache entry instead of forking a worker."""
        if not task.use_cache:
            return False
        cell = verified_done_cell(self.disk, task.cell_key, task.series_interval)
        if cell is None:
            return False
        self.results[task.index] = cell
        self.stats.cells_resumed += 1
        return True

    def _spawn(self, task: _CellTask, attempt: int, lease) -> _RunningCell:
        chaos_action = None
        if self.chaos is not None:
            chaos_action = self.chaos.action_for(task.cell_key, attempt)
            if chaos_action is not None:
                self.stats.chaos_events += 1
        armed = dataclasses.replace(task, chaos=chaos_action)
        parent_conn, child_conn = _MP.Pipe(duplex=False)
        process = _MP.Process(
            target=_cell_worker,
            args=(child_conn, armed, current_trace_context()),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.manifest.record(
            "start", task.cell_key, task.cell, attempt=attempt,
            chaos=chaos_action[0] if chaos_action else None,
            pid=process.pid, **_lease_fields(lease),
        )
        return _RunningCell(
            task=task,
            process=process,
            conn=parent_conn,
            deadline=time.monotonic() + self.policy.cell_timeout_seconds,
            attempt=attempt,
            lease=lease,
        )

    def _reap(self, running: _RunningCell) -> None:
        try:
            running.conn.close()
        except Exception:
            pass
        process = running.process
        process.join(timeout=1.0)
        if process.is_alive():
            process.kill()
            process.join(timeout=1.0)

    def _renew(self, running: list[_RunningCell]) -> None:
        """Renew every held lease that is a third of its TTL old."""
        from repro.fabric.lease import LeaseLost

        for cell in running:
            if cell.lease is None or cell.lost:
                continue
            age = self.leases.clock() - cell.lease.heartbeat
            if age < self.policy.ttl_seconds / 3:
                continue
            self._emit_heartbeat_age(cell.lease)
            try:
                cell.lease = self.leases.renew(cell.lease)
            except LeaseLost:
                cell.lost = True
            except OSError:
                pass  # a shared-filesystem hiccup; renew at the next poll

    def _store(
        self, task: _CellTask, cell: CellResult, lease, lost: bool,
        source: str, pid: int,
    ) -> bool:
        """Keep a finished cell; False when its lease fenced it out.

        A leased result is stored through the lease's fencing check here,
        so a store lands only while no newer owner exists.
        """
        if lease is not None:
            self._emit_heartbeat_age(lease)
            if lost or not self.disk.store_result(
                task.cell_key, cell.metrics, cell.snapshot,
                fence=self.leases.fence(lease),
            ):
                self.stats.cells_fenced_out += 1
                _LOG.warning(
                    "cell fenced out: lease moved on during computation",
                    owner=lease.owner, cell=task.cell, key=task.cell_key,
                    lease_token=lease.token, lease_lost=lost,
                )
                return False
            self.leases.journal_store(lease)
            self.stats.stores += 1
        self.results[task.index] = cell
        self.stats.cells_completed += 1
        self.manifest.record(
            "done", task.cell_key, task.cell, source=source, pid=pid,
            **_lease_fields(lease),
        )
        if lease is not None:
            self.leases.release(lease)
            self._beacon("draining")
        return True

    def _degrade(self, task: _CellTask, lease) -> bool:
        """Retries exhausted: run the cell in-process, where nothing dies."""
        self.stats.degraded_cells += 1
        _LOG.warning(
            "cell degraded to in-process execution after retries",
            cell=task.cell, key=task.cell_key,
            attempts=self.policy.max_retries + 1,
        )
        self.manifest.record("degrade", task.cell_key, task.cell)
        try:
            cell = _run_task(task)
        except Exception as err:
            if not self.keep_going:
                self.manifest.record(
                    "failed", task.cell_key, task.cell,
                    error=f"{type(err).__name__}: {err}",
                )
                raise
            self._record_failure(
                task,
                RunFailure(
                    benchmark=task.benchmark,
                    scheme=task.scheme_name,
                    error_type=type(err).__name__,
                    message=str(err),
                    attempts=1,
                    cell_key=task.cell_key,
                ),
            )
            return True
        return self._store(task, cell, lease, False, "degraded", os.getpid())

    def _record_failure(self, task: _CellTask, failure: RunFailure) -> None:
        self.failures.append(failure)
        self.stats.failures += 1
        _LOG.error(
            "cell failed with no result",
            cell=task.cell, key=task.cell_key,
            error_type=failure.error_type, error=failure.message,
        )
        self.manifest.record(
            "failed", task.cell_key, task.cell,
            error=f"{failure.error_type}: {failure.message}",
        )

    def _handle_exhausted(self, task: _CellTask, reason: str, lease) -> bool:
        """All worker attempts burned; degrade or record the failure.

        Returns False when a degraded run was fenced out.
        """
        if self.policy.degrade_to_serial:
            return self._degrade(task, lease)
        failure = RunFailure(
            benchmark=task.benchmark,
            scheme=task.scheme_name,
            error_type="SupervisionExhausted",
            message=reason,
            attempts=self.policy.max_retries + 1,
            cell_key=task.cell_key,
        )
        if not self.keep_going:
            self.manifest.record(
                "failed", task.cell_key, task.cell,
                error=f"{failure.error_type}: {failure.message}",
            )
            raise RuntimeError(f"supervised cell failed: {failure}")
        self._record_failure(task, failure)
        return True

    # -- main loop -------------------------------------------------------------

    def run(self, tasks: list[_CellTask]) -> None:
        self.stats.cells_total += len(tasks)
        # (task, attempt, not_before) triples awaiting a worker slot.
        pending: list[tuple[_CellTask, int, float]] = [
            (task, 0, 0.0) for task in tasks
        ]
        running: list[_RunningCell] = []
        idle_since = time.monotonic()
        self._beacon("draining")
        try:
            while pending or running:
                now = time.monotonic()
                progressed = False
                # Fill free slots with whatever is ready to (re)start.  A
                # peer may have finished a cell since the last pass, so the
                # cache is consulted again each time.
                deferred: list[tuple[_CellTask, int, float]] = []
                while pending and len(running) < self.jobs:
                    task, attempt, not_before = pending.pop(0)
                    if now < not_before:
                        deferred.append((task, attempt, not_before))
                        continue
                    if self._serve(task):
                        progressed = True
                        continue
                    lease = None
                    if self.leases is not None:
                        lease = self.leases.try_acquire(task.cell_key)
                        if lease is None:  # a live peer holds the cell
                            deferred.append((task, attempt, not_before))
                            continue
                    running.append(self._spawn(task, attempt, lease))
                    self._mark_inflight(len(running))
                    progressed = True
                pending[:0] = deferred

                if self.leases is not None:
                    self._renew(running)
                for cell in list(running):
                    verdict = self._poll(cell)
                    if verdict is None:
                        continue
                    progressed = True
                    running.remove(cell)
                    self._mark_inflight(len(running))
                    kind, detail = verdict
                    if kind == "ok":
                        if not self._store(
                            cell.task, detail, cell.lease, cell.lost,
                            "worker", cell.process.pid,
                        ):
                            pending.append((cell.task, cell.attempt, 0.0))
                        continue
                    # Crash / timeout / worker-reported error: retry or
                    # hand over to the degradation path.
                    next_attempt = cell.attempt + 1
                    if next_attempt <= self.policy.max_retries:
                        self.stats.retries += 1
                        pending.append(
                            (
                                cell.task,
                                next_attempt,
                                time.monotonic()
                                + self.policy.backoff_seconds(next_attempt),
                            )
                        )
                    elif not self._handle_exhausted(cell.task, detail, cell.lease):
                        pending.append((cell.task, cell.attempt, 0.0))
                if progressed or running:
                    idle_since = time.monotonic()
                elif (
                    pending
                    and time.monotonic() - idle_since
                    > self.policy.drain_timeout_seconds
                ):
                    _LOG.error(
                        "drain stalled: peers held every pending cell "
                        "past the deadline",
                        pending=len(pending),
                        timeout_seconds=self.policy.drain_timeout_seconds,
                    )
                    raise RuntimeError(
                        f"drain stalled: {len(pending)} cell(s) still pending "
                        f"after {self.policy.drain_timeout_seconds:.0f}s"
                    )
                if not progressed and (running or pending):
                    time.sleep(self.policy.poll_interval_seconds)
        except BaseException:
            for cell in running:
                try:
                    cell.process.terminate()
                except Exception:
                    pass
                self._reap(cell)
            raise
        finally:
            self._beacon("finished")

    def _poll(self, cell: _RunningCell):
        """One running worker's state: None (still going) or a verdict."""
        if cell.conn.poll(0):
            try:
                message = cell.conn.recv()
            except (EOFError, OSError):
                message = None  # pipe closed without a report: a death
            self._reap(cell)
            if message is None:
                self.stats.worker_deaths += 1
                _LOG.warning(
                    "worker died before reporting",
                    cell=cell.task.cell, key=cell.task.cell_key,
                    exitcode=cell.process.exitcode, attempt=cell.attempt,
                )
                return (
                    "died",
                    f"worker exited with code {cell.process.exitcode} "
                    f"before reporting",
                )
            if message[0] == "ok":
                return ("ok", message[1])
            self.stats.worker_errors += 1
            _LOG.warning(
                "worker reported an exception",
                cell=cell.task.cell, key=cell.task.cell_key,
                error_type=message[1][0], error=message[1][1],
                attempt=cell.attempt,
            )
            return ("error", f"worker raised {message[1][0]}: {message[1][1]}")
        if not cell.process.is_alive():
            self._reap(cell)
            self.stats.worker_deaths += 1
            _LOG.warning(
                "worker died before reporting",
                cell=cell.task.cell, key=cell.task.cell_key,
                exitcode=cell.process.exitcode, attempt=cell.attempt,
            )
            return (
                "died",
                f"worker exited with code {cell.process.exitcode} "
                f"before reporting",
            )
        if time.monotonic() > cell.deadline:
            cell.process.terminate()
            self._reap(cell)
            self.stats.timeouts += 1
            _LOG.warning(
                "worker terminated at the cell timeout",
                cell=cell.task.cell, key=cell.task.cell_key,
                timeout_seconds=self.policy.cell_timeout_seconds,
                attempt=cell.attempt,
            )
            return (
                "timeout",
                f"cell exceeded {self.policy.cell_timeout_seconds:.1f}s timeout",
            )
        return None


# -- public entry point --------------------------------------------------------


def run_grid_supervised(
    benchmarks,
    schemes,
    machine: MachineConfig = TABLE1_256K,
    references: int | None = None,
    seed: int = 1,
    keep_going: bool = False,
    jobs: int | None = 1,
    use_cache: bool = True,
    series_interval: int = 0,
    policy: SupervisorPolicy | None = None,
    chaos=None,
    tracer=None,
    registry=None,
    leases=None,
):
    """Run a grid under supervision; returns a ``SweepResult``.

    Same inputs-to-results contract as :func:`repro.experiments.sweep.
    run_grid` — cell-for-cell identical metrics and snapshots — plus:

    * per-cell worker processes, ``jobs`` at a time, with timeouts, crash
      retry (exponential backoff, capped) and in-process degradation per
      ``policy``;
    * cells whose result-cache entry verifies are served without a
      worker (counted in ``stats.cells_resumed``), so a re-run after an
      interrupt recomputes only the remainder; a journaled manifest under
      the cache root records every start, done and failure;
    * ``leases`` (a :class:`~repro.fabric.lease.LeaseManager`, internal
      to the fabric's drains): claim each cell before forking its worker,
      renew held leases from the poll loop, store through the lease's
      fence, journal the store and release — see the module docstring;
    * optional ``chaos`` (``action_for(cell_key, attempt)``), ``tracer``
      (counter tracks ``sweep.inflight`` and, leased,
      ``fabric.lease.heartbeat_age``) and ``registry`` (supervision
      counters under ``sweep.supervisor.*``, lease counters under
      ``fabric.lease.*``).

    ``use_cache`` defaults to *True* here (unlike the bare engine): a
    re-run is only idempotent because finished cells are content-addressed
    on disk.  The returned sweep's ``supervision`` attribute carries
    :meth:`SupervisorStats.as_dict`, plus the lease counters under
    ``"leases"`` on a leased run.
    """
    from repro.experiments.sweep import SweepResult

    policy = policy or SupervisorPolicy()
    jobs = resolve_jobs(jobs)
    benchmarks = list(benchmarks)
    schemes = list(schemes)
    disk = result_cache.default_cache()
    key = sweep_key(benchmarks, schemes, machine, references, seed)
    manifest = SweepManifest.open(
        manifest_path(disk.root, key),
        meta={
            "key": key,
            "benchmarks": benchmarks,
            "schemes": [
                s if isinstance(s, str) else s.name for s in schemes
            ],
            "machine": machine.name,
            "references": references,
            "seed": seed,
        },
    )
    cells = grid_cells(benchmarks, schemes, machine, references, seed)
    tasks = [
        _CellTask(
            index=index,
            benchmark=benchmark,
            scheme=spec,
            machine=machine,
            references=references,
            seed=seed,
            use_cache=use_cache,
            series_interval=series_interval,
            cell_key=cell_key,
            leased=leases is not None,
        )
        for index, (benchmark, spec, cell_key) in enumerate(cells)
    ]
    supervisor = _Supervisor(
        policy, manifest, jobs, keep_going, chaos=chaos, tracer=tracer,
        leases=leases,
    )
    supervisor.run(tasks)

    sweep = SweepResult(machine=machine.name, references=references)
    sweep.failures.extend(supervisor.failures)
    for index, (benchmark, spec, _) in enumerate(cells):
        cell = supervisor.results.get(index)
        if cell is None:
            continue
        sweep.results[(benchmark, spec.name)] = cell.metrics
        sweep.snapshots[(benchmark, spec.name)] = cell.snapshot
        if cell.series is not None:
            sweep.series[(benchmark, spec.name)] = cell.series
    sweep.supervision = supervisor.stats.as_dict()
    if leases is not None:
        sweep.supervision["leases"] = leases.stats.as_dict()
    if registry is not None:
        supervisor.stats.publish(registry)
        registry.counter("sweep.cache.corrupt_entries").inc(
            disk.stats.corrupt_entries
        )
        registry.counter("sweep.cache.quarantined_entries").inc(
            disk.stats.quarantined_entries
        )
        if leases is not None:
            leases.stats.publish(registry)
            registry.gauge("fabric.lease.heartbeat_age").set(0.0)
    return sweep
