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
* **Journaled checkpoints.**  Progress is appended (atomically, one JSON
  line per event) to ``.repro-cache/manifest-<sweep_key>.jsonl``.  With
  ``resume=True`` a restarted sweep replays the manifest, serves finished
  cells straight from the result cache, and recomputes only what is
  missing — idempotent because cell identity is the content-addressed
  cache key.

Because a supervised cell runs the *same* :func:`~repro.experiments.
runner.run_cell` as the serial loop, a sweep that survived any amount of
supervision drama produces a :class:`~repro.experiments.sweep.SweepResult`
identical to an undisturbed serial run — the property the chaos soak in
:mod:`repro.faults.orchestration` locks.

Chaos hooks: a ``chaos`` object with an ``action_for(cell_key, attempt)``
method (see :class:`repro.faults.orchestration.SweepChaos`) can sabotage
attempts — the resolved ``(action, seconds)`` pair rides into the worker,
which kills itself, sleeps, or corrupts its own cache entry on command.
The supervisor itself stays chaos-agnostic.
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
    run_cell,
    run_cell_isolated,
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
    "follow_manifest",
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
    here, re-running the cell in-process where no worker can die.
    """

    cell_timeout_seconds: float = 120.0
    max_retries: int = 2
    backoff_base_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_cap_seconds: float = 2.0
    degrade_to_serial: bool = True
    poll_interval_seconds: float = 0.02

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
    cells_resumed: int = 0            # served from cache via the manifest
    retries: int = 0                  # worker attempts beyond the first
    timeouts: int = 0                 # workers terminated at the deadline
    worker_deaths: int = 0            # workers that died without reporting
    worker_errors: int = 0            # workers that reported an exception
    degraded_cells: int = 0           # cells that fell back to in-process
    failures: int = 0                 # cells that produced no result at all
    chaos_events: int = 0             # sabotage actions handed to workers

    def as_dict(self) -> dict[str, int]:
        return {
            "cells_total": self.cells_total,
            "cells_completed": self.cells_completed,
            "cells_resumed": self.cells_resumed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_deaths": self.worker_deaths,
            "worker_errors": self.worker_errors,
            "degraded_cells": self.degraded_cells,
            "failures": self.failures,
            "chaos_events": self.chaos_events,
        }

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

    This is the non-blocking core shared by :func:`follow_manifest` (the
    blocking generator) and the service layer's asyncio event streams,
    which interleave ``drain()`` with their own sleep primitive.
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


def follow_manifest(path, poll_interval: float = 0.2, stop=None):
    """Yield a journal's events as they are appended (a blocking tail).

    Factored out of the manifest replay so every consumer — the service's
    ``GET /v1/jobs/{id}/events`` stream, ``repro watch``, external
    monitors — follows one live JSONL journal the same way: events arrive
    incrementally, torn trailing lines are buffered until complete, and
    unsalvageable lines are skipped exactly as replay skips them.

    ``stop`` is an optional zero-argument callable; once it returns true
    *and* the journal has drained dry, the generator performs one final
    drain (catching events appended between the last drain and the stop
    signal — e.g. the terminal ``done`` line a writer appends just before
    flipping its finished flag) and returns.  Without ``stop`` the
    generator follows forever.
    """
    tail = ManifestTail(path)
    while True:
        records = tail.drain()
        if records:
            yield from records
            continue
        if stop is not None and stop():
            yield from tail.drain()
            return
        time.sleep(poll_interval)


def grid_cells(benchmarks, schemes, machine, references, seed):
    """Enumerate a grid's cells as ``(benchmark, spec, cell_key)`` triples.

    The single source of truth for cell identity and order: the supervisor
    and the distributed fabric both iterate exactly this sequence, so a
    manifest written by one is drainable by the other.
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
    """A manifest-``done`` cell's cached result — verified, or ``None``.

    A ``done`` event is a *claim*, not proof: the entry behind it may have
    been quarantined, deleted, or truncated since it was journaled (a
    stale manifest over a poisoned cache).  Serve the cell only if the
    cache entry still exists *and* passes its digest check (``lookup_cell``
    quarantines and reports a miss otherwise), so a bad entry is
    recomputed instead of silently dropping the cell from the sweep.

    Cached entries carry no :class:`~repro.telemetry.snapshot.
    SnapshotSeries`, so when the caller asked for one (``series_interval``
    > 0) the cell must be recomputed regardless — a resumed series sweep
    would otherwise silently lose the series of every resumed cell.
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

    Several writers (the fabric's workers, possibly on different hosts over
    a shared filesystem) may append to one manifest concurrently: the file
    is opened in append mode, each event is one short write, and replay is
    order-insensitive up to the done/failed precedence rule, so interleaved
    appends replay to the union of every writer's events.  If a writer
    crashes mid-append and another writer's complete line lands glued onto
    the torn fragment, :meth:`_parse_line` salvages the intact suffix, so
    only the torn event itself is lost.
    """

    def __init__(self, path: Path, meta: dict | None = None):
        self.path = Path(path)
        self.done: dict[str, dict] = {}
        self.failed: dict[str, dict] = {}
        self._meta = dict(meta or {})

    @classmethod
    def open(cls, path: Path, meta: dict) -> "SweepManifest":
        """Load an existing manifest or start a fresh one with a header."""
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

    def refresh(self) -> None:
        """Re-read the journal, folding in other writers' appends.

        Fabric workers draining one manifest from several processes (or
        hosts) call this between claims so cells finished elsewhere are
        skipped instead of re-claimed.
        """
        self.done.clear()
        self.failed.clear()
        self._replay()

    def _append(self, record: dict) -> None:
        with self.path.open("a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()

    def record(self, event: str, key: str, cell: str, **extra) -> None:
        # Every line carries its wall clock, its writer's pid, and — when a
        # service job is executing — the job's trace context, so the fleet
        # trace can place the event on the right process lane and tell
        # overlapping jobs sharing one manifest apart.  Replay only reads
        # event/key, so the extra fields cost nothing to older consumers.
        record = {
            "event": event, "key": key, "cell": cell,
            "ts": time.time(), "pid": os.getpid(), **extra,
        }
        trace = current_trace_context()
        if trace is not None:
            record["trace"] = trace.to_dict()
        if event == "done":
            self.failed.pop(key, None)
            self.done[key] = record
        elif event == "failed":
            self.done.pop(key, None)
            self.failed[key] = record
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
    chaos: tuple | None = None        # resolved (action, seconds) or None

    @property
    def scheme_name(self) -> str:
        return self.scheme if isinstance(self.scheme, str) else self.scheme.name

    @property
    def cell(self) -> str:
        return f"{self.benchmark}/{self.scheme_name}"


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
        cell = run_cell(
            task.benchmark,
            task.scheme,
            machine=task.machine,
            references=task.references,
            seed=task.seed,
            use_cache=task.use_cache,
            series_interval=task.series_interval,
        )
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
    ):
        self.policy = policy
        self.manifest = manifest
        self.jobs = max(1, jobs)
        self.keep_going = keep_going
        self.chaos = chaos
        self.tracer = tracer
        self.stats = SupervisorStats()
        self._epoch = time.monotonic()
        self.results: dict[int, CellResult] = {}
        self.failures: list[RunFailure] = []

    # -- telemetry -------------------------------------------------------------

    def _mark_inflight(self, count: int) -> None:
        if self.tracer is not None:
            at = int((time.monotonic() - self._epoch) * 1_000_000)
            self.tracer.counter(
                "sweep.inflight", at=at, track="sweep", inflight=count
            )

    # -- lifecycle -------------------------------------------------------------

    def _spawn(self, task: _CellTask, attempt: int) -> _RunningCell:
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
        )
        return _RunningCell(
            task=task,
            process=process,
            conn=parent_conn,
            deadline=time.monotonic() + self.policy.cell_timeout_seconds,
            attempt=attempt,
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

    def _degrade(self, task: _CellTask) -> None:
        """Retries exhausted: run the cell in-process, where nothing dies."""
        self.stats.degraded_cells += 1
        _LOG.warning(
            "cell degraded to in-process execution after retries",
            cell=task.cell, key=task.cell_key,
            attempts=self.policy.max_retries + 1,
        )
        self.manifest.record("degrade", task.cell_key, task.cell)
        if self.keep_going:
            outcome = run_cell_isolated(
                task.benchmark, task.scheme, task.machine, task.references,
                task.seed, retries=0, use_cache=task.use_cache,
                series_interval=task.series_interval,
            )
            if isinstance(outcome, RunFailure):
                self._record_failure(task, outcome)
            else:
                self._record_success(task, outcome, source="degraded")
            return
        try:
            cell = run_cell(
                task.benchmark, task.scheme, machine=task.machine,
                references=task.references, seed=task.seed,
                use_cache=task.use_cache,
                series_interval=task.series_interval,
            )
        except Exception as err:
            self.manifest.record(
                "failed", task.cell_key, task.cell,
                error=f"{type(err).__name__}: {err}",
            )
            raise
        self._record_success(task, cell, source="degraded")

    def _record_success(
        self, task: _CellTask, cell: CellResult, source: str
    ) -> None:
        self.results[task.index] = cell
        self.stats.cells_completed += 1
        self.manifest.record("done", task.cell_key, task.cell, source=source)

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

    def _handle_exhausted(self, task: _CellTask, reason: str) -> None:
        """All worker attempts burned; degrade or record the failure."""
        if self.policy.degrade_to_serial:
            self._degrade(task)
            return
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

    # -- main loop -------------------------------------------------------------

    def run(self, tasks: list[_CellTask]) -> None:
        self.stats.cells_total += len(tasks)
        # (task, attempt, not_before) triples awaiting a worker slot.
        pending: list[tuple[_CellTask, int, float]] = [
            (task, 0, 0.0) for task in tasks
        ]
        running: list[_RunningCell] = []
        try:
            while pending or running:
                now = time.monotonic()
                # Fill free slots with whatever is ready to (re)start.
                deferred: list[tuple[_CellTask, int, float]] = []
                while pending and len(running) < self.jobs:
                    task, attempt, not_before = pending.pop(0)
                    if now < not_before:
                        deferred.append((task, attempt, not_before))
                        continue
                    running.append(self._spawn(task, attempt))
                    self._mark_inflight(len(running))
                pending[:0] = deferred

                progressed = False
                for cell in list(running):
                    verdict = self._poll(cell)
                    if verdict is None:
                        continue
                    progressed = True
                    running.remove(cell)
                    self._mark_inflight(len(running))
                    kind, detail = verdict
                    if kind == "ok":
                        self._record_success(cell.task, detail, source="worker")
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
                    else:
                        self._handle_exhausted(cell.task, detail)
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
    resume: bool = False,
    tracer=None,
    registry=None,
):
    """Run a grid under supervision; returns a ``SweepResult``.

    Same inputs-to-results contract as :func:`repro.experiments.sweep.
    run_grid` — cell-for-cell identical metrics and snapshots — plus:

    * per-cell worker processes with timeouts, crash retry (exponential
      backoff, capped) and in-process degradation per ``policy``;
    * a journaled manifest under the cache root; with ``resume=True``,
      cells the manifest marks done are served straight from the result
      cache (counted in ``stats.cells_resumed``) and only the remainder
      runs;
    * optional ``chaos`` (``action_for(cell_key, attempt)``), ``tracer``
      (counter track ``sweep.inflight``) and ``registry`` (supervision
      counters under ``sweep.supervisor.*``).

    ``use_cache`` defaults to *True* here (unlike the bare engine):
    checkpoint/resume is only idempotent because finished cells are
    content-addressed on disk.  The returned sweep's ``supervision``
    attribute carries :meth:`SupervisorStats.as_dict`.
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

    tasks: list[_CellTask] = []
    order: list[tuple[str, str]] = []
    resumed: dict[int, CellResult] = {}
    supervisor = _Supervisor(
        policy, manifest, jobs, keep_going, chaos=chaos, tracer=tracer
    )
    for index, (benchmark, spec, cell_key) in enumerate(
        grid_cells(benchmarks, schemes, machine, references, seed)
    ):
        order.append((benchmark, spec.name))
        if resume and cell_key in manifest.done and use_cache:
            cell = verified_done_cell(disk, cell_key, series_interval)
            if cell is not None:
                resumed[index] = cell
                supervisor.stats.cells_resumed += 1
                supervisor.stats.cells_total += 1
                continue
            # Manifest says done but the entry is gone, quarantined, or
            # cannot satisfy the request (series): recompute the cell.
        tasks.append(
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
            )
        )

    supervisor.run(tasks)

    sweep = SweepResult(machine=machine.name, references=references)
    sweep.failures.extend(supervisor.failures)
    merged = {**resumed, **supervisor.results}
    for cell_index, (benchmark, scheme_name) in enumerate(order):
        cell = merged.get(cell_index)
        if cell is None:
            continue
        sweep.results[(benchmark, scheme_name)] = cell.metrics
        sweep.snapshots[(benchmark, scheme_name)] = cell.snapshot
        if cell.series is not None:
            sweep.series[(benchmark, scheme_name)] = cell.series
    sweep.supervision = supervisor.stats.as_dict()
    if registry is not None:
        supervisor.stats.publish(registry)
        registry.counter("sweep.cache.corrupt_entries").inc(
            disk.stats.corrupt_entries
        )
        registry.counter("sweep.cache.quarantined_entries").inc(
            disk.stats.quarantined_entries
        )
    return sweep
