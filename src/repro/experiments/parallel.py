"""Deterministic parallel execution engine for experiment grids.

Every cell of a (benchmark x scheme) grid is an independent, seeded, pure
computation, so a sweep parallelizes trivially — the only things worth
being careful about are the ones this module is careful about:

* **Determinism.**  Work is partitioned in input order and results are
  collected in submission order (``ProcessPoolExecutor.map``), so a
  parallel sweep returns cell-for-cell identical metrics to the serial
  loop regardless of worker scheduling.
* **Trace sharing.**  Grids are partitioned per *benchmark*, not per cell:
  each worker generates (or loads from the on-disk cache) its benchmark's
  miss trace once and replays every scheme against it, preserving the
  serial engine's trace memoization.
* **Failure isolation.**  With ``keep_going`` the resilient runner captures
  scheme failures *inside* the worker as
  :class:`~repro.experiments.runner.RunFailure` records, so one faulting
  scheme cannot take down the pool; without it the first worker exception
  propagates to the caller exactly like the serial fail-fast path.

``jobs=1`` (the default everywhere) bypasses the pool entirely and runs the
same code serially in-process.  ``jobs=None`` asks :func:`default_jobs`,
which honors ``$REPRO_JOBS`` before falling back to the CPU count.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.cpu.core import RunMetrics
from repro.experiments.config import MachineConfig, TABLE1_256K
from repro.experiments.runner import (
    CellResult,
    RunFailure,
    run_benchmark_cells,
    run_cell,
    run_cell_isolated,
    run_scheme,
)

__all__ = [
    "JOBS_ENV",
    "default_jobs",
    "resolve_jobs",
    "warm_pool",
    "shutdown_pool",
    "parallel_map",
    "run_grid_cells",
    "run_benchmark_cells_parallel",
    "run_seeds",
]

JOBS_ENV = "REPRO_JOBS"


def default_jobs() -> int:
    """Worker count when the caller asks for ``jobs=None``."""
    env = os.environ.get(JOBS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``jobs`` argument to a concrete worker count (>= 1)."""
    if jobs is None:
        return default_jobs()
    return max(1, jobs)


# -- shared worker pool --------------------------------------------------------
#
# Forking (or spawning) a process pool costs tens to hundreds of
# milliseconds — comparable to simulating an entire grid cell through the
# batched replay core.  A sweep that opens a fresh pool per batch therefore
# pays the startup tax over and over and can end up *slower* than the
# serial loop.  The pool below is created once, reused by every
# ``parallel_map`` call that fits inside it, and torn down at process exit
# (or explicitly via :func:`shutdown_pool`).

_POOL: ProcessPoolExecutor | None = None
_POOL_JOBS = 0


def warm_pool(jobs: int | None = None) -> ProcessPoolExecutor:
    """Start (or grow) the shared worker pool before it is first needed.

    Returns the live pool.  Growing an existing pool replaces it; callers
    holding a reference from an earlier call should re-fetch.
    """
    global _POOL, _POOL_JOBS
    jobs = resolve_jobs(jobs)
    if _POOL is None or _POOL_JOBS < jobs:
        if _POOL is not None:
            _POOL.shutdown(wait=True)
        _POOL = ProcessPoolExecutor(max_workers=jobs)
        _POOL_JOBS = jobs
    return _POOL


def shutdown_pool() -> None:
    """Tear down the shared pool (no-op when none is running)."""
    global _POOL, _POOL_JOBS
    if _POOL is not None:
        _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_JOBS = 0


atexit.register(shutdown_pool)


def parallel_map(fn, items, jobs: int | None = 1) -> list:
    """Order-preserving map over ``items`` with up to ``jobs`` processes.

    ``fn`` must be a module-level (picklable) callable.  With one job — or
    one item — this is a plain list comprehension, so serial and parallel
    callers share a single code path.  Worker exceptions propagate to the
    caller in input order.

    Multi-job calls run on the shared pool (warming it on first use), and
    items are chunked several-per-worker-round so small cells do not pay
    one IPC round-trip each.
    """
    items = list(items)
    jobs = min(resolve_jobs(jobs), len(items))
    if jobs <= 1:
        return [fn(item) for item in items]
    pool = warm_pool(jobs)
    chunksize = max(1, len(items) // (jobs * 4))
    return list(pool.map(fn, items, chunksize=chunksize))


# -- grid partitioning ---------------------------------------------------------


@dataclass(frozen=True)
class _BenchmarkTask:
    """One worker unit: every requested scheme of one benchmark."""

    benchmark: str
    schemes: tuple
    machine: MachineConfig
    references: int | None
    seed: int
    keep_going: bool
    retries: int
    use_cache: bool
    series_interval: int = 0


def _run_benchmark_task(task: _BenchmarkTask):
    """Worker body: run one benchmark's schemes over its shared trace."""
    cells, failures = run_benchmark_cells(
        task.benchmark,
        list(task.schemes),
        machine=task.machine,
        references=task.references,
        seed=task.seed,
        keep_going=task.keep_going,
        retries=task.retries,
        use_cache=task.use_cache,
        series_interval=task.series_interval,
    )
    return task.benchmark, cells, failures


def run_grid_cells(
    benchmarks,
    schemes,
    machine: MachineConfig = TABLE1_256K,
    references: int | None = None,
    seed: int = 1,
    keep_going: bool = False,
    retries: int = 1,
    jobs: int | None = 1,
    use_cache: bool = False,
    series_interval: int = 0,
):
    """Run a whole grid, one benchmark per worker unit.

    Returns ``[(benchmark, {scheme: CellResult}, [failures])]`` in
    benchmark input order — metrics plus telemetry snapshot per cell, the
    exact material :func:`repro.experiments.sweep.run_grid` assembles into
    a :class:`~repro.experiments.sweep.SweepResult`.  Snapshots (and, with
    a ``series_interval``, snapshot series) ride back through the worker
    pickle boundary just like metrics, so a parallel grid merges to the
    same totals as the serial loop.
    """
    tasks = [
        _BenchmarkTask(
            benchmark=benchmark,
            schemes=tuple(schemes),
            machine=machine,
            references=references,
            seed=seed,
            keep_going=keep_going,
            retries=retries,
            use_cache=use_cache,
            series_interval=series_interval,
        )
        for benchmark in benchmarks
    ]
    return parallel_map(_run_benchmark_task, tasks, jobs=jobs)


# -- per-scheme partitioning (single-benchmark runs) ---------------------------


@dataclass(frozen=True)
class _SchemeTask:
    """One worker unit: a single (benchmark, scheme) cell."""

    benchmark: str
    scheme: object  # str or SchemeSpec
    machine: MachineConfig
    references: int | None
    seed: int
    keep_going: bool
    retries: int
    use_cache: bool
    series_interval: int = 0


def _run_scheme_task(task: _SchemeTask):
    if task.keep_going:
        return run_cell_isolated(
            task.benchmark,
            task.scheme,
            machine=task.machine,
            references=task.references,
            seed=task.seed,
            retries=task.retries,
            use_cache=task.use_cache,
            series_interval=task.series_interval,
        )
    return run_cell(
        task.benchmark,
        task.scheme,
        machine=task.machine,
        references=task.references,
        seed=task.seed,
        use_cache=task.use_cache,
        series_interval=task.series_interval,
    )


def run_benchmark_cells_parallel(
    benchmark: str,
    schemes,
    machine: MachineConfig = TABLE1_256K,
    references: int | None = None,
    seed: int = 1,
    keep_going: bool = False,
    retries: int = 1,
    jobs: int | None = 1,
    use_cache: bool = False,
    series_interval: int = 0,
) -> tuple[dict[str, CellResult], list[RunFailure]]:
    """One benchmark, schemes fanned out across workers, snapshots included.

    Mirrors :func:`~repro.experiments.runner.run_benchmark_cells` semantics
    (including ``keep_going`` failure capture), with scheme-level
    parallelism for the CLI's single-benchmark ``run`` command.
    """
    tasks = [
        _SchemeTask(
            benchmark=benchmark,
            scheme=scheme,
            machine=machine,
            references=references,
            seed=seed,
            keep_going=keep_going,
            retries=retries,
            use_cache=use_cache,
            series_interval=series_interval,
        )
        for scheme in schemes
    ]
    outcomes = parallel_map(_run_scheme_task, tasks, jobs=jobs)
    cells: dict[str, CellResult] = {}
    failures: list[RunFailure] = []
    for scheme, outcome in zip(schemes, outcomes):
        if isinstance(outcome, RunFailure):
            failures.append(outcome)
        else:
            name = scheme if isinstance(scheme, str) else scheme.name
            cells[name] = outcome
    return cells, failures


# -- per-seed partitioning (multi-seed statistics) -----------------------------


@dataclass(frozen=True)
class _SeedTask:
    benchmark: str
    scheme: object
    machine: MachineConfig
    references: int | None
    seed: int
    use_cache: bool


def _run_seed_task(task: _SeedTask) -> RunMetrics:
    return run_scheme(
        task.benchmark,
        task.scheme,
        machine=task.machine,
        references=task.references,
        seed=task.seed,
        use_cache=task.use_cache,
    )


def run_seeds(
    benchmark: str,
    scheme,
    seeds,
    machine: MachineConfig = TABLE1_256K,
    references: int | None = None,
    jobs: int | None = 1,
    use_cache: bool = False,
) -> list[RunMetrics]:
    """One (benchmark, scheme) point replicated across seeds, in order."""
    tasks = [
        _SeedTask(
            benchmark=benchmark,
            scheme=scheme,
            machine=machine,
            references=references,
            seed=seed,
            use_cache=use_cache,
        )
        for seed in seeds
    ]
    return parallel_map(_run_seed_task, tasks, jobs=jobs)
