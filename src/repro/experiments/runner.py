"""Experiment runner: (benchmark x scheme x machine) -> metrics.

The heavy step — simulating a workload through the cache hierarchy — is
scheme-independent (OTP prediction adds no memory traffic), so miss traces
are collected once per (benchmark, machine, length, seed) and memoized;
every security scheme then replays the same stream through a fresh
controller.  This is the exact-decomposition argument of
:mod:`repro.cpu.system` and is what makes the paper's multi-scheme sweeps
tractable in Python.  The workload itself does not depend on the machine,
so both machines' traces are filtered from one generated workload and
share its preseed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.cpu.core import RunMetrics
from repro.cpu.system import MissTrace, collect_miss_trace, replay_miss_trace
from repro.crypto.engine import CryptoEngine
from repro.crypto.rng import HardwareRng
from repro.experiments import cache as result_cache
from repro.experiments.config import MachineConfig, TABLE1_256K
from repro.memory.dram import Dram
from repro.secure.controller import SecureMemoryController
from repro.secure.direct import DirectEncryptionController
from repro.secure.predecrypt import PredecryptingController
from repro.secure.predictors import (
    ContextOtpPredictor,
    NullPredictor,
    OtpPredictor,
    RangePredictionTable,
    RegularOtpPredictor,
    TwoLevelOtpPredictor,
)
from repro.secure.seqcache import SequenceNumberCache
from repro.secure.seqnum import PageSecurityTable
from repro.telemetry.profile import profile_scope
from repro.telemetry.registry import MetricRegistry
from repro.telemetry.snapshot import MetricsSnapshot, SnapshotSeries
from repro.workloads.spec import Workload, build_workload

__all__ = [
    "SchemeSpec",
    "SCHEMES",
    "CellResult",
    "RunFailure",
    "default_references",
    "get_miss_trace",
    "make_controller",
    "apply_preseed",
    "collect_cell_snapshot",
    "run_cell",
    "run_cell_isolated",
    "run_scheme",
    "run_benchmark",
    "run_benchmark_cells",
]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SchemeSpec:
    """One point in the paper's scheme space."""

    name: str
    predictor: str | None = None      # None | regular | two_level | context
    seqcache_kb: int | None = None
    oracle: bool = False
    adaptive: bool = True
    root_history: bool = False
    predecrypt: bool = False          # Section 9.2 comparison / hybrid
    direct: bool = False              # pre-CTR direct-encryption baseline


SCHEMES: dict[str, SchemeSpec] = {
    spec.name: spec
    for spec in (
        SchemeSpec("oracle", oracle=True),
        SchemeSpec("baseline"),
        SchemeSpec("seqcache_4k", seqcache_kb=4),
        SchemeSpec("seqcache_32k", seqcache_kb=32),
        SchemeSpec("seqcache_128k", seqcache_kb=128),
        SchemeSpec("seqcache_512k", seqcache_kb=512),
        SchemeSpec("pred_regular", predictor="regular"),
        SchemeSpec("pred_regular_static", predictor="regular", adaptive=False),
        SchemeSpec("pred_regular_history", predictor="regular", root_history=True),
        SchemeSpec("pred_two_level", predictor="two_level"),
        SchemeSpec("pred_context", predictor="context"),
        SchemeSpec("pred_plus_cache_32k", predictor="regular", seqcache_kb=32),
        SchemeSpec("predecrypt", predecrypt=True),
        SchemeSpec("hybrid_predecrypt", predictor="regular", predecrypt=True),
        SchemeSpec("direct_encryption", direct=True),
    )
}


def default_references() -> int:
    """Trace length for figure runs (override with ``REPRO_REFS``)."""
    return int(os.environ.get("REPRO_REFS", "60000"))


# -- miss-trace memoization ----------------------------------------------------


class _TraceMemo(dict):
    """(benchmark, machine, references, seed) -> (miss trace, preseed).

    ``workloads`` holds the compact workload each trace was filtered
    from, one per (benchmark, references, seed), so a second machine's
    trace skips synthesis and shares the first one's preseed object.
    Clearing the memo clears both.
    """

    def __init__(self):
        super().__init__()
        self.workloads: dict[tuple, Workload] = {}

    def clear(self) -> None:
        super().clear()
        self.workloads.clear()


_MISS_TRACE_CACHE = _TraceMemo()


def get_miss_trace(
    benchmark: str,
    machine: MachineConfig = TABLE1_256K,
    references: int | None = None,
    seed: int = 1,
    use_cache: bool = False,
) -> tuple[MissTrace, dict[int, int]]:
    """Miss trace + fast-forward preseed for one (benchmark, machine).

    Memoized in-process always (all schemes of a grid share one generated
    trace); with ``use_cache`` the trace is additionally persisted through
    :mod:`repro.experiments.cache`, so later processes — parallel sweep
    workers, or a grid extended with new schemes — skip the hierarchy
    simulation entirely.
    """
    references = references or default_references()
    key = (benchmark, machine.name, references, seed)
    cached = _MISS_TRACE_CACHE.get(key)
    if cached is not None:
        return cached
    disk = result_cache.default_cache() if use_cache else None
    disk_key = (
        result_cache.trace_key(benchmark, machine, references, seed)
        if disk is not None
        else None
    )
    if disk is not None:
        pair = disk.lookup_trace(disk_key)
        if pair is not None:
            _MISS_TRACE_CACHE[key] = pair
            return pair
    workload_key = (benchmark, references, seed)
    workload = _MISS_TRACE_CACHE.workloads.get(workload_key)
    if workload is None:
        workload = build_workload(benchmark, references=references, seed=seed)
        _MISS_TRACE_CACHE.workloads[workload_key] = workload
    with profile_scope("sim.hierarchy_step"):
        miss_trace = collect_miss_trace(
            workload.trace,
            hierarchy_config=machine.hierarchy,
            flush_interval_instructions=machine.flush_interval_instructions,
        )
    _MISS_TRACE_CACHE[key] = (miss_trace, workload.preseed)
    if disk is not None:
        disk.store_trace(disk_key, miss_trace, workload.preseed)
    return miss_trace, workload.preseed


# -- controller construction -----------------------------------------------------


def _make_predictor(
    spec: SchemeSpec, machine: MachineConfig, table: PageSecurityTable
) -> OtpPredictor:
    prediction = machine.prediction
    if spec.predictor is None:
        return NullPredictor(table)
    if spec.predictor == "regular":
        return RegularOtpPredictor(
            table,
            depth=prediction.depth,
            adaptive=spec.adaptive,
            use_root_history=spec.root_history,
        )
    if spec.predictor == "two_level":
        return TwoLevelOtpPredictor(
            table,
            depth=prediction.depth,
            adaptive=spec.adaptive,
            use_root_history=spec.root_history,
            range_table=RangePredictionTable(
                entries=prediction.range_entries,
                range_bits=prediction.range_bits,
            ),
        )
    if spec.predictor == "context":
        return ContextOtpPredictor(
            table,
            depth=prediction.depth,
            swing=prediction.swing,
            adaptive=spec.adaptive,
            use_root_history=spec.root_history,
        )
    raise ValueError(f"unknown predictor kind {spec.predictor!r}")


def make_controller(
    spec: SchemeSpec, machine: MachineConfig = TABLE1_256K, seed: int = 1
) -> SecureMemoryController:
    """Fresh controller implementing one scheme on one machine."""
    history_depth = machine.prediction.root_history_depth
    if spec.root_history and not history_depth:
        history_depth = 1
    table = PageSecurityTable(
        rng=HardwareRng(seed),
        phv_bits=machine.prediction.phv_bits,
        phv_threshold=machine.prediction.phv_threshold,
        history_depth=history_depth,
    )
    seqcache = (
        SequenceNumberCache(spec.seqcache_kb * 1024) if spec.seqcache_kb else None
    )
    if spec.direct and spec.predecrypt:
        raise ValueError("direct encryption cannot be combined with predecryption")
    if spec.direct:
        controller_class = DirectEncryptionController
    elif spec.predecrypt:
        controller_class = PredecryptingController
    else:
        controller_class = SecureMemoryController
    return controller_class(
        engine=CryptoEngine(machine.engine),
        dram=Dram(machine.dram),
        page_table=table,
        predictor=_make_predictor(spec, machine, table),
        seqcache=seqcache,
        oracle=spec.oracle,
    )


def apply_preseed(
    controller: SecureMemoryController, preseed: dict[int, int]
) -> None:
    """Install fast-forward counter state (line distances) into RAM.

    Each line's counter is its page's mapping root plus its distance.
    One pass over the preseed maps pages in the order it first touches
    them, so the page table's RNG draws every root in the same order a
    per-line loop would; a counter is computed once per run of lines
    sharing a (page, distance), and the counters go into the backing
    store in preseed order.
    """
    page_state = controller.page_table.state
    page_shift = controller.address_map.page_shift
    line_mask = ~(controller.address_map.line_bytes - 1)
    roots: dict[int, int] = {}
    seqnums: dict[int, int] = {}
    last_page = last_distance = None
    seqnum = 0
    for line, distance in preseed.items():
        page = line >> page_shift
        if page != last_page or distance != last_distance:
            root = roots.get(page)
            if root is None:
                root = roots[page] = page_state(page).mapping_root
            seqnum = (root + distance) & _MASK64
            last_page, last_distance = page, distance
        seqnums[line & line_mask] = seqnum
    controller.backing.write_seqnums(seqnums)


@dataclass(frozen=True)
class CellResult:
    """Metrics plus telemetry snapshot of one (benchmark, scheme) cell.

    ``series`` is only populated for runs requested with a
    ``series_interval`` — the periodic cumulative snapshots spilled during
    the replay (telemetry retention; its last sample equals ``snapshot``).
    """

    metrics: RunMetrics
    snapshot: MetricsSnapshot
    series: SnapshotSeries | None = None


def collect_cell_snapshot(
    controller, miss_trace, meta: dict | None = None
) -> MetricsSnapshot:
    """Harvest one finished cell's stat islands into a mergeable snapshot.

    Covers the whole pipeline: controller (classes, resilience, latency
    histogram), crypto engine, predictor, DRAM, sequence-number cache and
    pad memo when present, plus the hierarchy-level summary of the miss
    trace.  Harvesting happens once per cell, after the replay, so the
    simulation hot path carries no per-event registry cost.
    """
    registry = MetricRegistry()
    controller.publish_telemetry(registry)
    miss_trace.publish(registry)
    return registry.snapshot(meta=meta)


def run_cell(
    benchmark: str,
    scheme: str | SchemeSpec,
    machine: MachineConfig = TABLE1_256K,
    references: int | None = None,
    seed: int = 1,
    use_cache: bool = False,
    tracer=None,
    series_interval: int = 0,
    backend: str | None = None,
) -> CellResult:
    """Run one (benchmark, scheme, machine) point, returning metrics + snapshot.

    With ``use_cache`` the cell is served from / stored into the on-disk
    result cache (content-keyed, including a source-code fingerprint, so a
    hit is always byte-identical to a fresh run of the same code).  A
    ``tracer`` (:class:`~repro.telemetry.events.EventTracer`) attaches to
    the controller for cycle-stamped span capture; a positive
    ``series_interval`` spills a cumulative :class:`SnapshotSeries` sample
    every that many fetches during the replay.  Traced and series runs
    bypass the cache — a cached cell has no events or mid-run state to
    replay.  ``backend`` picks a replay backend from
    :mod:`repro.cpu.engine` (default: environment / batched); every
    backend yields bit-identical cells.
    """
    spec = SCHEMES[scheme] if isinstance(scheme, str) else scheme
    references = references or default_references()
    disk = (
        result_cache.default_cache()
        if use_cache and tracer is None and not series_interval
        else None
    )
    cache_key = None
    if disk is not None:
        cache_key = result_cache.result_key(
            benchmark, spec, machine, references, seed
        )
        cached = disk.lookup_cell(cache_key)
        if cached is not None:
            metrics, snapshot = cached
            return CellResult(metrics=metrics, snapshot=snapshot)
    miss_trace, preseed = get_miss_trace(
        benchmark, machine, references, seed, use_cache=use_cache
    )
    controller = make_controller(spec, machine, seed)
    if tracer is not None:
        controller.tracer = tracer
    apply_preseed(controller, preseed)
    meta = {
        "benchmark": benchmark,
        "scheme": spec.name,
        "machine": machine.name,
        "references": references,
        "seed": seed,
    }
    series: SnapshotSeries | None = None
    on_fetch = None
    if series_interval:
        if series_interval < 0:
            raise ValueError(
                f"series_interval must be >= 0, got {series_interval}"
            )
        series = SnapshotSeries(interval=series_interval, meta=dict(meta))

        def on_fetch(fetches: int) -> None:
            if fetches % series_interval == 0:
                series.append(
                    collect_cell_snapshot(
                        controller, miss_trace, meta={**meta, "accesses": fetches}
                    )
                )

    with profile_scope("sim.replay"):
        metrics = replay_miss_trace(
            miss_trace,
            controller,
            core=machine.core,
            scheme=spec.name,
            on_fetch=on_fetch,
            backend=backend,
            # The series only acts on interval multiples, so batched
            # backends may call the hook exactly there (identical samples,
            # thousands fewer Python calls).
            hook_interval=series_interval,
        )
    snapshot = collect_cell_snapshot(controller, miss_trace, meta=meta)
    if series is not None:
        # The retention contract: the last sample is the run's final state,
        # so a series stands in for (and is checked against) the plain
        # snapshot.  A mid-run sample taken *at* the last fetch still
        # precedes trailing write-backs, so it is replaced rather than kept.
        total = controller.stats.fetches
        if series.samples and series.accesses()[-1] == total:
            series.samples.pop()
        series.append(
            MetricsSnapshot(
                values=snapshot.values,
                kinds=snapshot.kinds,
                meta={**meta, "accesses": total},
            )
        )
    if disk is not None:
        disk.store_result(cache_key, metrics, snapshot)
    return CellResult(metrics=metrics, snapshot=snapshot, series=series)


def run_scheme(
    benchmark: str,
    scheme: str | SchemeSpec,
    machine: MachineConfig = TABLE1_256K,
    references: int | None = None,
    seed: int = 1,
    use_cache: bool = False,
) -> RunMetrics:
    """Run one (benchmark, scheme, machine) point (metrics only)."""
    return run_cell(benchmark, scheme, machine, references, seed, use_cache).metrics


def run_benchmark_cells(
    benchmark: str,
    schemes: list[str],
    machine: MachineConfig = TABLE1_256K,
    references: int | None = None,
    seed: int = 1,
    keep_going: bool = False,
    retries: int = 1,
    use_cache: bool = False,
    series_interval: int = 0,
) -> tuple[dict[str, "CellResult"], list["RunFailure"]]:
    """Run several schemes on one benchmark's shared miss trace.

    Returns ``(cells, failures)``; ``failures`` can only be non-empty with
    ``keep_going`` (otherwise the first error propagates, the historical
    fail-fast behavior).
    """
    cells: dict[str, CellResult] = {}
    failures: list[RunFailure] = []
    for scheme in schemes:
        name = scheme if isinstance(scheme, str) else scheme.name
        if keep_going:
            outcome = run_cell_isolated(
                benchmark, scheme, machine, references, seed, retries,
                use_cache, series_interval,
            )
            if isinstance(outcome, RunFailure):
                failures.append(outcome)
            else:
                cells[name] = outcome
        else:
            cells[name] = run_cell(
                benchmark, scheme, machine, references, seed, use_cache,
                series_interval=series_interval,
            )
    return cells, failures


def run_benchmark(
    benchmark: str,
    schemes: list[str],
    machine: MachineConfig = TABLE1_256K,
    references: int | None = None,
    seed: int = 1,
    use_cache: bool = False,
) -> dict[str, RunMetrics]:
    """Run several schemes on one benchmark's shared miss trace."""
    cells, _ = run_benchmark_cells(
        benchmark, schemes, machine, references, seed, use_cache=use_cache
    )
    return {scheme: cell.metrics for scheme, cell in cells.items()}


# -- failure isolation ---------------------------------------------------------


@dataclass(frozen=True)
class RunFailure:
    """Record of one (benchmark, scheme) point that could not be run.

    ``cell_key`` is the point's content-addressed cache key — the stable
    identity a resumed or supervised sweep uses to retry exactly this
    cell.  Empty only for failures recorded before the key could be
    computed (e.g. an unknown scheme name).
    """

    benchmark: str
    scheme: str
    error_type: str
    message: str
    attempts: int
    cell_key: str = ""

    def __str__(self) -> str:
        key = f" [{self.cell_key[:12]}]" if self.cell_key else ""
        return (
            f"{self.benchmark}/{self.scheme}: {self.error_type}: "
            f"{self.message} ({self.attempts} attempt(s)){key}"
        )


def run_cell_isolated(
    benchmark: str,
    scheme: str | SchemeSpec,
    machine: MachineConfig = TABLE1_256K,
    references: int | None = None,
    seed: int = 1,
    retries: int = 1,
    use_cache: bool = False,
    series_interval: int = 0,
) -> CellResult | RunFailure:
    """Run one point behind an isolation boundary.

    A failing scheme is retried up to ``retries`` more times (the
    simulator is deterministic, but schemes can run against faulting
    memory models where a retry genuinely differs); if every attempt
    raises, the error is captured as a :class:`RunFailure` instead of
    propagating, so one bad scheme cannot sink a whole sweep.
    """
    name = scheme if isinstance(scheme, str) else scheme.name
    last: Exception | None = None
    attempts = 0
    for _ in range(max(0, retries) + 1):
        attempts += 1
        try:
            return run_cell(
                benchmark, scheme, machine, references, seed, use_cache,
                series_interval=series_interval,
            )
        except KeyboardInterrupt:
            raise
        except Exception as err:
            last = err
    spec = SCHEMES.get(scheme) if isinstance(scheme, str) else scheme
    cell_key = (
        result_cache.result_key(
            benchmark, spec, machine, references or default_references(), seed
        )
        if spec is not None
        else ""
    )
    return RunFailure(
        benchmark=benchmark,
        scheme=name,
        error_type=type(last).__name__,
        message=str(last),
        attempts=attempts,
        cell_key=cell_key,
    )
