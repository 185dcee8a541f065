"""Grid sweeps over (benchmark x scheme) with tabular extraction.

The figure functions in :mod:`repro.experiments.figures` hard-wire the
paper's comparisons; this module is the general tool behind custom studies
(used by the ablation benches and the CLI): run a full grid once, then
slice any metric out of it as a :class:`~repro.experiments.report.FigureResult`
ready for rendering.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from repro.cpu.core import RunMetrics
from repro.experiments.config import MachineConfig, TABLE1_256K
from repro.experiments.parallel import run_grid_cells
from repro.experiments.report import FigureResult
from repro.experiments.runner import RunFailure
from repro.telemetry.snapshot import (
    MetricsSnapshot,
    SnapshotSeries,
    merge_snapshots,
)

__all__ = [
    "SWEEP_RESULT_SCHEMA",
    "SweepResult",
    "run_grid",
    "set_default_supervision",
    "reset_default_supervision",
]

SWEEP_RESULT_SCHEMA = "repro.sweep.result/v1"


@dataclass
class SweepResult:
    """All metrics of a (benchmark x scheme) grid.

    ``failures`` is non-empty only for grids run with ``keep_going=True``:
    each entry names a (benchmark, scheme) point that raised after
    retries — including its content-addressed cache key, so a follow-up
    run can retry exactly those cells — and the corresponding key is
    simply absent from ``results``.  ``supervision`` carries the
    supervisor's counters when the grid ran under
    :func:`repro.experiments.supervisor.run_grid_supervised`, including a
    fabric drain's (:func:`repro.fabric.drain_swarm`) lease counters.
    """

    machine: str
    references: int | None
    results: dict[tuple[str, str], RunMetrics] = field(repr=False, default_factory=dict)
    failures: list[RunFailure] = field(default_factory=list)
    snapshots: dict[tuple[str, str], MetricsSnapshot] = field(
        repr=False, default_factory=dict
    )
    series: dict[tuple[str, str], SnapshotSeries] = field(
        repr=False, default_factory=dict
    )
    supervision: dict | None = None

    @property
    def complete(self) -> bool:
        """True when every requested grid point produced metrics."""
        return not self.failures

    def failed_cells(self) -> list[tuple[str, str, str]]:
        """``(benchmark, scheme, cell_key)`` for every failed grid point."""
        return [
            (failure.benchmark, failure.scheme, failure.cell_key)
            for failure in self.failures
        ]

    def snapshot(self, benchmark: str, scheme: str) -> MetricsSnapshot:
        return self.snapshots[(benchmark, scheme)]

    def cell_series(self, benchmark: str, scheme: str) -> SnapshotSeries:
        """The retention series of one cell (grids run with an interval)."""
        return self.series[(benchmark, scheme)]

    def merged_snapshot(self) -> MetricsSnapshot | None:
        """All cells' telemetry merged into one grid-total snapshot.

        Cells merge in sorted ``(benchmark, scheme)`` order; since each
        per-kind merge rule is commutative and associative, a parallel grid
        produces exactly the snapshot the serial loop would.  ``None`` for
        an empty grid.
        """
        if not self.snapshots:
            return None
        ordered = [self.snapshots[key] for key in sorted(self.snapshots)]
        return merge_snapshots(ordered)

    def benchmarks(self) -> list[str]:
        return list(dict.fromkeys(benchmark for benchmark, _ in self.results))

    def schemes(self) -> list[str]:
        return list(dict.fromkeys(scheme for _, scheme in self.results))

    def metrics(self, benchmark: str, scheme: str) -> RunMetrics:
        return self.results[(benchmark, scheme)]

    # -- (de)serialization -----------------------------------------------------

    def to_dict(self, include_execution: bool = False) -> dict:
        """Versioned JSON-able form of the whole grid.

        Cells are keyed ``"benchmark/scheme"`` in sorted order.  Execution
        metadata (``supervision``) is excluded by default: it describes
        *how* the grid ran, not *what* it computed, and leaving it out
        makes serial, supervised, and fabric runs of the same spec
        serialize byte-identically (the service's result contract).
        """
        payload: dict = {
            "schema": SWEEP_RESULT_SCHEMA,
            "machine": self.machine,
            "references": self.references,
            "results": {
                f"{benchmark}/{scheme}": dataclasses.asdict(self.results[key])
                for key in sorted(self.results)
                for benchmark, scheme in [key]
            },
            "snapshots": {
                f"{benchmark}/{scheme}": self.snapshots[key].to_dict()
                for key in sorted(self.snapshots)
                for benchmark, scheme in [key]
            },
            "series": {
                f"{benchmark}/{scheme}": {
                    "interval": series.interval,
                    "meta": dict(series.meta),
                    "samples": [sample.to_dict() for sample in series.samples],
                }
                for key in sorted(self.series)
                for benchmark, scheme in [key]
                for series in [self.series[key]]
            },
            "failures": [dataclasses.asdict(failure) for failure in self.failures],
        }
        if include_execution:
            payload["supervision"] = self.supervision
        return payload

    def canonical_json(self, include_execution: bool = False) -> str:
        """Deterministic JSON text of :meth:`to_dict` (sorted keys, LF)."""
        return (
            json.dumps(
                self.to_dict(include_execution=include_execution),
                sort_keys=True,
                separators=(",", ": "),
            )
            + "\n"
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepResult":
        if payload.get("schema") != SWEEP_RESULT_SCHEMA:
            raise ValueError(
                f"not a sweep result (schema {payload.get('schema')!r})"
            )
        sweep = cls(machine=payload["machine"], references=payload["references"])
        for cell, metrics in payload.get("results", {}).items():
            benchmark, _, scheme = cell.partition("/")
            sweep.results[(benchmark, scheme)] = RunMetrics(**metrics)
        for cell, snapshot in payload.get("snapshots", {}).items():
            benchmark, _, scheme = cell.partition("/")
            sweep.snapshots[(benchmark, scheme)] = MetricsSnapshot.from_dict(snapshot)
        for cell, series in payload.get("series", {}).items():
            benchmark, _, scheme = cell.partition("/")
            sweep.series[(benchmark, scheme)] = SnapshotSeries(
                interval=series["interval"],
                meta=dict(series.get("meta", {})),
                samples=[
                    MetricsSnapshot.from_dict(sample)
                    for sample in series.get("samples", [])
                ],
            )
        sweep.failures = [
            RunFailure(**failure) for failure in payload.get("failures", [])
        ]
        sweep.supervision = payload.get("supervision")
        return sweep

    def table(
        self, metric, title: str = "", normalize_to: str | None = None
    ) -> FigureResult:
        """Slice one metric into a renderable table.

        ``metric`` is a callable taking :class:`RunMetrics`; with
        ``normalize_to`` set to a scheme name, values are expressed as
        normalized IPC relative to that scheme's run (the paper's usual
        presentation, with ``normalize_to="oracle"``).
        """
        series: dict[str, dict[str, float]] = {}
        for (benchmark, scheme), metrics in self.results.items():
            if normalize_to is not None:
                if scheme == normalize_to:
                    continue
                reference = self.results.get((benchmark, normalize_to))
                if reference is None:
                    # Partial grid: the normalization run failed, so this
                    # benchmark's normalized column cannot be produced.
                    continue
                value = metrics.normalized_ipc(reference)
            else:
                value = metric(metrics)
            series.setdefault(scheme, {})[benchmark] = value
        return FigureResult(
            figure_id="sweep",
            title=title or f"{self.machine} sweep",
            series=series,
        )


# When set (by the CLI's --supervise flag, before it calls figure
# functions whose signatures don't carry engine options), run_grid routes
# through the supervised executor by default.
_DEFAULT_SUPERVISION: dict | None = None


def set_default_supervision(policy=None) -> None:
    """Make every subsequent :func:`run_grid` call supervised by default."""
    global _DEFAULT_SUPERVISION
    _DEFAULT_SUPERVISION = {"policy": policy}


def reset_default_supervision() -> None:
    global _DEFAULT_SUPERVISION
    _DEFAULT_SUPERVISION = None


def run_grid(
    benchmarks: list[str],
    schemes: list[str],
    machine: MachineConfig = TABLE1_256K,
    references: int | None = None,
    seed: int = 1,
    keep_going: bool = False,
    retries: int = 1,
    jobs: int | None = 1,
    use_cache: bool = False,
    series_interval: int = 0,
    supervise: bool | None = None,
    policy=None,
    chaos=None,
) -> SweepResult:
    """Run every (benchmark, scheme) combination, sharing miss traces.

    With ``keep_going`` set, each scheme runs behind an isolation boundary
    (retried ``retries`` times on failure); the sweep completes with
    whatever points succeeded and records the rest in
    :attr:`SweepResult.failures`.  Without it, the first error propagates
    (the historical behavior).

    ``jobs`` fans the grid out one benchmark per worker process (each
    worker still shares its benchmark's miss trace across schemes);
    results are identical to the serial run for the same seed.
    ``use_cache`` serves cells from / stores them into the on-disk
    result cache.  A positive ``series_interval`` additionally captures a
    per-cell :class:`~repro.telemetry.snapshot.SnapshotSeries` (cumulative
    snapshots every that many fetches) into :attr:`SweepResult.series`.

    ``supervise=True`` (or a process-wide default installed with
    :func:`set_default_supervision`) routes the grid through
    :func:`repro.experiments.supervisor.run_grid_supervised` — per-cell
    timeouts, crash retry, checkpoint manifest, cached cells served
    without a worker — with identical results.
    """
    if supervise is None and _DEFAULT_SUPERVISION is not None:
        supervise = True
        policy = policy or _DEFAULT_SUPERVISION["policy"]
    if supervise:
        from repro.experiments.supervisor import run_grid_supervised

        return run_grid_supervised(
            benchmarks,
            schemes,
            machine=machine,
            references=references,
            seed=seed,
            keep_going=keep_going,
            jobs=jobs,
            use_cache=use_cache,
            series_interval=series_interval,
            policy=policy,
            chaos=chaos,
        )
    sweep = SweepResult(machine=machine.name, references=references)
    cells = run_grid_cells(
        benchmarks,
        schemes,
        machine=machine,
        references=references,
        seed=seed,
        keep_going=keep_going,
        retries=retries,
        jobs=jobs,
        use_cache=use_cache,
        series_interval=series_interval,
    )
    for benchmark, per_scheme, failures in cells:
        sweep.failures.extend(failures)
        for scheme, cell in per_scheme.items():
            sweep.results[(benchmark, scheme)] = cell.metrics
            sweep.snapshots[(benchmark, scheme)] = cell.snapshot
            if cell.series is not None:
                sweep.series[(benchmark, scheme)] = cell.series
    return sweep
