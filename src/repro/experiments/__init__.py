"""Experiment harness: machine configs, scheme runner, figures, reporting."""

from repro.experiments.cache import (
    ResultCache,
    code_fingerprint,
    default_cache,
    reset_default_cache,
)
from repro.experiments.config import (
    MachineConfig,
    PredictionConfig,
    TABLE1_1M,
    TABLE1_256K,
    table1_rows,
)
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.parallel import (
    default_jobs,
    parallel_map,
    run_benchmark_cells_parallel,
    run_grid_cells,
    run_seeds,
)
from repro.experiments.paper_data import PAPER_AVERAGES, PAPER_CLAIMS, check_claims
from repro.experiments.report import (
    FigureResult,
    compare_to_paper,
    geometric_mean,
    render_bars,
    render_figure,
    series_average,
)
from repro.experiments.stats import (
    METRICS,
    SeedSummary,
    metric_across_seeds,
    summarize,
)
from repro.experiments.sweep import SweepResult, run_grid
from repro.experiments.runner import (
    CellResult,
    SCHEMES,
    SchemeSpec,
    apply_preseed,
    collect_cell_snapshot,
    default_references,
    get_miss_trace,
    make_controller,
    run_benchmark,
    run_benchmark_cells,
    run_cell,
    run_scheme,
)

__all__ = [
    "ResultCache",
    "code_fingerprint",
    "default_cache",
    "reset_default_cache",
    "default_jobs",
    "parallel_map",
    "run_benchmark_cells_parallel",
    "run_grid_cells",
    "run_seeds",
    "MachineConfig",
    "PredictionConfig",
    "TABLE1_1M",
    "TABLE1_256K",
    "table1_rows",
    "ALL_FIGURES",
    "PAPER_AVERAGES",
    "PAPER_CLAIMS",
    "check_claims",
    "FigureResult",
    "compare_to_paper",
    "geometric_mean",
    "render_bars",
    "render_figure",
    "series_average",
    "METRICS",
    "SeedSummary",
    "metric_across_seeds",
    "summarize",
    "SweepResult",
    "run_grid",
    "CellResult",
    "SCHEMES",
    "SchemeSpec",
    "apply_preseed",
    "collect_cell_snapshot",
    "default_references",
    "get_miss_trace",
    "make_controller",
    "run_benchmark",
    "run_benchmark_cells",
    "run_cell",
    "run_scheme",
]
