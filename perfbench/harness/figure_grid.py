"""figure_grid: the claims figures, cold, through the public figure functions.

Figures 7, 8, 10, 12, 13 and 14, in that order, with the result cache on
as ``repro figure`` runs them, against an empty private cache.  Six to
eight schemes share each of the 28 traces (14 models x 2 machines), so
per-scheme preseed and replay weigh far more here than in ``cold_cells``;
the later figures read 98 of their 266 cells back from the cache.

At 20 000 references the L2 size still acts: on seed 1 the 1 MB machine
makes 0.8% fewer predictions than the 256 KB one (Figure 14), its counter
caches hit less (Figure 8 against 7: 0.201 against 0.213 at 128 KB) and
its average prediction rate reads 0.786 against 0.787.  At 10 000 the
rates are equal (0.791) and the prediction counts differ by 0.1%.
"""

from __future__ import annotations

from dataclasses import dataclass

from harness.common import (
    Measurement, RunContext, peak_rss_mb, rounds_for,
)
from harness.tracing import CELL_LAYERS

LAYERS = CELL_LAYERS
NOMINAL_ROUND_S = 35.0

FIGURES = ("figure7", "figure8", "figure10", "figure12", "figure13", "figure14")

#: The averages the paper's text states (fractions), by figure and series.
PAPER_AVERAGES = {
    "Figure 7": {"Pred": 0.82},
    "Figure 8": {"Pred": 0.80, "128K_cache": 0.57},
    "Figure 12": {"Regular": 0.82, "Two_Level": 0.96, "Context": 0.99},
    "Figure 13": {"Regular": 0.80, "Two_Level": 0.95, "Context": 0.99},
}
TOLERANCE = 0.10
BENCHMARKS = 14
RATE_FIGURES = ("Figure 7", "Figure 8", "Figure 12", "Figure 13")


@dataclass(frozen=True)
class Size:
    references: int


FULL = Size(references=20_000)
SMOKE = Size(references=1_500)


def _avg(series: dict[str, float]) -> float:
    return sum(series.values()) / len(series)


def check_claims(figures: dict) -> list[str]:
    """The paper's five qualitative claims (sections 6.1, 6.2, 6.2, 8, 8)."""
    fig7 = figures["Figure 7"].series
    fig10 = figures["Figure 10"].series
    fig12 = figures["Figure 12"].series
    fig14 = figures["Figure 14"].series
    problems = []
    pred = _avg(fig7["Pred"])
    if not (pred > _avg(fig7["128K_cache"]) and pred > _avg(fig7["512K_cache"])):
        problems.append("6.1: prediction does not beat the 128K and 512K caches (Fig 7)")
    losers = [b for b in fig10["Pred"] if fig10["Pred"][b] <= fig10["Seq_Cache_128K"][b]]
    if losers:
        problems.append(f"6.2: prediction does not beat the 128K cache on {losers} (Fig 10)")
    if _avg(fig10["Pred"]) <= _avg(fig10["Seq_Cache_512K"]):
        problems.append("6.2: prediction's average IPC does not beat the 512K cache (Fig 10)")
    wins = sum(fig12["Context"][b] >= fig12["Two_Level"][b] for b in fig12["Context"])
    if wins <= len(fig12["Context"]) / 2:
        problems.append(f"8: context beats two-level on only {wins} benchmarks (Fig 12)")
    if _avg(fig14["L2_1M"]) >= _avg(fig14["L2_256K"]):
        problems.append("8: the 1MB L2 does not make fewer predictions (Fig 14)")
    return problems


def check_averages(figures: dict) -> list[str]:
    """Series other than the counter caches lie within 10 points of the paper."""
    problems = []
    for figure_id, expected in PAPER_AVERAGES.items():
        for series, paper in expected.items():
            if "cache" in series.lower():
                continue
            measured = _avg(figures[figure_id].series[series])
            if abs(measured - paper) >= TOLERANCE:
                problems.append(
                    f"{figure_id} {series}: average {measured:.3f}, paper {paper:.2f}"
                )
    return problems


def check_bounds(figures: dict) -> list[str]:
    """Every model present, rates and normalized IPC in [0, 1], LRU inclusion."""
    problems = []
    for figure_id in RATE_FIGURES + ("Figure 10",):
        for series, values in figures[figure_id].series.items():
            if len(values) != BENCHMARKS:
                problems.append(f"{figure_id} {series}: {len(values)} benchmarks")
            bad = {b: v for b, v in values.items() if not 0.0 <= v <= 1.0}
            if bad:
                problems.append(f"{figure_id} {series}: out of range {bad}")
    for figure_id in ("Figure 7", "Figure 8"):
        series = figures[figure_id].series
        shrunk = [
            b for b in series["128K_cache"]
            if series["512K_cache"][b] < series["128K_cache"][b]
        ]
        if shrunk:
            problems.append(
                f"{figure_id}: the 512K cache hits less than the 128K one on {shrunk}"
            )
    return problems


def run(ctx: RunContext, size: Size = FULL) -> Measurement:
    from repro.experiments import figures as figure_functions

    measurement = Measurement()
    results = []
    clock = ctx.clock
    measurement.setup_s = clock.setup()
    for index in range(rounds_for(ctx.seconds, NOMINAL_ROUND_S)):
        # A later round draws other workloads, so its grid is cold too.
        seed = ctx.seed + 1_000_003 * index
        figures = {}
        clock.lap()  # the round starts here
        round_s = 0.0
        for name in FIGURES:
            with clock.operation():
                result = getattr(figure_functions, name)(
                    references=size.references, seed=seed, use_cache=True
                )
            round_s += clock.lap()
            figures[result.figure_id] = result
        measurement.round_s.append(round_s)
        results.append(figures)
    measurement.op_s = clock.op_s
    measurement.attempted = len(measurement.op_s)

    measurement.peak_rss_mb = peak_rss_mb()
    ctx.end_timed_phase()
    for figures in results:
        measurement.expect(check_claims(figures))
        measurement.expect(check_averages(figures))
        measurement.expect(check_bounds(figures))
    return measurement
