"""cold_cells: one cold cell per benchmark model at the figure default length.

Fifteen cells, one per model (the 14 SPEC models plus ``stream``), each
with a different one of the 15 schemes, alternating the 256 KB and 1 MB
machines.  Each cell is one ``run_cell`` call with the result cache on,
as ``repro run`` makes it, against an empty private cache, so every cell
pays workload synthesis and the L1/L2 filter: the front end dominates.
"""

from __future__ import annotations

from dataclasses import dataclass

from harness.common import (
    Measurement, RunContext, peak_rss_mb, rounds_for,
)
from harness.tracing import CELL_LAYERS

LAYERS = CELL_LAYERS
NOMINAL_ROUND_S = 25.0

MODELS = (
    "ammp", "applu", "art", "bzip2", "gcc", "gzip", "mcf", "mgrid",
    "parser", "swim", "twolf", "vortex", "vpr", "wupwise", "stream",
)
SCHEMES = (
    "oracle", "baseline", "seqcache_4k", "seqcache_32k", "seqcache_128k",
    "seqcache_512k", "pred_regular", "pred_regular_static",
    "pred_regular_history", "pred_two_level", "pred_context",
    "pred_plus_cache_32k", "predecrypt", "hybrid_predecrypt",
    "direct_encryption",
)


@dataclass(frozen=True)
class Size:
    references: int
    cells: int


FULL = Size(references=60_000, cells=len(MODELS))
SMOKE = Size(references=2_000, cells=3)


def plan(cells: int) -> list[tuple[str, str, int]]:
    """(model, scheme, machine index) per cell; machine 0 is 256 KB, 1 is 1 MB."""
    return [(MODELS[i], SCHEMES[i], i % 2) for i in range(cells)]


def check_cell(metrics, trace, references: int) -> list[str]:
    """Properties one cell's metrics and miss trace must have."""
    where = metrics.scheme
    problems = []
    outcomes = trace.l1_hits + trace.l2_hits + trace.l2_misses
    if outcomes != references or trace.total_references != references:
        problems.append(
            f"{where}: l1 {trace.l1_hits} + l2 {trace.l2_hits} + misses "
            f"{trace.l2_misses} = {outcomes}, {references} references requested"
        )
    fetches = sum(len(event.fetch_addresses) for event in trace.events)
    writebacks = sum(len(event.writeback_addresses) for event in trace.events)
    if metrics.fetches != fetches:
        problems.append(f"{where}: {metrics.fetches} fetches, trace has {fetches}")
    if metrics.writebacks != writebacks:
        problems.append(
            f"{where}: {metrics.writebacks} write-backs, trace has {writebacks}"
        )
    classes = (
        metrics.class_both + metrics.class_pred_only
        + metrics.class_cache_only + metrics.class_neither
    )
    if classes != metrics.fetches:
        problems.append(f"{where}: fetch classes sum to {classes}, not {metrics.fetches}")
    return problems


def check_against_oracle(metrics, oracle) -> list[str]:
    if metrics.cycles < oracle.cycles:
        return [f"{metrics.scheme}: {metrics.cycles} cycles beat the oracle's {oracle.cycles}"]
    return []


def check_reference_replay(metrics, reference) -> list[str]:
    if metrics != reference:
        return [f"{metrics.scheme}: reference replay differs: {reference} != {metrics}"]
    return []


def run(ctx: RunContext, size: Size = FULL) -> Measurement:
    from repro.experiments import runner
    from repro.experiments.config import TABLE1_1M, TABLE1_256K

    machines = (TABLE1_256K, TABLE1_1M)
    measurement = Measurement()
    done = []
    clock = ctx.clock
    measurement.setup_s = clock.setup()
    for index in range(rounds_for(ctx.seconds, NOMINAL_ROUND_S)):
        # A later round draws other workloads, so its cells are cold too.
        seed = ctx.seed + 1_000_003 * index
        clock.lap()  # the round starts here
        round_s = 0.0
        for model, scheme, machine in plan(size.cells):
            with clock.operation():
                cell = runner.run_cell(
                    model, scheme, machines[machine], references=size.references,
                    seed=seed, use_cache=True,
                )
            round_s += clock.lap()
            done.append((model, machines[machine], seed, cell.metrics))
        measurement.round_s.append(round_s)
    measurement.op_s = clock.op_s
    measurement.attempted = len(done)

    measurement.peak_rss_mb = peak_rss_mb()
    ctx.end_timed_phase()
    for model, machine, seed, metrics in done:
        trace, _ = runner.get_miss_trace(model, machine, size.references, seed)
        measurement.expect(check_cell(metrics, trace, size.references))
        oracle = runner.run_cell(
            model, "oracle", machine, references=size.references, seed=seed
        ).metrics
        measurement.expect(check_against_oracle(metrics, oracle))
    model, machine, seed, metrics = done[ctx.seed % len(done)]
    reference = runner.run_cell(
        model, metrics.scheme, machine, references=size.references, seed=seed,
        backend="reference",
    ).metrics
    measurement.expect(check_reference_replay(metrics, reference))
    return measurement
