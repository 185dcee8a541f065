"""Every workload at a smoke size, through the same code with every check on."""

from __future__ import annotations

from harness import cold_cells, figure_grid, sealed_memory, service_jobs
from harness.tracing import CELL_LAYERS, Tracer, layer_metrics


def test_cold_cells_smoke(ctx):
    measurement = cold_cells.run(ctx, cold_cells.SMOKE)
    assert measurement.problems == []
    assert measurement.attempted == cold_cells.SMOKE.cells
    assert measurement.failed == 0
    assert len(measurement.op_s) == cold_cells.SMOKE.cells
    assert measurement.peak_rss_mb > 0


def test_cold_cells_traced_smoke(ctx):
    ctx.seed += 1  # traces stay memoised in-process; another seed keeps cells cold
    ctx.tracer = Tracer()
    ctx.tracer.install(CELL_LAYERS)
    measurement = cold_cells.run(ctx, cold_cells.SMOKE)
    assert measurement.problems == []
    metrics = layer_metrics(ctx.tracer.spans)
    cells = cold_cells.SMOKE.cells
    assert metrics["secure.preseeds_per_trace"][0] == 1.0
    assert metrics["workloads.refs_per_s"][0] > 0
    assert metrics["cpu.fetches_per_s"][0] > 0
    assert metrics["experiments.cache_hit_ratio"][0] == 0.0
    ops = {s["op"] for s in ctx.tracer.spans if s["name"] == "experiments.run_cell"}
    assert len(ops) == cells


def test_figure_grid_smoke(ctx):
    # At 1 500 references the two section-8 claims do not hold yet (the
    # L2 has not filled); every other check must pass at any length.
    measurement = figure_grid.run(ctx, figure_grid.SMOKE)
    assert measurement.attempted == len(figure_grid.FIGURES)
    assert all(problem.startswith("8: ") for problem in measurement.problems)
    assert measurement.peak_rss_mb > 0


def test_service_jobs_smoke(ctx):
    measurement = service_jobs.run(ctx, service_jobs.SMOKE)
    assert measurement.problems == []
    jobs = measurement.notes["jobs"]
    per_round = len(service_jobs.TENANTS) * (1 + service_jobs.WARM_PER_FRESH)
    assert measurement.attempted == len(jobs) == per_round
    assert sum(job["kind"] == "fresh" for job in jobs) == len(service_jobs.TENANTS)
    assert measurement.peak_rss_mb > 0


def test_sealed_memory_smoke(ctx):
    measurement = sealed_memory.run(ctx, sealed_memory.SMOKE)
    assert measurement.problems == []
    size = sealed_memory.SMOKE
    assert measurement.attempted == size.stores + size.loads + sealed_memory.PROBES
    assert len(measurement.op_s) == size.stores + size.loads
    # Probe (c) is the only operation that may fail, at most once a round.
    assert measurement.failed in (0, 1)
    assert measurement.peak_rss_mb > 0
