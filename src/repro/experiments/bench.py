"""Performance benchmark: measure what the fast paths actually buy.

Four layers, mirroring where this codebase spends its time:

* **crypto** — raw AES-CTR throughput (blocks/sec) of the scalar T-table
  loop vs the numpy-vectorized :meth:`~repro.crypto.aes.AES.encrypt_blocks`
  batch path, on the same inputs.
* **otp** — the functional secure-memory pipeline (real pads, integrity
  tree, speculative candidate batches) run twice over an identical seeded
  fetch/write-back workload: once with vectorization and the pad memo
  disabled, once with both enabled.
* **replay** — the trace-replay hot path itself: every cell of a
  benchmark x scheme grid replayed through both the ``reference`` and the
  ``batched`` backend of :mod:`repro.cpu.engine` on identical fresh
  controllers.  Reports references/sec per backend, the cold per-cell and
  aggregate speedups (trace compilation included on the batched side, once
  per benchmark — exactly how a grid pays it), and a bit-identity verdict
  over the full metrics + telemetry snapshot of every cell.
* **grid** — a smoke experiment grid through the public engine: a cold
  serial pass that populates the on-disk result cache, a warm pass served
  from it, and a cold parallel pass with ``--jobs`` workers (pool warmed
  first, so the measured ratio is steady-state throughput rather than
  worker-fork latency).  The warm metrics are compared field-for-field
  against the cold ones — a cache hit must be indistinguishable from a
  fresh run.

``run_bench`` writes the whole report to ``BENCH_perf.json`` (CI uploads it
as an artifact) and returns it as a dict.  All workloads are seeded; wall
clocks are the only nondeterministic values in the report.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import shutil
import tempfile
import time
from pathlib import Path

from repro.cpu import engine as replay_engine
from repro.cpu.system import replay_miss_trace
from repro.crypto.aes import AES, set_vectorized, vectorized_enabled
from repro.crypto.rng import HardwareRng
from repro.experiments import cache as result_cache
from repro.experiments import runner
from repro.experiments.parallel import warm_pool
from repro.experiments.sweep import SweepResult, run_grid
from repro.ioutil import atomic_write_json
from repro.secure.controller import SecureMemoryController
from repro.secure.predictors import RegularOtpPredictor
from repro.secure.seqnum import PageSecurityTable

__all__ = [
    "BENCH_BENCHMARKS",
    "BENCH_SCHEMES",
    "REPLAY_SCHEMES",
    "available_cpus",
    "crypto_bench",
    "otp_bench",
    "replay_bench",
    "grid_bench",
    "run_bench",
    "render_report",
    "check_regression",
    "temper_baseline",
]

#: Trace-heavy smoke grid: hierarchy simulation dominates these cells, so
#: the trace tier of the cache matters as much as the result tier.
BENCH_BENCHMARKS = ("gzip", "art", "gcc")
BENCH_SCHEMES = ("oracle", "pred_regular", "pred_plus_cache_32k")

#: Replay-layer grid: the paper's scheme ladder (decryption-oracle upper
#: bound, static and adaptive regular prediction, prediction + sequence
#: number cache), i.e. one cell per distinct replay fast path.
REPLAY_SCHEMES = (
    "oracle",
    "pred_regular_static",
    "pred_regular",
    "pred_plus_cache_32k",
)

_MASK64 = (1 << 64) - 1


def available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine; a cgroup- or affinity-limited
    CI runner may be pinned to a subset, and gating ``parallel_speedup >
    1.0`` on the machine count would then demand a speedup the runner
    physically cannot produce.  ``sched_getaffinity`` reports the real
    budget where the platform has it (Linux); elsewhere fall back.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:
            pass
    return os.cpu_count() or 1


def _now() -> float:
    return time.perf_counter()


# -- crypto layer --------------------------------------------------------------


def crypto_bench(blocks: int = 4096, repeats: int = 3) -> dict:
    """Blocks/sec of one AES-128 key over ``blocks``-block batches."""
    cipher = AES(bytes(range(16)))
    rng = HardwareRng(0xAE5)
    data = b"".join(
        rng.next_u64().to_bytes(8, "big") for _ in range(2 * blocks)
    )

    def throughput() -> float:
        best = float("inf")
        for _ in range(repeats):
            start = _now()
            cipher.encrypt_blocks(data)
            best = min(best, _now() - start)
        return blocks / best

    previous = set_vectorized(False)
    try:
        scalar = throughput()
    finally:
        set_vectorized(previous)
    vector = None
    if vectorized_enabled():
        vector = throughput()
    return {
        "blocks": blocks,
        "scalar_blocks_per_sec": round(scalar, 1),
        "vector_blocks_per_sec": round(vector, 1) if vector else None,
        "vector_speedup": round(vector / scalar, 2) if vector else None,
    }


# -- otp pipeline layer --------------------------------------------------------


def _pattern(line: int, version: int, line_bytes: int) -> bytes:
    seed = (line * 0x9E3779B97F4A7C15 + version * 0xBF58476D1CE4E5B9) & _MASK64
    return seed.to_bytes(8, "big") * (line_bytes // 8)


def _functional_workload(operations: int, seed: int, lines_count: int = 32) -> float:
    """Seconds to run one seeded fetch/write-back workload functionally.

    Integrity is off: the MAC tree's SHA-256 work would otherwise dwarf the
    pad path this layer is measuring (the grid layer covers end-to-end).
    """
    table = PageSecurityTable(rng=HardwareRng(seed))
    controller = SecureMemoryController(
        page_table=table,
        predictor=RegularOtpPredictor(table, depth=5),
        key=bytes(range(32)),
        integrity=False,
    )
    line_bytes = controller.address_map.line_bytes
    page_bytes = controller.address_map.page_bytes
    per_page = max(1, lines_count // 4)
    lines = [
        0x20000
        + (index // per_page) * page_bytes
        + (index % per_page) * line_bytes
        for index in range(lines_count)
    ]
    rng = HardwareRng(seed ^ 0xBEAC4)
    start = _now()
    clock = 0
    for version, line in enumerate(lines):
        clock = controller.writeback_line(
            clock, line, _pattern(line, version, line_bytes)
        ).completion_time
    for op in range(operations):
        line = lines[rng.next_below(len(lines))]
        result = controller.fetch_line(clock, line)
        clock = result.data_ready
        if op % 6 == 5:
            target = lines[rng.next_below(len(lines))]
            clock = controller.writeback_line(
                clock, target, _pattern(target, 2 + op, line_bytes)
            ).completion_time
    return _now() - start


def otp_bench(operations: int = 2000, seed: int = 7) -> dict:
    """Functional pipeline ops/sec, baseline vs vectorized + pad memo.

    The baseline turns *off* the numpy batch path and shrinks the pad memo
    to capacity 0 (every pad recomputed), i.e. the pre-optimization
    pipeline; the optimized run is the code's defaults.
    """
    import repro.secure.otp as otp_module

    previous = set_vectorized(False)
    saved_entries = otp_module.DEFAULT_PAD_CACHE_ENTRIES
    otp_module.DEFAULT_PAD_CACHE_ENTRIES = 0
    try:
        baseline_seconds = _functional_workload(operations, seed)
    finally:
        otp_module.DEFAULT_PAD_CACHE_ENTRIES = saved_entries
        set_vectorized(previous)
    optimized_seconds = _functional_workload(operations, seed)
    return {
        "operations": operations,
        "baseline_ops_per_sec": round(operations / baseline_seconds, 1),
        "optimized_ops_per_sec": round(operations / optimized_seconds, 1),
        "speedup": round(baseline_seconds / optimized_seconds, 2),
        "vectorized": vectorized_enabled(),
    }


# -- replay-backend layer ------------------------------------------------------


def replay_bench(
    references: int = 6000,
    seed: int = 1,
    trials: int = 3,
    benchmarks: tuple[str, ...] = BENCH_BENCHMARKS,
    schemes: tuple[str, ...] = REPLAY_SCHEMES,
) -> dict:
    """Reference vs batched replay backend over a benchmark x scheme grid.

    Every cell runs on a fresh controller (counter state fast-forwarded by
    the same preseed) through both backends, interleaved ``trials`` times
    with the best time kept per backend — the interleaving defends the
    ratio against machine-load drift.  Trace compilation is timed cold
    once per benchmark and charged to the batched side of the aggregate,
    matching how a real grid pays it (one compile, all schemes reuse it).

    ``metrics_identical`` is the replay identity contract checked end to
    end: per cell, the full :class:`~repro.cpu.core.RunMetrics` *and* the
    complete telemetry snapshot must match bit-for-bit across backends.
    """
    machine = runner.TABLE1_256K
    cells = []
    identical = True
    ref_total = bat_total = compile_total = 0.0
    for benchmark in benchmarks:
        miss_trace, preseed = runner.get_miss_trace(
            benchmark, machine, references, seed
        )
        probe = runner.make_controller(runner.SCHEMES[schemes[0]], machine, seed)
        replay_engine._COMPILED.clear()
        compile_start = _now()
        replay_engine.compile_trace(
            miss_trace, probe.address_map, probe.dram.config, machine.core
        )
        compile_total += _now() - compile_start
        for scheme in schemes:
            spec = runner.SCHEMES[scheme]
            best = {"reference": float("inf"), "batched": float("inf")}
            outcome = {}
            for _ in range(max(1, trials)):
                for backend in ("reference", "batched"):
                    controller = runner.make_controller(spec, machine, seed)
                    runner.apply_preseed(controller, preseed)
                    start = _now()
                    metrics = replay_miss_trace(
                        miss_trace,
                        controller,
                        core=machine.core,
                        scheme=scheme,
                        backend=backend,
                    )
                    best[backend] = min(best[backend], _now() - start)
                    outcome[backend] = (
                        dataclasses.asdict(metrics),
                        runner.collect_cell_snapshot(controller, miss_trace),
                    )
            cell_identical = outcome["reference"] == outcome["batched"]
            identical = identical and cell_identical
            ref_total += best["reference"]
            bat_total += best["batched"]
            cells.append(
                {
                    "benchmark": benchmark,
                    "scheme": scheme,
                    "reference_seconds": round(best["reference"], 4),
                    "batched_seconds": round(best["batched"], 4),
                    "reference_refs_per_sec": round(
                        references / best["reference"], 1
                    ),
                    "batched_refs_per_sec": round(
                        references / best["batched"], 1
                    ),
                    "speedup": round(best["reference"] / best["batched"], 2),
                    "identical": cell_identical,
                }
            )
    return {
        "references": references,
        "seed": seed,
        "trials": trials,
        "benchmarks": list(benchmarks),
        "schemes": list(schemes),
        "backends": replay_engine.available_backends(),
        "cells": cells,
        "reference_seconds": round(ref_total, 4),
        "batched_seconds": round(bat_total, 4),
        "compile_seconds": round(compile_total, 4),
        "reference_refs_per_sec": round(
            len(cells) * references / ref_total, 1
        ) if ref_total else None,
        "batched_refs_per_sec": round(
            len(cells) * references / (bat_total + compile_total), 1
        ) if bat_total + compile_total else None,
        "speedup": round(ref_total / (bat_total + compile_total), 2)
        if bat_total + compile_total else None,
        "metrics_identical": identical,
    }


# -- experiment grid layer -----------------------------------------------------


def _metrics_dicts(sweep) -> dict:
    import dataclasses

    return {
        f"{benchmark}/{scheme}": dataclasses.asdict(metrics)
        for (benchmark, scheme), metrics in sweep.results.items()
    }


def grid_bench(
    references: int = 6000,
    seed: int = 1,
    jobs: int | None = None,
    benchmarks: tuple[str, ...] = BENCH_BENCHMARKS,
    schemes: tuple[str, ...] = BENCH_SCHEMES,
) -> dict:
    """Cold / warm / parallel timings of the smoke grid, plus equality.

    Runs against a private temporary cache directory so benchmarking never
    touches (or is helped by) the user's ``.repro-cache``.
    """
    jobs = jobs or available_cpus()
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    saved_env = os.environ.get(result_cache.CACHE_DIR_ENV)
    os.environ[result_cache.CACHE_DIR_ENV] = cache_dir
    result_cache.reset_default_cache()
    runner._MISS_TRACE_CACHE.clear()
    try:
        # Cold serial pass, timed per cell, populating the cache.
        cells = []
        cold_start = _now()
        cold = SweepResult(machine="table1-256K", references=references)
        for benchmark in benchmarks:
            for scheme in schemes:
                cell_start = _now()
                metrics = runner.run_scheme(
                    benchmark, scheme, references=references, seed=seed,
                    use_cache=True,
                )
                cells.append(
                    {
                        "benchmark": benchmark,
                        "scheme": scheme,
                        "cold_seconds": round(_now() - cell_start, 4),
                    }
                )
                cold.results[(benchmark, scheme)] = metrics
        cold_seconds = _now() - cold_start

        # Warm pass: same grid, everything should come from the cache.
        warm_cache = result_cache.default_cache()
        warm_cache.stats = result_cache.CacheStats()
        runner._MISS_TRACE_CACHE.clear()
        warm_start = _now()
        warm = run_grid(
            list(benchmarks),
            list(schemes),
            references=references,
            seed=seed,
            use_cache=True,
        )
        warm_seconds = _now() - warm_start
        hit_rate = warm_cache.stats.hit_rate

        # Cold parallel pass: cache and in-process memo wiped first.  The
        # worker pool is warmed *outside* the timed region — the pool is
        # process-wide and amortized over every batch of a real sweep, so
        # charging its one-time fork cost to this single grid would
        # benchmark process startup, not parallel throughput.
        warm_cache.clear()
        result_cache.reset_default_cache()
        runner._MISS_TRACE_CACHE.clear()
        if jobs > 1:
            warm_pool(min(jobs, len(benchmarks)))
        parallel_start = _now()
        parallel = run_grid(
            list(benchmarks),
            list(schemes),
            references=references,
            seed=seed,
            jobs=jobs,
            use_cache=True,
        )
        parallel_seconds = _now() - parallel_start

        cold_metrics = _metrics_dicts(cold)
        return {
            "benchmarks": list(benchmarks),
            "schemes": list(schemes),
            "references": references,
            "seed": seed,
            "jobs": jobs,
            "cells": cells,
            "cold_seconds": round(cold_seconds, 4),
            "warm_seconds": round(warm_seconds, 4),
            "warm_speedup": round(cold_seconds / warm_seconds, 2),
            "parallel_seconds": round(parallel_seconds, 4),
            "parallel_speedup": round(cold_seconds / parallel_seconds, 2),
            "warm_cache_hit_rate": round(hit_rate, 4),
            "metrics_identical": (
                cold_metrics == _metrics_dicts(warm)
                and cold_metrics == _metrics_dicts(parallel)
            ),
        }
    finally:
        if saved_env is None:
            os.environ.pop(result_cache.CACHE_DIR_ENV, None)
        else:
            os.environ[result_cache.CACHE_DIR_ENV] = saved_env
        result_cache.reset_default_cache()
        runner._MISS_TRACE_CACHE.clear()
        shutil.rmtree(cache_dir, ignore_errors=True)


# -- service layer -------------------------------------------------------------


def service_bench(references: int = 1500, seed: int = 1, trials: int = 3) -> dict:
    """Warm-cache job round-trip latency through the full service stack.

    Measures what a tenant pays for the front door itself: with every
    cell already cached, a ``submit → wait → fetch result`` round trip is
    pure service overhead (HTTP parse, admission, journal replay, resume
    from cache, canonical serialization).  A cold job primes the private
    cache first; the reported latency is the best of ``trials`` warm
    round trips (minimum discards scheduler flukes, matching the other
    sections' best-of-repeats convention).
    """
    from repro.service.client import ServiceClient
    from repro.service.queue import JobStore
    from repro.service.scheduler import SchedulerPolicy, ServiceScheduler
    from repro.service.server import serve_in_thread

    benchmarks = ["stream"]
    schemes = ["baseline", "pred_regular"]
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-service-")
    saved_env = os.environ.get(result_cache.CACHE_DIR_ENV)
    os.environ[result_cache.CACHE_DIR_ENV] = cache_dir
    result_cache.reset_default_cache()
    try:
        handle = serve_in_thread(
            ServiceScheduler(
                store=JobStore(),
                policy=SchedulerPolicy(
                    sample_interval_seconds=0.05, poll_interval_seconds=0.01
                ),
            )
        )
        try:
            client = ServiceClient(handle.url)

            def round_trip(tenant: str) -> tuple[float, bytes]:
                start = _now()
                receipt = client.submit(
                    tenant, benchmarks, schemes, references=references, seed=seed
                )
                # The client's default 0.1s poll quantizes a ~10ms warm
                # round trip into a coin flip between 0.01s and 0.11s;
                # poll fast enough that the measurement is the service,
                # not the poller.
                client.wait(receipt["job_id"], timeout=300.0, poll=0.005)
                data = client.result_bytes(receipt["job_id"])
                return _now() - start, data

            cold_seconds, cold_bytes = round_trip("bench-cold")
            warm = [round_trip(f"bench-warm-{index}") for index in range(trials)]
            warm_seconds = min(seconds for seconds, _ in warm)
            identical = all(data == cold_bytes for _, data in warm)
        finally:
            handle.stop()
        return {
            "benchmarks": benchmarks,
            "schemes": schemes,
            "references": references,
            "trials": trials,
            "cold_submit_to_result_sec": round(cold_seconds, 4),
            "submit_to_result_sec": round(warm_seconds, 4),
            "results_identical": identical,
        }
    finally:
        if saved_env is None:
            os.environ.pop(result_cache.CACHE_DIR_ENV, None)
        else:
            os.environ[result_cache.CACHE_DIR_ENV] = saved_env
        result_cache.reset_default_cache()
        shutil.rmtree(cache_dir, ignore_errors=True)


# -- entry point ---------------------------------------------------------------


def run_bench(
    output: str | Path | None = "BENCH_perf.json",
    references: int = 6000,
    operations: int = 2000,
    jobs: int | None = None,
    seed: int = 1,
) -> dict:
    """Run all three layers and (optionally) write the JSON report."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    report = {
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy_version,
            "cpus": available_cpus(),
            "platform": platform.system().lower(),
        },
        "crypto": crypto_bench(),
        "otp": otp_bench(operations=operations, seed=seed + 6),
        "replay": replay_bench(references=references, seed=seed),
        "grid": grid_bench(references=references, seed=seed, jobs=jobs),
        "service": service_bench(references=min(references, 1500), seed=seed),
    }
    if output is not None:
        atomic_write_json(Path(output), report, indent=2)
    return report


#: Speedup ratios compared against the baseline report by
#: :func:`check_regression`; every path is optional on either side (a
#: missing value — e.g. no numpy, so no vector speedup — is skipped, not
#: failed, so the guard works across heterogeneous CI runners).
_GUARDED_SPEEDUPS = (
    ("crypto", "vector_speedup"),
    ("otp", "speedup"),
    ("replay", "speedup"),
    ("grid", "warm_speedup"),
    ("grid", "parallel_speedup"),
)

#: Latency ceilings guarded by :func:`check_regression` — unlike the
#: ratios above these are absolute wall clocks, so the allowed band is
#: doubled (``1 + 2 x tolerance``) to survive slow CI runners on top of a
#: baseline that should itself carry generous headroom.
_GUARDED_LATENCIES = (
    ("service", "submit_to_result_sec"),
)

#: Additive slack on latency ceilings.  Sub-second baselines sit inside
#: the scheduler/poller quantization noise (admission poll, sampler
#: interval, thread wakeup), which is *additive* jitter — a 0.01s
#: baseline can honestly measure 0.1s on the next run without any code
#: regression.  A multiplicative band alone cannot absorb that, so the
#: ceiling also gets this flat allowance; real regressions (an
#: accidental sleep or lock on the service path) still blow through it.
_LATENCY_SLACK_SEC = 0.25


def check_regression(current: dict, baseline: dict, tolerance: float = 0.2) -> list[str]:
    """Compare a fresh bench report against a committed baseline.

    Two classes of check:

    * **Hard invariants** of the current report alone — a warm grid pass
      must be pure cache hits and every pass must produce identical
      metrics.  These are correctness properties, not timings, so no
      tolerance applies.
    * **Speedup ratios** (:data:`_GUARDED_SPEEDUPS`) must stay within
      ``tolerance`` of the baseline's value.  Ratios are compared rather
      than absolute wall clocks so the guard survives slower CI hardware;
      the tolerance absorbs scheduler noise on top of that.

    Returns a list of human-readable violations (empty = pass).
    """
    if not 0 <= tolerance < 1:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    violations: list[str] = []
    grid = current.get("grid", {})
    if grid.get("metrics_identical") is not True:
        violations.append(
            "grid.metrics_identical: warm/parallel metrics differ from the "
            "cold serial pass"
        )
    hit_rate = grid.get("warm_cache_hit_rate")
    if hit_rate != 1.0:
        violations.append(
            f"grid.warm_cache_hit_rate: expected 1.0, got {hit_rate}"
        )
    replay = current.get("replay")
    if replay is not None and replay.get("metrics_identical") is not True:
        violations.append(
            "replay.metrics_identical: batched backend diverged from the "
            "reference replay"
        )
    # Parallel execution must beat the serial loop wherever it can — i.e.
    # on any multi-CPU box, for a report whose parallel pass really ran
    # more than one worker (a 1-CPU runner or a ``--jobs 1`` report runs
    # the serial loop again, where the ratio is meaningless).  A report
    # that does not record its jobs is gated.  This is an invariant of the
    # current report, independent of the baseline.
    cpus = (current.get("environment") or {}).get("cpus")
    jobs = grid.get("jobs")
    parallel_speedup = grid.get("parallel_speedup")
    if (
        cpus and cpus > 1
        and (jobs is None or jobs > 1)
        and parallel_speedup is not None
    ):
        if parallel_speedup <= 1.0:
            violations.append(
                f"grid.parallel_speedup: {parallel_speedup:.2f} <= 1.00 on a "
                f"{cpus}-CPU machine — the pool is slower than the serial loop"
            )
    service = current.get("service")
    if service is not None and service.get("results_identical") is not True:
        violations.append(
            "service.results_identical: warm service results diverged from "
            "the cold job's bytes"
        )
    for section, field in _GUARDED_SPEEDUPS:
        expected = (baseline.get(section) or {}).get(field)
        actual = (current.get(section) or {}).get(field)
        if expected is None or actual is None:
            continue
        floor = expected * (1.0 - tolerance)
        if actual < floor:
            violations.append(
                f"{section}.{field}: {actual:.2f} < {floor:.2f} "
                f"(baseline {expected:.2f}, tolerance {tolerance:.0%})"
            )
    for section, field in _GUARDED_LATENCIES:
        expected = (baseline.get(section) or {}).get(field)
        actual = (current.get(section) or {}).get(field)
        if expected is None or actual is None:
            continue
        ceiling = expected * (1.0 + 2.0 * tolerance) + _LATENCY_SLACK_SEC
        if actual > ceiling:
            violations.append(
                f"{section}.{field}: {actual:.2f}s > {ceiling:.2f}s "
                f"(baseline {expected:.2f}s, tolerance 2x{tolerance:.0%} "
                f"+ {_LATENCY_SLACK_SEC:.2f}s slack)"
            )
    return violations


def temper_baseline(reports: list[dict], safety: float = 0.8) -> dict:
    """Re-temper a regression baseline from several fresh bench reports.

    The committed baseline's only load-bearing values are the guarded
    speedup ratios; everything else (wall clocks, cell timings) is
    documentation.  To refresh it without hand-editing, run the bench N
    times and take, per guarded ratio, the **minimum** across runs scaled
    by ``safety`` — the minimum discards upward scheduler flukes, and the
    safety factor headrooms the floor so a baseline refreshed on a fast
    idle machine does not instantly trip on a loaded CI runner.

    Returns a baseline dict shaped like a bench report (the first run,
    with guarded ratios replaced) plus ``tempering`` metadata recording
    how the values were derived.
    """
    if not reports:
        raise ValueError("temper_baseline needs at least one bench report")
    if not 0 < safety <= 1:
        raise ValueError(f"safety must be in (0, 1], got {safety}")
    baseline = json.loads(json.dumps(reports[0]))  # deep copy, JSON-clean
    tempered: dict[str, float | None] = {}
    for section, field in _GUARDED_SPEEDUPS:
        observed = [
            value
            for report in reports
            if (value := (report.get(section) or {}).get(field)) is not None
        ]
        name = f"{section}.{field}"
        if not observed:
            tempered[name] = None
            continue
        value = round(min(observed) * safety, 2)
        tempered[name] = value
        baseline.setdefault(section, {})[field] = value
    for section, field in _GUARDED_LATENCIES:
        observed = [
            value
            for report in reports
            if (value := (report.get(section) or {}).get(field)) is not None
        ]
        name = f"{section}.{field}"
        if not observed:
            tempered[name] = None
            continue
        # Latencies headroom the other way: the *maximum* across runs,
        # divided by the safety factor so the ceiling sits above it.
        value = round(max(observed) / safety, 2)
        tempered[name] = value
        baseline.setdefault(section, {})[field] = value
    baseline["tempering"] = {
        "runs": len(reports),
        "safety": safety,
        "rule": "speedups: min across runs x safety; "
                "latencies: max across runs / safety",
        "values": tempered,
    }
    return baseline


def render_report(report: dict) -> str:
    """Human-readable summary of a :func:`run_bench` report."""
    crypto = report["crypto"]
    otp = report["otp"]
    grid = report["grid"]
    lines = [
        "Performance benchmark",
        f"crypto: scalar {crypto['scalar_blocks_per_sec']:.0f} blocks/s, "
        f"vector {crypto['vector_blocks_per_sec'] or 0:.0f} blocks/s "
        f"(x{crypto['vector_speedup'] or 0:.1f})",
        f"otp:    baseline {otp['baseline_ops_per_sec']:.0f} ops/s, "
        f"optimized {otp['optimized_ops_per_sec']:.0f} ops/s "
        f"(x{otp['speedup']:.1f})",
    ]
    replay = report.get("replay")
    if replay is not None:
        lines.append(
            f"replay: reference {replay['reference_refs_per_sec'] or 0:.0f} "
            f"refs/s, batched {replay['batched_refs_per_sec'] or 0:.0f} refs/s "
            f"(x{replay['speedup'] or 0:.1f} over "
            f"{len(replay['cells'])} cells, compile "
            f"{replay['compile_seconds']:.3f}s), "
            f"identical: {replay['metrics_identical']}"
        )
    lines.extend(
        [
            f"grid:   cold {grid['cold_seconds']:.2f}s, "
            f"warm {grid['warm_seconds']:.2f}s (x{grid['warm_speedup']:.1f}), "
            f"parallel[{grid['jobs']}] {grid['parallel_seconds']:.2f}s "
            f"(x{grid['parallel_speedup']:.1f})",
            f"        warm cache hit rate {grid['warm_cache_hit_rate']:.0%}, "
            f"metrics identical: {grid['metrics_identical']}",
        ]
    )
    service = report.get("service")
    if service is not None:
        lines.append(
            f"service: cold job {service['cold_submit_to_result_sec']:.2f}s, "
            f"warm submit->result {service['submit_to_result_sec']:.2f}s "
            f"(best of {service['trials']}), "
            f"identical: {service['results_identical']}"
        )
    return "\n".join(lines)
