"""Command-line interface: run experiments and figures from a shell.

Examples::

    python -m repro list                      # benchmarks, schemes, figures
    python -m repro table1
    python -m repro figure figure7 --refs 20000 --jobs 4
    python -m repro run swim pred_context --refs 20000
    python -m repro run mcf oracle baseline pred_regular --l2 1M --jobs 0
    python -m repro run captured baseline --trace trace.rtrc
    python -m repro faults --ops 40 --json --jobs 4
    python -m repro faults --layer sweep      # chaos-soak the sweep executor
    python -m repro faults --layer fabric     # chaos-soak the lease fabric
    python -m repro swarm start --benchmarks gzip,art --schemes oracle,pred_regular
    python -m repro swarm drain --workers 2   # join from any terminal or host
    python -m repro swarm status              # per-cell / per-host liveness
    python -m repro cache stats               # the on-disk result cache
    python -m repro cache verify --repair     # digest-check + quarantine
    python -m repro run gzip oracle pred_regular --supervise --jobs 2
    python -m repro figure figure7 --supervise   # re-run: cached cells served
    python -m repro bench                     # writes BENCH_perf.json
    python -m repro bench --check BENCH_perf.json   # regression guard
    python -m repro trace swim --out trace.json     # chrome://tracing view
    python -m repro --emit-metrics m.json run swim oracle pred_regular
    python -m repro top                       # live fleet dashboard
    python -m repro jobs --watch              # refreshing jobs table
    python -m repro trace --job job-ab12cd    # fleet-merged job trace

Commands that run grid cells cache finished results under ``.repro-cache``
(``--no-cache`` bypasses) and accept ``--jobs N`` worker processes
(``0`` = auto).  ``--supervise`` runs cells under the crash-safe
supervisor (per-cell timeouts, retry, checkpoint manifest); it serves
every cell whose cache entry verifies without forking a worker, so a
re-run after an interrupt recomputes only the rest.  The global
``--emit-metrics PATH`` flag writes the
telemetry snapshot of supporting commands (``run``, ``trace``) as JSON.

Errors (missing or corrupt trace files, integrity violations) are reported
as a single line on stderr with a nonzero exit code; ``--keep-going`` on
``run`` degrades scheme failures to partial results instead of aborting.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.cpu.engine import BACKEND_ENV, available_backends
from repro.cpu.system import collect_miss_trace, replay_miss_trace
from repro.cpu.tracefile import TraceFormatError, load_trace_file
from repro.experiments import cache as result_cache
from repro.experiments.config import TABLE1_1M, TABLE1_256K, table1_rows
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.parallel import run_benchmark_cells_parallel
from repro.experiments.report import render_figure
from repro.experiments.runner import SCHEMES, make_controller, run_cell
from repro.faults.campaign import DEFAULT_RATES, FaultCampaign
from repro.faults.injector import FaultType
from repro.ioutil import atomic_write_json
from repro.secure.errors import SecureMemoryError
from repro.telemetry.events import EventTracer, merge_chrome_traces
from repro.telemetry.profile import PROFILER
from repro.telemetry.snapshot import merge_snapshots
from repro.workloads.spec import DEMO_BENCHMARKS, KNOWN_BENCHMARKS, SPEC_BENCHMARKS

__all__ = ["main"]

_MACHINES = {"256K": TABLE1_256K, "1M": TABLE1_1M}


def _cmd_list(_args: argparse.Namespace) -> int:
    print("benchmarks:", ", ".join(SPEC_BENCHMARKS))
    print("demo:      ", ", ".join(DEMO_BENCHMARKS),
          "(trace/series/run only; not part of the paper's figures)")
    print("schemes:   ", ", ".join(sorted(SCHEMES)))
    print("figures:   ", ", ".join(sorted(ALL_FIGURES)))
    return 0


def _cmd_table1(_args: argparse.Namespace) -> int:
    rows = table1_rows()
    width = max(len(name) for name, _ in rows)
    print("Table 1: Processor model parameters")
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    figure_fn = ALL_FIGURES.get(args.name)
    if figure_fn is None:
        print(f"unknown figure {args.name!r}; choose from "
              f"{', '.join(sorted(ALL_FIGURES))}", file=sys.stderr)
        return 2
    if args.name == "table1":
        return _cmd_table1(args)
    supervised = args.supervise
    if supervised:
        # Figure functions don't take engine options beyond jobs/cache, so
        # supervision is installed as the process-wide run_grid default.
        from repro.experiments import sweep as sweep_mod

        sweep_mod.set_default_supervision(policy=_supervisor_policy(args))
    try:
        result = figure_fn(
            references=args.refs,
            seed=args.seed,
            jobs=args.jobs,
            use_cache=not args.no_cache,
        )
    finally:
        if supervised:
            sweep_mod.reset_default_supervision()
    print(render_figure(result))
    return 0


def _supervisor_policy(args: argparse.Namespace):
    """The supervision policy the --supervise flags describe."""
    from repro.experiments.supervisor import SupervisorPolicy

    return SupervisorPolicy(cell_timeout_seconds=args.cell_timeout)


def _trace_results(args: argparse.Namespace, machine):
    """Replay a saved trace file through each scheme (the ``--trace`` path)."""
    trace = load_trace_file(args.trace)
    if args.refs:
        trace = trace[: args.refs]
    miss_trace = collect_miss_trace(
        trace,
        hierarchy_config=machine.hierarchy,
        flush_interval_instructions=machine.flush_interval_instructions,
    )
    results, failures = {}, []
    for scheme in args.schemes:
        try:
            controller = make_controller(SCHEMES[scheme], machine, args.seed)
            results[scheme] = replay_miss_trace(
                miss_trace, controller, core=machine.core, scheme=scheme
            )
        except Exception as err:
            if not args.keep_going:
                raise
            failures.append(f"{args.benchmark}/{scheme}: {type(err).__name__}: {err}")
    return results, failures


def _emit_snapshot(path: str, snapshots: dict) -> bool:
    """Merge per-cell snapshots and write them where ``--emit-metrics`` asks."""
    if not snapshots:
        print("note: no telemetry snapshots collected; nothing emitted",
              file=sys.stderr)
        return False
    merged = merge_snapshots(snapshots[key] for key in sorted(snapshots))
    merged.save(path)
    print(f"metrics snapshot ({len(merged.values)} metrics) written to {path}")
    return True


def _cmd_run(args: argparse.Namespace) -> int:
    unknown = [s for s in args.schemes if s not in SCHEMES]
    if unknown:
        print(f"unknown scheme(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    if args.trace is None and args.benchmark not in KNOWN_BENCHMARKS:
        print(f"unknown benchmark {args.benchmark!r}", file=sys.stderr)
        return 2
    machine = _MACHINES[args.l2]
    failures: list[str] = []
    snapshots: dict[str, object] = {}
    supervision = None
    if args.trace is not None:
        results, failures = _trace_results(args, machine)
    elif args.supervise:
        from repro.experiments.sweep import run_grid

        sweep = run_grid(
            [args.benchmark], list(args.schemes), machine=machine,
            references=args.refs, seed=args.seed,
            keep_going=args.keep_going, jobs=args.jobs,
            use_cache=not args.no_cache,
            supervise=True, policy=_supervisor_policy(args),
        )
        results = {scheme: m for (_, scheme), m in sweep.results.items()}
        snapshots = {scheme: s for (_, scheme), s in sweep.snapshots.items()}
        failures = [str(failure) for failure in sweep.failures]
        supervision = sweep.supervision
    else:
        cells, run_failures = run_benchmark_cells_parallel(
            args.benchmark, args.schemes, machine=machine,
            references=args.refs, seed=args.seed,
            keep_going=args.keep_going, jobs=args.jobs,
            use_cache=not args.no_cache,
        )
        results = {name: cell.metrics for name, cell in cells.items()}
        snapshots = {name: cell.snapshot for name, cell in cells.items()}
        failures = [str(failure) for failure in run_failures]
    oracle = results.get("oracle")
    header = (
        f"{'scheme':<22}{'IPC':>9}{'pred':>8}{'seq$':>8}"
        f"{'exposed':>9}" + ("" if oracle is None else f"{'norm':>8}")
    )
    print(f"{args.benchmark} on {machine.name} ({args.refs or 'default'} refs)")
    print(header)
    for scheme, metrics in results.items():
        row = (
            f"{scheme:<22}{metrics.ipc:>9.4f}{metrics.prediction_rate:>8.3f}"
            f"{metrics.seqcache_hit_rate:>8.3f}{metrics.mean_exposed_latency:>9.1f}"
        )
        if oracle is not None:
            row += f"{metrics.normalized_ipc(oracle):>8.3f}"
        print(row)
    if supervision is not None:
        interesting = {
            name: value
            for name, value in supervision.items()
            if value and name != "cells_total"
        }
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(interesting.items()))
        print(f"supervision: {rendered or 'clean run'}")
    if args.emit_metrics:
        _emit_snapshot(args.emit_metrics, snapshots)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if args.keep_going and failures:
        total = len(args.schemes)
        print(
            f"keep-going: {len(failures)} of {total} cell(s) failed, "
            f"{len(results)} completed; failed cells listed above with "
            f"their cache keys",
            file=sys.stderr,
        )
    return 1 if failures else 0


def _traced_cell(benchmark, scheme, machine, args):
    """Run one cell with a fresh tracer attached; returns (cell, tracer)."""
    tracer = EventTracer(capacity=args.events)
    cell = run_cell(
        benchmark,
        scheme,
        machine=machine,
        references=args.refs,
        seed=args.seed,
        tracer=tracer,
    )
    return cell, tracer


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.job:
        from repro.telemetry.fleet import fleet_trace

        try:
            payload = fleet_trace(args.job)
        except KeyError:
            print(f"error: unknown job {args.job!r}", file=sys.stderr)
            return 1
        atomic_write_json(args.out, payload)
        print(f"fleet trace for {args.job} written to {args.out}")
        print("open it at chrome://tracing or https://ui.perfetto.dev")
        return 0
    if args.benchmark is None:
        print("error: a benchmark name (or --job) is required", file=sys.stderr)
        return 2
    if args.benchmark not in KNOWN_BENCHMARKS:
        print(f"unknown benchmark {args.benchmark!r}", file=sys.stderr)
        return 2
    schemes = list(args.diff) if args.diff else [args.scheme]
    unknown = [scheme for scheme in schemes if scheme not in SCHEMES]
    if unknown:
        print(f"unknown scheme(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    machine = _MACHINES[args.l2]
    if args.profile:
        PROFILER.enable()
        PROFILER.reset()
    metadata = {
        "benchmark": args.benchmark,
        "machine": machine.name,
        "references": args.refs or "default",
        "seed": args.seed,
    }
    if args.diff:
        # A/B overlay: each scheme replays the same miss trace into its own
        # tracer and becomes its own pid group in one Chrome file, aligned
        # at ts 0 so the lanes compare cycle-for-cycle.
        labeled = []
        cells = {}
        for scheme in schemes:
            cell, tracer = _traced_cell(args.benchmark, scheme, machine, args)
            labeled.append((scheme, tracer))
            cells[scheme] = cell
        payload = merge_chrome_traces(labeled, metadata=metadata)
        atomic_write_json(args.out, payload)
        for scheme, tracer in labeled:
            print(
                f"{args.benchmark}/{scheme}: captured {len(tracer.events())} "
                f"events ({tracer.dropped} dropped beyond --events {args.events})"
            )
        snapshot = None
        if args.emit_metrics:
            snapshot = merge_snapshots(
                cells[scheme].snapshot for scheme in schemes
            )
    else:
        cell, tracer = _traced_cell(args.benchmark, schemes[0], machine, args)
        tracer.write_chrome(
            args.out, metadata={**metadata, "scheme": schemes[0]}
        )
        print(
            f"{args.benchmark}/{schemes[0]}: captured {len(tracer.events())} "
            f"events ({tracer.dropped} dropped beyond --events {args.events})"
        )
        snapshot = cell.snapshot if args.emit_metrics else None
    print(f"trace written to {args.out}")
    print("open it at chrome://tracing or https://ui.perfetto.dev")
    if args.profile:
        print(PROFILER.render())
    if args.emit_metrics and snapshot is not None:
        snapshot.save(args.emit_metrics)
        print(f"metrics snapshot ({len(snapshot.values)} metrics) "
              f"written to {args.emit_metrics}")
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    if args.benchmark not in KNOWN_BENCHMARKS:
        print(f"unknown benchmark {args.benchmark!r}", file=sys.stderr)
        return 2
    if args.scheme not in SCHEMES:
        print(f"unknown scheme {args.scheme!r}", file=sys.stderr)
        return 2
    if args.interval <= 0:
        print(f"--interval must be positive, got {args.interval}",
              file=sys.stderr)
        return 2
    machine = _MACHINES[args.l2]
    cell = run_cell(
        args.benchmark,
        args.scheme,
        machine=machine,
        references=args.refs,
        seed=args.seed,
        series_interval=args.interval,
    )
    series = cell.series
    series.save(args.out)
    accesses = series.accesses()
    print(
        f"{args.benchmark}/{args.scheme}: {len(series)} snapshots every "
        f"{args.interval} fetches (final at {accesses[-1] if accesses else 0})"
    )
    print(f"series written to {args.out}")
    if args.rate:
        try:
            numerator, denominator = args.rate.split("/", 1)
        except ValueError:
            print(f"--rate must be NUMERATOR/DENOMINATOR, got {args.rate!r}",
                  file=sys.stderr)
            return 2
        rates = series.window_rates(numerator.strip(), denominator.strip())
        for index, rate in enumerate(rates):
            left, right = accesses[index], accesses[index + 1]
            print(f"  window {left:>8} .. {right:>8}: {rate:.4f}")
    if args.emit_metrics:
        cell.snapshot.save(args.emit_metrics)
        print(f"metrics snapshot ({len(cell.snapshot.values)} metrics) "
              f"written to {args.emit_metrics}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    if args.layer == "fabric":
        # Distributed-fabric chaos: host kills holding a lease, stalled
        # renewals, clock skew, duplicate claims, torn lease files — the
        # soak requires serial == multi-host-under-chaos, byte-identical.
        import os

        from repro.faults.orchestration import (
            render_fabric_soak_report,
            run_fabric_soak,
        )

        report = run_fabric_soak(
            references=args.refs, seed=args.seed,
            cache_dir=os.environ.get(result_cache.CACHE_DIR_ENV),
        )
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            print(render_fabric_soak_report(report))
        return 0 if report["ok"] else 1
    if args.layer == "sweep":
        # Orchestration chaos: sabotage the sweep *executor* (worker kills,
        # hangs, cache corruption) and require bit-identical recovery.
        import os

        from repro.faults.orchestration import render_soak_report, run_sweep_soak

        # An explicit REPRO_CACHE_DIR keeps the soak's cache (quarantine
        # tier, manifests) around as post-mortem evidence; otherwise the
        # soak runs against a deleted private temp directory.
        report = run_sweep_soak(
            references=args.refs, seed=args.seed, jobs=args.jobs or 2,
            cache_dir=os.environ.get(result_cache.CACHE_DIR_ENV),
        )
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            print(render_soak_report(report))
        return 0 if report["ok"] else 1
    known = {fault_type.value: fault_type for fault_type in FaultType}
    if args.types:
        names = [name.strip() for name in args.types.split(",") if name.strip()]
        unknown = [name for name in names if name not in known]
        if unknown:
            print(
                f"unknown fault type(s): {', '.join(unknown)}; choose from "
                f"{', '.join(known)}", file=sys.stderr,
            )
            return 2
        fault_types = tuple(known[name] for name in names)
    else:
        fault_types = tuple(FaultType)
    try:
        rates = tuple(float(rate) for rate in args.rates.split(","))
        campaign = FaultCampaign(
            fault_types=fault_types,
            rates=rates,
            operations=args.ops,
            seed=args.seed,
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    report = campaign.run(jobs=args.jobs)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    ok = report.all_detected and report.pad_reuse_free
    return 0 if ok else 1


def _cmd_swarm(args: argparse.Namespace) -> int:
    from repro.fabric import (
        SwarmSpec,
        drain_swarm,
        render_status,
        start_swarm,
        swarm_status,
    )
    from repro.experiments.supervisor import SupervisorPolicy
    from repro.fabric.coordinator import load_spec

    try:
        if args.key:
            if args.action != "status":
                print("error: --key is only valid with status", file=sys.stderr)
                return 2
            spec = load_spec(args.key)
            benchmarks, schemes = spec.benchmarks, spec.schemes
        else:
            benchmarks = tuple(
                name.strip() for name in args.benchmarks.split(",") if name.strip()
            )
            schemes = tuple(
                name.strip() for name in args.schemes.split(",") if name.strip()
            )
            spec = SwarmSpec(
                benchmarks=benchmarks,
                schemes=schemes,
                machine=_MACHINES[args.l2].name,
                references=args.refs,
                seed=args.seed,
            )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if args.action == "start":
        key = start_swarm(spec)
        print(f"swarm {key} seeded ({len(benchmarks) * len(schemes)} cells)")
        print("join from any terminal or host sharing this cache dir with:")
        print(
            f"  repro swarm drain --benchmarks {args.benchmarks} "
            f"--schemes {args.schemes} --l2 {args.l2} --seed {args.seed}"
            + (f" --refs {args.refs}" if args.refs else "")
        )
        return 0

    if args.action == "status":
        status = swarm_status(spec, ttl_seconds=args.ttl)
        if args.json:
            print(json.dumps(status, indent=2))
        else:
            print(render_status(status))
        return 0

    try:
        sweep = drain_swarm(
            spec,
            workers=args.workers,
            policy=SupervisorPolicy(ttl_seconds=args.ttl),
            strict=False,
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    stats = sweep.supervision
    if args.json:
        print(json.dumps(stats, indent=2))
    else:
        print(
            f"drained {len(sweep.results)}/"
            f"{len(benchmarks) * len(schemes)} cells, "
            f"{args.workers} at a time: "
            f"ran {stats['cells_completed']}, "
            f"stored {stats['stores']}, "
            f"fenced out {stats['cells_fenced_out']}, "
            f"served {stats['cells_resumed']} from the cache"
        )
    complete = len(sweep.results) == len(benchmarks) * len(schemes)
    return 0 if complete else 1


_SERVICE_URL_ENV = "REPRO_SERVICE_URL"
_SERVICE_DEFAULT_URL = "http://127.0.0.1:8642"


def _service_url(args: argparse.Namespace) -> str:
    return args.url or os.environ.get(_SERVICE_URL_ENV) or _SERVICE_DEFAULT_URL


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.queue import JobStore
    from repro.service.scheduler import (
        SchedulerPolicy,
        ServiceScheduler,
        TenantQuota,
    )
    from repro.service.server import ServiceServer

    scheduler = ServiceScheduler(
        store=JobStore(),
        quota=TenantQuota(
            max_inflight_jobs=args.tenant_inflight,
            max_concurrent_jobs=args.tenant_concurrent,
            max_cells_per_job=args.tenant_max_cells,
        ),
        policy=SchedulerPolicy(
            max_concurrent_jobs=args.max_jobs,
            sample_interval_seconds=args.sample_interval,
            cell_jobs=args.jobs if args.jobs else 1,
        ),
    )
    server = ServiceServer(scheduler, host=args.host, port=args.port)

    async def _serve() -> None:
        await server.start()
        print(f"repro service listening on http://{server.host}:{server.port}")
        print(f"job store: {scheduler.store.root}")
        assert server._server is not None
        async with server._server:
            await server._server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("service stopped")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(_service_url(args))
    benchmarks = [b.strip() for b in args.benchmarks.split(",") if b.strip()]
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    try:
        receipt = client.submit(
            args.tenant,
            benchmarks,
            schemes,
            machine=_MACHINES[args.l2].name,
            references=args.refs,
            seed=args.seed,
        )
    except ServiceError as err:
        if args.json:
            print(json.dumps(err.payload, indent=2, sort_keys=True))
        else:
            print(f"error: {err}", file=sys.stderr)
        return 1
    except (ConnectionRefusedError, OSError) as err:
        print(
            f"error: cannot reach service at {_service_url(args)}: {err}",
            file=sys.stderr,
        )
        return 1
    if args.json and not args.watch:
        print(json.dumps(receipt, indent=2, sort_keys=True))
    else:
        cached = len(receipt["cached_keys"])
        print(
            f"job {receipt['job_id']} queued: {receipt['cells_total']} cells, "
            f"{cached} already cached"
        )
    if args.watch:
        return _watch_job(client, receipt["job_id"], as_json=args.json)
    return 0


def _watch_job(client, job_id: str, as_json: bool = False) -> int:
    from repro.service.client import ServiceError

    try:
        for event in client.events(job_id):
            if as_json:
                print(json.dumps(event, sort_keys=True))
                continue
            kind = event.get("event")
            if kind == "state":
                print(f"[{event.get('source')}] state -> {event.get('state')}")
            elif kind == "sample":
                snapshot = event.get("snapshot", {})
                metrics = snapshot.get("metrics", {})
                print(
                    f"[sample] cells done "
                    f"{metrics.get('service.job.cells_done', 0)}/"
                    f"{metrics.get('service.job.cells_total', '?')}"
                )
            elif kind in ("start", "done", "failed"):
                print(f"[manifest] {kind} {event.get('cell', event.get('key'))}")
        record = client.job(job_id)
    except ServiceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if not as_json:
        print(f"job {job_id}: {record['state']}")
    return 0 if record["state"] == "done" else 1


def _render_jobs(snapshot: dict) -> str:
    """The ``repro jobs --watch`` screen: jobs only, from the disk fold."""
    import time

    from repro.telemetry.top import _fmt_age

    stamp = time.strftime("%H:%M:%S", time.localtime(snapshot["now"]))
    lines = [
        f"repro jobs  {stamp}  queued: {snapshot['queue_depth']}",
        "",
        f"{'job':<18}{'tenant':<14}{'state':<11}{'age':>6}{'last ev':>9}"
        f"{'cells':>12}",
    ]
    for job in snapshot["jobs"]:
        cells = f"{job['cells_done']}/{job['cells_total']}"
        if job["cells_failed"]:
            cells += f" !{job['cells_failed']}"
        lines.append(
            f"{job['job_id']:<18}{job['tenant']:<14}{job['state']:<11}"
            f"{_fmt_age(job['age']):>6}{_fmt_age(job['last_event_age']):>9}"
            f"{cells:>12}"
        )
    if not snapshot["jobs"]:
        lines.append("(no jobs)")
    return "\n".join(lines)


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    if args.watch:
        from repro.telemetry.top import watch

        # The watch loop folds the local job store directly (like ``repro
        # top``), so it keeps working when the service itself is down.
        watch(interval=args.interval, render=_render_jobs)
        return 0
    client = ServiceClient(_service_url(args))
    try:
        if args.job:
            payload = client.job(args.job)
            rows = [payload]
        else:
            rows = client.jobs(args.tenant)
    except ServiceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ConnectionRefusedError, OSError) as err:
        print(
            f"error: cannot reach service at {_service_url(args)}: {err}",
            file=sys.stderr,
        )
        return 1
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    if not rows:
        print("no jobs")
        return 0
    import time

    from repro.telemetry.top import _fmt_age

    now = time.time()
    for record in rows:
        spec = record["spec"]
        grid = f"{len(spec['benchmarks'])}x{len(spec['schemes'])}"
        detail = record.get("detail", {})
        extra = ""
        if record["state"] == "done":
            extra = (
                f"  hits {detail.get('cache_hits', 0)}"
                f"/{detail.get('cells_total', 0)}"
            )
        submitted = record.get("submitted") or 0
        last_event = record.get("last_event") or submitted
        age = _fmt_age(max(0.0, now - submitted) if submitted else None)
        last = _fmt_age(max(0.0, now - last_event) if last_event else None)
        print(
            f"{record['job_id']}  {record['state']:<9} "
            f"{spec['tenant']:<12} {grid:<6} age {age:<5} ev {last:<5} "
            f"{spec['machine']}{extra}"
        )
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.telemetry.top import watch

    watch(interval=args.interval, once=args.once)
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    return _watch_job(
        ServiceClient(_service_url(args)), args.job_id, as_json=args.json
    )


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.bench import (
        check_regression,
        render_report,
        run_bench,
        temper_baseline,
    )

    baseline = None
    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
    if args.update_baseline:
        # Baseline refresh: N fresh measurement runs, min-across-runs x
        # safety per guarded ratio (see temper_baseline).  The first run
        # still writes the normal report to --output.
        reports = []
        for run_index in range(max(1, args.runs)):
            reports.append(
                run_bench(
                    output=args.output if run_index == 0 else None,
                    references=args.refs,
                    operations=args.ops,
                    jobs=args.jobs,
                    seed=args.seed,
                )
            )
            print(f"measurement run {run_index + 1}/{max(1, args.runs)} done")
        tempered = temper_baseline(reports, safety=args.safety)
        atomic_write_json(args.baseline, tempered, indent=2)
        print(f"baseline re-tempered from {len(reports)} run(s) "
              f"(safety {args.safety:.0%}) -> {args.baseline}")
        for name, value in tempered["tempering"]["values"].items():
            rendered = "n/a" if value is None else f"{value:.2f}"
            print(f"  {name}: {rendered}")
        return 0
    report = run_bench(
        output=args.output,
        references=args.refs,
        operations=args.ops,
        jobs=args.jobs,
        seed=args.seed,
    )
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_report(report))
        print(f"report written to {args.output}")
    if baseline is not None:
        violations = check_regression(report, baseline, tolerance=args.tolerance)
        if violations:
            print(f"REGRESSION against {args.check}:", file=sys.stderr)
            for violation in violations:
                print(f"  {violation}", file=sys.stderr)
            return 1
        print(f"regression check against {args.check} passed "
              f"(tolerance {args.tolerance:.0%})")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = result_cache.ResultCache()
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'} "
              f"from {cache.root}")
        return 0
    if args.action == "verify":
        outcome = cache.verify(repair=args.repair)
        print(f"cache root: {cache.root}")
        print(f"checked {outcome['checked']} entries: {outcome['ok']} ok, "
              f"{len(outcome['corrupt'])} corrupt")
        for entry in outcome["corrupt"]:
            name = entry.path.rsplit("/", 1)[-1]
            print(f"  {entry.tier}/{name}: {entry.reason}", file=sys.stderr)
        if args.repair:
            print(f"quarantined {outcome['repaired']} corrupt entr"
                  f"{'y' if outcome['repaired'] == 1 else 'ies'} under "
                  f"{cache.root / 'quarantine'}")
            return 0
        return 1 if outcome["corrupt"] else 0
    stats = cache.disk_stats()
    print(f"cache root:  {stats['root']}")
    print(f"fingerprint: {stats['fingerprint']}")
    for tier in ("results", "traces", "quarantine"):
        tier_stats = stats.get(tier)
        if tier_stats is None:
            continue
        print(f"{tier:<10}  {tier_stats['entries']:>6} entries  "
              f"{tier_stats['bytes']:>10} bytes")
    log_stats = stats["quarantine_log"]
    print(f"quarantine log: {log_stats['entries']} entr"
          f"{'y' if log_stats['entries'] == 1 else 'ies'} "
          f"(rotation keeps last {log_stats['cap']}; "
          f"override with {result_cache.QUARANTINE_LOG_MAX_ENV})")
    return 0


def _jobs_arg(value: str) -> int | None:
    """``--jobs N``; 0 means auto (``$REPRO_JOBS`` or the CPU count)."""
    jobs = int(value)
    return None if jobs == 0 else jobs


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by every command that runs grid cells."""
    parser.add_argument(
        "--jobs", type=_jobs_arg, default=1, metavar="N",
        help="worker processes (default 1 = serial; 0 = auto from "
             "REPRO_JOBS or the CPU count)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache (.repro-cache)",
    )
    parser.add_argument(
        "--supervise", action="store_true",
        help="run cells under the crash-safe supervisor (per-cell "
             "timeouts, retry with backoff, checkpoint manifest; cells "
             "already in the cache are served without a worker)",
    )
    parser.add_argument(
        "--cell-timeout", type=float, default=120.0, metavar="SECONDS",
        help="supervised per-cell wall-clock timeout (default 120)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Counter-mode security architecture reproduction (ISCA 2005)",
    )
    parser.add_argument(
        "--emit-metrics", default=None, metavar="PATH",
        help="write the command's telemetry snapshot as JSON "
             "(honored by run and trace)",
    )
    parser.add_argument(
        "--backend", default=None, choices=available_backends(),
        help="replay backend for every simulation in this command "
             f"(default: ${BACKEND_ENV} or 'batched'; all backends "
             "produce bit-identical results)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit structured logs as JSONL on stderr "
             "(level via $REPRO_LOG: debug/info/warning/error/off)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks, schemes and figures").set_defaults(
        func=_cmd_list
    )
    sub.add_parser("table1", help="print Table 1").set_defaults(func=_cmd_table1)

    figure = sub.add_parser("figure", help="reproduce one figure")
    figure.add_argument("name", help="e.g. figure7 .. figure16")
    figure.add_argument("--refs", type=int, default=None, help="trace length")
    figure.add_argument("--seed", type=int, default=1)
    _add_engine_flags(figure)
    figure.set_defaults(func=_cmd_figure)

    run = sub.add_parser("run", help="run schemes on one benchmark")
    run.add_argument("benchmark", help="benchmark name (label only with --trace)")
    run.add_argument("schemes", nargs="+")
    run.add_argument("--refs", type=int, default=None)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--l2", choices=sorted(_MACHINES), default="256K")
    run.add_argument(
        "--trace", default=None, metavar="FILE",
        help="replay a saved trace file instead of a synthetic benchmark",
    )
    strictness = run.add_mutually_exclusive_group()
    strictness.add_argument(
        "--fail-fast", dest="keep_going", action="store_false",
        help="abort on the first scheme failure (default)",
    )
    strictness.add_argument(
        "--keep-going", dest="keep_going", action="store_true",
        help="report failed schemes on stderr and keep partial results",
    )
    _add_engine_flags(run)
    run.set_defaults(func=_cmd_run, keep_going=False)

    trace = sub.add_parser(
        "trace",
        help="capture a cycle-stamped event trace (Chrome trace_event JSON)",
    )
    trace.add_argument(
        "benchmark", nargs="?", default=None,
        help="benchmark name (omit with --job)",
    )
    trace.add_argument(
        "--scheme", default="pred_regular",
        help="scheme to trace (default pred_regular)",
    )
    trace.add_argument(
        "--job", default=None, metavar="JOB_ID",
        help="write the fleet-merged trace of one sweep-service job "
             "(job journal + manifests + worker beacons, read from the "
             "local job store) instead of capturing a new replay",
    )
    trace.add_argument(
        "--diff", nargs=2, default=None, metavar=("A", "B"),
        help="overlay two schemes as aligned process groups in one trace "
             "(overrides --scheme)",
    )
    trace.add_argument("--refs", type=int, default=None, help="trace length")
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument("--l2", choices=sorted(_MACHINES), default="256K")
    trace.add_argument(
        "--out", default="trace.json", metavar="FILE",
        help="output path for the Chrome trace (default trace.json)",
    )
    trace.add_argument(
        "--events", type=int, default=65536, metavar="N",
        help="ring-buffer capacity; oldest events drop beyond this",
    )
    trace.add_argument(
        "--profile", action="store_true",
        help="also print wall-time profiler scopes for the run",
    )
    trace.set_defaults(func=_cmd_trace)

    series = sub.add_parser(
        "series",
        help="spill periodic telemetry snapshots during a replay (JSONL)",
    )
    series.add_argument("benchmark", help="benchmark name")
    series.add_argument(
        "--scheme", default="pred_regular",
        help="scheme to sample (default pred_regular)",
    )
    series.add_argument(
        "--interval", type=int, default=1000, metavar="N",
        help="snapshot every N fetches (default 1000)",
    )
    series.add_argument("--refs", type=int, default=None, help="trace length")
    series.add_argument("--seed", type=int, default=1)
    series.add_argument("--l2", choices=sorted(_MACHINES), default="256K")
    series.add_argument(
        "--out", default="series.jsonl", metavar="FILE",
        help="output path for the snapshot series (default series.jsonl)",
    )
    series.add_argument(
        "--rate", default=None, metavar="NUM/DEN",
        help="also print the per-window rate of two counters, e.g. "
             "secure.predictor.prediction_hits/secure.predictor.lookups",
    )
    series.set_defaults(func=_cmd_series)

    faults = sub.add_parser(
        "faults", help="run a seeded fault-injection campaign"
    )
    faults.add_argument(
        "--layer", choices=["machine", "sweep", "fabric"], default="machine",
        help="what to attack: the simulated machine (default), the sweep "
             "executor (worker kills, hangs, cache corruption), or the "
             "distributed lease fabric (host kills holding a lease, "
             "stalled renewals, clock skew, duplicate claims, torn lease "
             "files)",
    )
    faults.add_argument("--ops", type=int, default=120, help="operations per cell")
    faults.add_argument(
        "--refs", type=int, default=3000,
        help="trace length per soak cell (--layer sweep only)",
    )
    faults.add_argument("--seed", type=int, default=1)
    faults.add_argument(
        "--types", default=None,
        help="comma-separated fault types (default: all)",
    )
    faults.add_argument(
        "--rates", default=",".join(str(rate) for rate in DEFAULT_RATES),
        help="comma-separated injection rates in (0, 1]",
    )
    faults.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    faults.add_argument(
        "--jobs", type=_jobs_arg, default=1, metavar="N",
        help="worker processes for campaign cells (0 = auto)",
    )
    faults.set_defaults(func=_cmd_faults)

    cache = sub.add_parser(
        "cache", help="inspect, verify or clear the on-disk result cache"
    )
    cache.add_argument("action", choices=["stats", "verify", "clear"])
    cache.add_argument(
        "--repair", action="store_true",
        help="with verify: quarantine corrupt entries so the next run "
             "recomputes them (report-only without this flag)",
    )
    cache.set_defaults(func=_cmd_cache)

    swarm = sub.add_parser(
        "swarm",
        help="drain a sweep from several terminals or hosts over the "
             "shared lease fabric",
    )
    swarm.add_argument("action", choices=["start", "status", "drain"])
    swarm.add_argument(
        "--benchmarks", default="gzip,art", metavar="A,B,...",
        help="comma-separated benchmark names (default gzip,art)",
    )
    swarm.add_argument(
        "--schemes", default="oracle,pred_regular", metavar="A,B,...",
        help="comma-separated scheme names (default oracle,pred_regular)",
    )
    swarm.add_argument("--l2", choices=sorted(_MACHINES), default="256K")
    swarm.add_argument("--refs", type=int, default=None, help="trace length")
    swarm.add_argument("--seed", type=int, default=1)
    swarm.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="cells this drain runs at a time, each in its own worker "
             "process (default 2); more hosts means more drains",
    )
    swarm.add_argument(
        "--ttl", type=float, default=10.0, metavar="SECONDS",
        help="lease TTL; a dead drain's cells are taken over after "
             "this long without a heartbeat (default 10)",
    )
    swarm.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    swarm.add_argument(
        "--key", default=None, metavar="SWEEP_KEY",
        help="status only: look the swarm up by sweep key instead of "
             "respecifying its grid",
    )
    swarm.set_defaults(func=_cmd_swarm)

    serve = sub.add_parser(
        "serve",
        help="run the sweep service front door (submit/stream/fetch "
             "jobs over HTTP)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8642,
        help="listen port (default 8642; 0 picks a free port)",
    )
    serve.add_argument(
        "--max-jobs", type=int, default=2, metavar="N",
        help="jobs executing at once across all tenants (default 2)",
    )
    serve.add_argument(
        "--sample-interval", type=float, default=0.25, metavar="SECONDS",
        help="progress-sample cadence in the event stream (default 0.25)",
    )
    serve.add_argument(
        "--jobs", type=_jobs_arg, default=1, metavar="N",
        help="worker processes per grid (default 1)",
    )
    serve.add_argument(
        "--tenant-inflight", type=int, default=4, metavar="N",
        help="per-tenant queued+running job ceiling (default 4)",
    )
    serve.add_argument(
        "--tenant-concurrent", type=int, default=1, metavar="N",
        help="per-tenant running job ceiling (default 1)",
    )
    serve.add_argument(
        "--tenant-max-cells", type=int, default=256, metavar="N",
        help="per-tenant grid-size ceiling per job (default 256)",
    )
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a grid to a running sweep service"
    )
    submit.add_argument(
        "--url", default=None,
        help=f"service URL (default ${_SERVICE_URL_ENV} or "
             f"{_SERVICE_DEFAULT_URL})",
    )
    submit.add_argument("--tenant", default="default")
    submit.add_argument(
        "--benchmarks", default="gzip,art", metavar="A,B,...",
        help="comma-separated benchmark names (default gzip,art)",
    )
    submit.add_argument(
        "--schemes", default="oracle,pred_regular", metavar="A,B,...",
        help="comma-separated scheme names (default oracle,pred_regular)",
    )
    submit.add_argument("--l2", choices=sorted(_MACHINES), default="256K")
    submit.add_argument("--refs", type=int, default=None, help="trace length")
    submit.add_argument("--seed", type=int, default=1)
    submit.add_argument(
        "--watch", action="store_true",
        help="stream the job's events until it completes",
    )
    submit.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    submit.set_defaults(func=_cmd_submit)

    jobs_cmd = sub.add_parser("jobs", help="list sweep-service jobs")
    jobs_cmd.add_argument("--url", default=None)
    jobs_cmd.add_argument("--tenant", default=None, help="filter by tenant")
    jobs_cmd.add_argument("--job", default=None, help="show one job by id")
    jobs_cmd.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    jobs_cmd.add_argument(
        "--watch", action="store_true",
        help="refreshing jobs table read from the local job store",
    )
    jobs_cmd.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="refresh interval for --watch (default 1.0)",
    )
    jobs_cmd.set_defaults(func=_cmd_jobs)

    top = sub.add_parser(
        "top",
        help="live fleet dashboard: jobs, workers, leases, tenants "
             "(reads the shared cache root, no service required)",
    )
    top.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="refresh interval (default 1.0)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print a single snapshot and exit (scripts, CI)",
    )
    top.set_defaults(func=_cmd_top)

    watch = sub.add_parser(
        "watch", help="stream one sweep-service job's live events"
    )
    watch.add_argument("job_id")
    watch.add_argument("--url", default=None)
    watch.add_argument(
        "--json", action="store_true", help="emit raw NDJSON events"
    )
    watch.set_defaults(func=_cmd_watch)

    bench = sub.add_parser(
        "bench", help="measure crypto/pipeline/grid performance"
    )
    bench.add_argument(
        "--refs", type=int, default=6000, help="trace length per grid cell"
    )
    bench.add_argument(
        "--ops", type=int, default=2000, help="functional pipeline operations"
    )
    bench.add_argument("--seed", type=int, default=1)
    bench.add_argument(
        "--jobs", type=_jobs_arg, default=None, metavar="N",
        help="workers for the parallel grid pass (default: auto)",
    )
    bench.add_argument(
        "--output", default="BENCH_perf.json", metavar="FILE",
        help="where to write the JSON report",
    )
    bench.add_argument(
        "--json", action="store_true", help="print the full report as JSON"
    )
    bench.add_argument(
        "--check", default=None, metavar="BASELINE",
        help="compare against a baseline BENCH_perf.json; exit 1 on regression",
    )
    bench.add_argument(
        "--tolerance", type=float, default=0.2, metavar="FRAC",
        help="allowed fractional speedup drop vs the baseline (default 0.2)",
    )
    bench.add_argument(
        "--update-baseline", action="store_true",
        help="re-temper the committed baseline from --runs fresh "
             "measurements (min across runs x --safety)",
    )
    bench.add_argument(
        "--runs", type=int, default=3, metavar="N",
        help="measurement runs for --update-baseline (default 3)",
    )
    bench.add_argument(
        "--safety", type=float, default=0.8, metavar="FRAC",
        help="safety factor applied to the minimum speedup (default 0.8)",
    )
    bench.add_argument(
        "--baseline", default="BENCH_baseline.json", metavar="FILE",
        help="baseline file --update-baseline writes (default "
             "BENCH_baseline.json)",
    )
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Expected operational errors become a single stderr line and a nonzero
    exit instead of a traceback.
    """
    args = build_parser().parse_args(argv)
    if args.log_json:
        from repro.telemetry import log

        log.configure(json_mode=True)
    if args.backend:
        # Environment, not plumbing: the selection must reach every replay
        # call site, including parallel sweep workers (which inherit the
        # parent's environment at pool startup).
        os.environ[BACKEND_ENV] = args.backend
    try:
        return args.func(args)
    except FileNotFoundError as err:
        print(f"error: file not found: {err.filename or err}", file=sys.stderr)
        return 1
    except TraceFormatError as err:
        print(f"error: corrupt trace file: {err}", file=sys.stderr)
        return 1
    except SecureMemoryError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
