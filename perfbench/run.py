"""Benchmark harness entry point.

    python3 perfbench/run.py --workload cold_cells --seed 1 --seconds 10 --trace 0

Runs one workload against the program in this checkout's ``src/`` and
prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics when untraced, the
per-layer metrics when traced (``--trace 1``, which also writes a Chrome
trace to ``.perfbench-out/traces/<workload>.json``).  Exits 0 when every
check held, 1 when one did not, 2 when there is no program to measure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import common  # noqa: E402
from harness.tracing import Tracer, chrome_trace, layer_metrics, resolve_ops  # noqa: E402

WORKLOADS = ("cold_cells", "figure_grid", "service_jobs", "sealed_memory")
OUT = ROOT / ".perfbench-out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops the service it started and removes its
    # private directory: SystemExit unwinds through the finally blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Launched in the background, SIGINT arrives ignored, and an ignored
    # signal stays ignored across exec: `repro serve` would then never see
    # the Ctrl-C that stops it.  A handled signal is reset for children.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # Sampling starts before the program is imported: set-up is scaled too.
    clock = common.ReferenceClock()
    try:
        common.bind_program(ROOT)
    except common.HarnessError as error:
        clock.stop()
        print(f"error: {error}", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    module = importlib.import_module(f"harness.{args.workload}")
    tracer = Tracer() if args.trace else None
    ctx = common.RunContext(args.seed, args.seconds, run_dir, clock, tracer)
    try:
        if tracer is not None:
            tracer.install(module.LAYERS)
        measurement = module.run(ctx)
    except common.HarnessError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        ctx.end_timed_phase()
        shutil.rmtree(run_dir, ignore_errors=True)

    wall = common.median(measurement.round_s)
    print(
        f"{args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(measurement.round_s)} round(s), wall_s {wall:.4f}, "
        f"{measurement.attempted} attempted, {measurement.failed} failed"
    )
    if tracer is not None:
        spans = resolve_ops(tracer.spans + measurement.notes.get("server_spans", []))
        trace_path = OUT / "traces" / f"{args.workload}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(chrome_trace(spans)))
        metrics = layer_metrics(spans, measurement.notes.get("jobs"))
    else:
        metrics = measurement.end_to_end()
    for problem in measurement.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not measurement.problems
    print(common.result_line(correct, measurement.attempted, measurement.failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
