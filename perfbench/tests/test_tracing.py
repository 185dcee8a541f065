"""The tracer, the per-layer arithmetic, BENCHMARK.json and the command line."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from harness import common
from harness.tracing import (
    PER_LAYER, SERVER_LAYERS, Tracer, chrome_trace, layer_metrics, load_spool, resolve_ops,
    self_times,
)

ROOT = Path(__file__).resolve().parents[2]


def _span(ident, parent, name, start, end, op="op-1", **args):
    return {
        "id": ident, "parent": parent, "op": op, "name": name,
        "pid": 1, "tid": 1, "start": start, "end": end, "args": args,
    }


def test_self_time_subtracts_direct_children():
    spans = [
        _span("1", None, "cpu.replay_miss_trace", 0.0, 10.0, fetches=50),
        _span("2", "1", "cpu.compile_trace", 1.0, 3.0),
        _span("3", "2", "x", 1.5, 2.0),
    ]
    assert self_times(spans) == {"1": 8.0, "2": 1.5, "3": 0.5}
    metrics = layer_metrics(spans)
    assert metrics["cpu.replay_s"] == (8.0, "s")
    assert metrics["cpu.compile_s"] == (1.5, "s")
    assert metrics["cpu.fetches_per_s"][0] == pytest.approx(50 / 9.5)


def test_every_per_layer_metric_is_reported_and_absent_layers_read_zero():
    metrics = layer_metrics([])
    assert list(metrics) == [name for name, _, _ in PER_LAYER]
    assert all(value == 0.0 for value, _ in metrics.values())


def test_spans_share_the_operation_id_and_nest():
    tracer = Tracer()
    with tracer.span("outer", op="cell-1"):
        with tracer.span("inner"):
            pass
    inner, outer = resolve_ops(tracer.spans)
    assert inner["op"] == outer["op"] == "cell-1"
    assert inner["parent"] == outer["id"]
    trace = chrome_trace(tracer.spans)
    assert {event["ph"] for event in trace["traceEvents"]} == {"X"}


def test_an_operation_named_by_the_call_reaches_the_spans_under_it(monkeypatch):
    from repro.service.scheduler import ServiceScheduler
    from repro.telemetry.fleet import TraceContext

    tracer = Tracer()

    def run_job(self, spec, trace=None):
        with tracer.span("inner"):
            return "sweep"

    monkeypatch.setattr(ServiceScheduler, "_run_job", run_job)
    tracer.install([layer for layer in SERVER_LAYERS if layer[0] == "service.run_job"])
    try:
        assert ServiceScheduler._run_job(None, "spec", TraceContext.mint("job-7")) == "sweep"
    finally:
        tracer.uninstall()
    inner, outer = resolve_ops(tracer.spans)
    assert outer["name"] == "service.run_job"
    assert inner["op"] == outer["op"] == "job-7"


def test_a_forked_child_spools_its_spans_under_the_open_parent(tmp_path):
    tracer = Tracer(spool=tmp_path)
    with tracer.span("service.run_job", op="job-1"):
        pid = os.fork()
        if pid == 0:  # the child: one span under the inherited parent, then exit
            try:
                with tracer.span("experiments.run_cell"):
                    pass
            finally:
                os._exit(0)
        os.waitpid(pid, 0)
        # Spooled as soon as the child's own span closed.
        assert [s["name"] for s in load_spool(tmp_path)] == ["experiments.run_cell"]
    outer, child = sorted(resolve_ops(load_spool(tmp_path)), key=lambda s: s["start"])
    assert child["pid"] == pid != outer["pid"]
    assert child["parent"] == outer["id"]
    assert child["op"] == outer["op"] == "job-1"


def test_wrapping_a_function_that_no_longer_exists_is_an_error():
    tracer = Tracer()
    with pytest.raises(common.HarnessError):
        tracer.wrap("x", "repro.experiments.runner:no_such_function")
    with pytest.raises(common.HarnessError):
        tracer.wrap("x", "repro.experiments.cache:ResultCache.no_such_method")


def test_wrappers_record_and_uninstall_restores():
    from repro.experiments import runner

    original = runner.apply_preseed
    tracer = Tracer()
    tracer.wrap("secure.apply_preseed", "repro.experiments.runner:apply_preseed")
    assert runner.apply_preseed is not original
    tracer.uninstall()
    assert runner.apply_preseed is original


def test_benchmark_json_names_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    measurement = common.Measurement(round_s=[1.0], op_s=[1.0])
    end_to_end = measurement.end_to_end()
    assert [m["name"] for m in spec["end_to_end"]] == list(end_to_end)
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in end_to_end.values()]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sealed_memory",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
