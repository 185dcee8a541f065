"""The traced run: spans around the program's public functions.

Wrappers are installed from outside the program by replacing a function
where its callers look it up (a module global or a class attribute), so
the program's own code is untouched.  Each call records one span: name,
start, end, parent span and the id of the operation (a cell, a job or a
sealed operation) it belongs to.  A span that opens an operation names
it; every other span takes its nearest ancestor's (:func:`resolve_ops`,
run once all spans are in).  Spans stay in memory and are written once,
as a Chrome trace, when the run ends.

A process the harness does not run itself (the service and its forked
cell workers) installs the same wrappers with a *spool*: each finished
top-level span is appended, with its children, to a per-process JSONL
file the harness reads back after the process has exited.  A forked
child drops the finished spans it inherited, so nothing is counted
twice, but keeps the forking thread's open spans as its own stack: its
spans name their parent in the other process and carry its operation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from harness.common import HarnessError, median


def _bound(signature, args, kwargs) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _cell_args(signature, args, kwargs, result) -> dict:
    call = _bound(signature, args, kwargs)
    machine = call["machine"]
    return {
        "trace": f"{call['benchmark']}/{machine.name}/{call['references']}/{call['seed']}",
    }


def _refs_built(signature, args, kwargs, result) -> dict:
    return {"refs": len(result.trace)}


def _refs_filtered(signature, args, kwargs, result) -> dict:
    return {"refs": len(_bound(signature, args, kwargs)["trace"])}


def _fetches(signature, args, kwargs, result) -> dict:
    return {"fetches": result.fetches}


def _hit(signature, args, kwargs, result) -> dict:
    return {"hit": result is not None}


def _submitted_job(signature, args, kwargs, result) -> str:
    return result["job_id"]


def _running_job(signature, args, kwargs, result) -> str | None:
    trace = _bound(signature, args, kwargs)["trace"]
    return trace.job_id if trace is not None else None


#: (span name, "module:attribute path", annotate, operation).  The last
#: field is None (the span joins its ancestor's operation), a kind (the
#: span opens a new operation of that kind) or a function, called like
#: ``annotate``, that names the operation the span opens.
CELL_LAYERS = (
    ("experiments.run_grid", "repro.experiments.figures:run_grid", None, "grid"),
    ("experiments.run_cell", "repro.experiments.runner:run_cell", _cell_args, "cell"),
    ("experiments.run_cell", "repro.experiments.supervisor:run_cell", _cell_args, "cell"),
    ("workloads.build_workload", "repro.experiments.runner:build_workload", _refs_built, None),
    ("memory.collect_miss_trace", "repro.experiments.runner:collect_miss_trace",
     _refs_filtered, None),
    ("secure.make_controller", "repro.experiments.runner:make_controller", None, None),
    ("secure.apply_preseed", "repro.experiments.runner:apply_preseed", None, None),
    ("cpu.compile_trace", "repro.cpu.engine:compile_trace", None, None),
    ("cpu.replay_miss_trace", "repro.experiments.runner:replay_miss_trace", _fetches, None),
    ("telemetry.collect_cell_snapshot", "repro.experiments.runner:collect_cell_snapshot",
     None, None),
    ("experiments.lookup_cell", "repro.experiments.cache:ResultCache.lookup_cell", _hit, None),
    ("experiments.lookup_trace", "repro.experiments.cache:ResultCache.lookup_trace", _hit, None),
    ("experiments.store_result", "repro.experiments.cache:ResultCache.store_result", None, None),
    ("experiments.store_trace", "repro.experiments.cache:ResultCache.store_trace", None, None),
)

#: In the service a job is the operation, named by the id the client gets
#: back: ``ServiceScheduler.submit`` (the cache probe made on ``POST``)
#: returns it, and ``ServiceScheduler._run_job`` runs the grid under the
#: job's trace context, which carries it.  Every span under either, in the
#: server and in the cell workers it forks, belongs to that job.  The
#: service's executor is ``run_grid_supervised``, one cell worker at a time.
SERVER_LAYERS = (
    ("service.submit", "repro.service.scheduler:ServiceScheduler.submit", None, _submitted_job),
    ("service.run_job", "repro.service.scheduler:ServiceScheduler._run_job", None, _running_job),
    ("experiments.run_grid_supervised", "repro.service.scheduler:run_grid_supervised",
     None, None),
) + tuple((name, target, annotate, None) for name, target, annotate, _ in CELL_LAYERS)

SEALED_LAYERS = (
    ("crypto.aes", "repro.crypto.aes:AES.encrypt_blocks", None, None),
    ("crypto.sha256", "repro.secure.integrity:sha256", None, None),
    ("crypto.sha256", "repro.crypto.mac:sha256", None, None),
    ("crypto.hmac", "repro.crypto.mac:HmacSha256.tag", None, None),
    ("secure.tree_update", "repro.secure.integrity:IntegrityTree.update", None, None),
    ("secure.tree_verify", "repro.secure.integrity:IntegrityTree.verify", None, None),
    ("secure.fetch_line", "repro.secure.controller:SecureMemoryController.fetch_line",
     None, None),
    ("secure.writeback_line",
     "repro.secure.controller:SecureMemoryController.writeback_line", None, None),
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, spool: Path | None = None):
        self.spans: list[dict] = []
        self._spool = spool
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._base_depth = 0   # stack depth at which finished spans are spooled
        if spool is not None:
            spool.mkdir(parents=True, exist_ok=True)
            os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self._lock = threading.Lock()
        self._base_depth = len(self._stack())

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_op(self, kind: str) -> str:
        return f"{kind}-{os.getpid()}.{next(self._ops)}"

    @contextmanager
    def span(self, name: str, op: str | None = None, **args):
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {
            "id": f"{os.getpid()}.{next(self._ids)}",
            "parent": parent["id"] if parent else None,
            "op": op,
            "name": name,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "args": args,
        }
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)
                if self._spool is not None and len(stack) <= self._base_depth:
                    self._flush()

    def _flush(self) -> None:
        path = self._spool / f"spans-{os.getpid()}.jsonl"
        with path.open("a") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
        self.spans = []

    # -- wrappers -------------------------------------------------------------

    def install(self, layers) -> None:
        for name, target, annotate, operation in layers:
            self.wrap(name, target, annotate, operation)

    def wrap(self, name: str, target: str, annotate=None, operation=None):
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        try:
            for part in parents:
                owner = getattr(owner, part)
            original = (
                owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            )
        except (AttributeError, KeyError):
            raise HarnessError(
                f"traced function {target} no longer exists; update the "
                "harness's layer table"
            ) from None
        signature = inspect.signature(original) if annotate or callable(operation) else None
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            op = tracer.new_op(operation) if isinstance(operation, str) else None
            with tracer.span(name, op=op) as record:
                result = original(*args, **kwargs)
                if annotate is not None:
                    record["args"].update(annotate(signature, args, kwargs, result))
                if callable(operation):
                    record["op"] = operation(signature, args, kwargs, result)
                return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def resolve_ops(spans: list[dict]) -> list[dict]:
    """Give each span without an operation that of its nearest ancestor."""
    by_id = {s["id"]: s for s in spans}

    def op_of(span: dict) -> str | None:
        if span["op"] is None and span["parent"] in by_id:
            span["op"] = op_of(by_id[span["parent"]])
        return span["op"]

    for span in spans:
        op_of(span)
    return spans


def chrome_trace(spans: list[dict]) -> dict:
    """Spans as Chrome trace events (complete events, microseconds)."""
    epoch = min((s["start"] for s in spans), default=0.0)
    events = [
        {
            "name": s["name"],
            "ph": "X",
            "ts": (s["start"] - epoch) * 1e6,
            "dur": (s["end"] - s["start"]) * 1e6,
            "pid": s["pid"],
            "tid": s["tid"],
            "args": {"op": s["op"], "span": s["id"], "parent": s["parent"], **s["args"]},
        }
        for s in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def load_spool(spool: Path) -> list[dict]:
    spans = []
    for path in sorted(spool.glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            if line.strip():
                spans.append(json.loads(line))
    return spans


def self_times(spans: list[dict]) -> dict[str, float]:
    """Each span's duration minus the time its direct children cover."""
    covered: dict[str, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return {s["id"]: (s["end"] - s["start"]) - covered[s["id"]] for s in spans}


#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("workloads.build_s", "s", "lower"),
    ("workloads.refs_per_s", "refs/s", "higher"),
    ("memory.filter_s", "s", "lower"),
    ("memory.refs_per_s", "refs/s", "higher"),
    ("secure.build_s", "s", "lower"),
    ("secure.preseed_s", "s", "lower"),
    ("secure.preseeds_per_trace", "calls/trace", "lower"),
    ("cpu.compile_s", "s", "lower"),
    ("cpu.replay_s", "s", "lower"),
    ("cpu.fetches_per_s", "fetches/s", "higher"),
    ("telemetry.snapshot_s", "s", "lower"),
    ("experiments.cache_lookup_s", "s", "lower"),
    ("experiments.cache_store_s", "s", "lower"),
    ("experiments.executor_s", "s", "lower"),
    ("experiments.cache_hit_ratio", "hits/lookup", "higher"),
    ("service.submit_s", "s", "lower"),
    ("service.queued_s", "s", "lower"),
    ("service.warm_run_s", "s", "lower"),
    ("service.cold_run_s", "s", "lower"),
    ("service.result_s", "s", "lower"),
    ("service.polls_per_job", "count", "lower"),
    ("crypto.aes_s", "s", "lower"),
    ("crypto.sha256_s", "s", "lower"),
    ("crypto.digests_per_op", "digests/op", "lower"),
    ("secure.tree_s", "s", "lower"),
    ("secure.pipeline_s", "s", "lower"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[dict], service_jobs: list[dict] | None = None) -> dict:
    """Every per-layer metric from one traced run; 0 where a layer did not run.

    ``_s`` metrics are self time summed over the run; the ``service.*``
    ones are per-job medians over ``service_jobs`` (client-side records).
    """
    resolve_ops(spans)
    own = self_times(spans)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def busy(*names: str) -> float:
        return sum(own[s["id"]] for name in names for s in by_name[name])

    def summed(name: str, key: str) -> float:
        return sum(s["args"].get(key, 0) for s in by_name[name])

    by_id = {s["id"]: s for s in spans}

    def cell_trace(span: dict) -> str:
        """The trace of the cell a span ran in (its own id outside any cell)."""
        cell = span
        while cell is not None and cell["name"] != "experiments.run_cell":
            cell = by_id.get(cell["parent"])
        return cell["args"]["trace"] if cell is not None else span["id"]

    preseeds = by_name["secure.apply_preseed"]
    preseeded_traces = {cell_trace(s) for s in preseeds}
    lookups = by_name["experiments.lookup_cell"] + by_name["experiments.lookup_trace"]
    hits = sum(1 for s in lookups if s["args"].get("hit"))
    node_digests = [
        s for s in by_name["crypto.sha256"]
        if by_id.get(s["parent"], {}).get("name") != "crypto.hmac"
    ]
    sealed_ops = {s["op"] for s in by_name["sealed.load"] + by_name["sealed.store"]}
    digests = sum(
        1 for s in node_digests + by_name["crypto.hmac"] if s["op"] in sealed_ops
    )
    build_s = busy("workloads.build_workload")
    filter_s = busy("memory.collect_miss_trace")
    cpu_s = busy("cpu.compile_trace", "cpu.replay_miss_trace")

    jobs = service_jobs or []

    def job_median(key: str, kind: str | None = None) -> float:
        values = [j[key] for j in jobs if kind is None or j["kind"] == kind]
        return median(values) if values else 0.0

    values = {
        "workloads.build_s": build_s,
        "workloads.refs_per_s": _ratio(summed("workloads.build_workload", "refs"), build_s),
        "memory.filter_s": filter_s,
        "memory.refs_per_s": _ratio(summed("memory.collect_miss_trace", "refs"), filter_s),
        "secure.build_s": busy("secure.make_controller"),
        "secure.preseed_s": busy("secure.apply_preseed"),
        "secure.preseeds_per_trace": _ratio(len(preseeds), len(preseeded_traces)),
        "cpu.compile_s": busy("cpu.compile_trace"),
        "cpu.replay_s": busy("cpu.replay_miss_trace"),
        "cpu.fetches_per_s": _ratio(summed("cpu.replay_miss_trace", "fetches"), cpu_s),
        "telemetry.snapshot_s": busy("telemetry.collect_cell_snapshot"),
        "experiments.cache_lookup_s": busy(
            "experiments.lookup_cell", "experiments.lookup_trace"
        ),
        "experiments.cache_store_s": busy(
            "experiments.store_result", "experiments.store_trace"
        ),
        "experiments.executor_s": busy(
            "experiments.run_grid", "experiments.run_grid_supervised"
        ),
        "experiments.cache_hit_ratio": _ratio(hits, len(lookups)),
        "service.submit_s": job_median("submit_s"),
        "service.queued_s": job_median("queued_s"),
        "service.warm_run_s": job_median("run_s", "warm"),
        "service.cold_run_s": job_median("run_s", "fresh"),
        "service.result_s": job_median("result_s"),
        "service.polls_per_job": job_median("polls"),
        "crypto.aes_s": busy("crypto.aes"),
        "crypto.sha256_s": busy("crypto.sha256", "crypto.hmac"),
        "crypto.digests_per_op": _ratio(digests, len(sealed_ops)),
        "secure.tree_s": busy("secure.tree_update", "secure.tree_verify"),
        "secure.pipeline_s": busy("secure.fetch_line", "secure.writeback_line"),
    }
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}
