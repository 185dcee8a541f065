"""Unified observability: metrics, event tracing, and profiling.

Every paper claim this repository reproduces — prediction rate, engine
occupancy, stall breakdown, the Section 5.2 engine-latency sensitivity — is
an argument about *where cycles and probes go*.  This package is the
instrument rack that makes those arguments checkable on any run:

* :mod:`repro.telemetry.registry` — typed counters / gauges / histograms
  with hierarchical dotted names (``secure.controller.prediction_hits``,
  ``crypto.engine.occupancy``).  A disabled registry hands out shared
  null instruments, so instrumented code pays one attribute check and
  nothing else.
* :mod:`repro.telemetry.events` — a bounded ring-buffer tracer for
  cycle-stamped spans (L2 miss issue → speculate → DRAM return →
  match/XOR) with Chrome ``trace_event`` JSON export; the files open
  directly in ``chrome://tracing`` or https://ui.perfetto.dev.
* :mod:`repro.telemetry.snapshot` — a mergeable, diffable, JSON-stable
  :class:`~repro.telemetry.snapshot.MetricsSnapshot`; parallel sweep
  workers return snapshots that merge deterministically into grid totals.
* :mod:`repro.telemetry.profile` — wall-time ``perf_counter`` scopes
  around the hot paths (batch AES, pad memo, hierarchy simulation) that
  collapse to a shared no-op object while profiling is off.
* :mod:`repro.telemetry.fleet` — cross-process job tracing: the
  :class:`~repro.telemetry.fleet.TraceContext` minted at job submission
  and carried (thread-local, then ``REPRO_TRACE`` handed to each forked
  worker) into the scheduler, the supervisor and its cell workers, plus the fold of
  journal + manifest + beacons into one Chrome trace (``repro trace --job``).
* :mod:`repro.telemetry.prometheus` — Prometheus text exposition over the
  registry (``GET /metrics``) and the pure-python linter CI scrapes with.
* :mod:`repro.telemetry.log` — structured (JSONL-capable) operational
  logging with bound job/tenant/lease fields, adopted by every fleet
  component's failure paths.
* :mod:`repro.telemetry.top` — the ``repro top`` fleet dashboard, folded
  entirely from durable on-disk state.

The package deliberately imports nothing from the rest of ``repro`` at
module level, so any layer — crypto, memory, secure, experiments — can
depend on it (``fleet``/``top`` reach into the service and fabric layers
lazily, inside their folding functions only).
"""

from repro.telemetry.events import (
    NULL_TRACER,
    EventTracer,
    NullTracer,
    TraceEvent,
    merge_chrome_traces,
    validate_chrome_trace,
)
from repro.telemetry.fleet import (
    TraceContext,
    adopt_trace_context,
    current_trace_context,
    fleet_trace,
    span_record,
)
from repro.telemetry.log import StructuredLogger, get_logger
from repro.telemetry.profile import PROFILER, Profiler, profile_scope
from repro.telemetry.prometheus import (
    check_monotone_counters,
    encode_exposition,
    lint_exposition,
    parse_exposition,
)
from repro.telemetry.registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
)
from repro.telemetry.snapshot import (
    MetricsSnapshot,
    SnapshotSeries,
    merge_snapshots,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NULL_REGISTRY",
    "TraceEvent",
    "EventTracer",
    "NullTracer",
    "NULL_TRACER",
    "merge_chrome_traces",
    "validate_chrome_trace",
    "MetricsSnapshot",
    "SnapshotSeries",
    "merge_snapshots",
    "Profiler",
    "PROFILER",
    "profile_scope",
    "TraceContext",
    "adopt_trace_context",
    "current_trace_context",
    "fleet_trace",
    "span_record",
    "StructuredLogger",
    "get_logger",
    "encode_exposition",
    "parse_exposition",
    "lint_exposition",
    "check_monotone_counters",
]
