"""Cross-process job tracing: context propagation and fleet trace folding.

A job's life spans at least three execution contexts — the HTTP server
that accepts it, the scheduler loop that admits and runs it, and the
supervisor's cell workers (separate OS processes) that compute its
cells.  Each already journals what it did (job journal, sweep manifest,
lease beacons); what was missing is the *correlation*: a way to say
"these manifest lines, in that worker, belong to this submission".

:class:`TraceContext` is that correlation: a ``(job_id, span_id,
parent_id)`` triple minted when ``POST /v1/jobs`` accepts a spec and
carried two ways at once —

* a **thread-local activation** (:meth:`TraceContext.activate`) for
  code running in the service process (the scheduler thread and the
  supervisor loop it runs), read back via :func:`current_trace_context`;
* the ``REPRO_TRACE`` **environment variable** of a forked worker
  process (a supervised cell worker): the fork site
  reads the forking thread's context and hands it to the child, which
  sets it in its own environment (:func:`adopt_trace_context`), so a
  process that never saw the request still stamps its journal lines.
  The service process's own environment is never written: two jobs
  running at once in one service each hand their own context down.

Layers append ``{"event": "span", ...}`` records (built by
:func:`span_record`) to the job journal, and the sweep manifest's
writer tags every line with ``ts``/``pid``/``trace`` when a context is
active.  :func:`fleet_trace` then folds journal + manifest + worker
beacons into one Chrome trace via
:func:`~repro.telemetry.events.merge_chrome_traces` — one process lane
per role (``server``, ``scheduler``, ``worker-*``), all on the shared
wall-clock axis anchored at the job's submission (``align=False``; the
per-lane alignment used by ``repro trace --diff`` would destroy the
cross-lane ordering this view exists to show).

Import discipline: this module sits in ``repro.telemetry`` and therefore
imports nothing from the rest of ``repro`` at module level; journal
parsing helpers are imported lazily inside :func:`fleet_trace`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.telemetry.events import EventTracer, merge_chrome_traces

__all__ = [
    "TRACE_ENV",
    "TraceContext",
    "current_trace_context",
    "adopt_trace_context",
    "span_record",
    "fleet_trace",
]

#: Environment variable carrying a job's context in a forked worker.
TRACE_ENV = "REPRO_TRACE"

_LOCAL = threading.local()


def _new_span_id() -> str:
    return os.urandom(4).hex()


@dataclass(frozen=True)
class TraceContext:
    """One job's correlation triple, propagated through every layer."""

    job_id: str
    span_id: str
    parent_id: str | None = None

    @classmethod
    def mint(cls, job_id: str) -> "TraceContext":
        """The root context, created where the job enters the system."""
        return cls(job_id=job_id, span_id=_new_span_id())

    def child(self) -> "TraceContext":
        """A fresh span under this one (each layer opens its own)."""
        return TraceContext(
            job_id=self.job_id,
            span_id=_new_span_id(),
            parent_id=self.span_id,
        )

    def to_dict(self) -> dict:
        payload = {"job_id": self.job_id, "span_id": self.span_id}
        if self.parent_id is not None:
            payload["parent_id"] = self.parent_id
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceContext":
        return cls(
            job_id=payload["job_id"],
            span_id=payload.get("span_id", "0"),
            parent_id=payload.get("parent_id"),
        )

    def to_env(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_env(cls, environ=None) -> "TraceContext | None":
        raw = (environ if environ is not None else os.environ).get(TRACE_ENV)
        if not raw:
            return None
        try:
            return cls.from_dict(json.loads(raw))
        except (ValueError, KeyError, TypeError):
            return None  # a torn/foreign value must never break a worker

    @contextmanager
    def activate(self):
        """Make this context current for the calling thread.

        Sets the thread-local slot (read by journal writers in this
        process) and restores the previous one on exit.  Worker processes
        forked meanwhile get the context from their fork site
        (:func:`adopt_trace_context`), never from this process's
        environment, which a thread-local activation must not touch: with
        overlapping jobs (A enters, B enters, A exits, B exits) a restored
        process-global value would end up naming a finished job.
        """
        previous = getattr(_LOCAL, "context", None)
        _LOCAL.context = self
        try:
            yield self
        finally:
            _LOCAL.context = previous


def current_trace_context() -> TraceContext | None:
    """The active context: thread-local first, then the environment.

    The thread-local wins so two scheduler threads running different
    jobs never cross-tag; the environment fallback is what a forked
    worker (which was handed ``REPRO_TRACE`` by its fork site but never
    called :meth:`TraceContext.activate`) resolves.
    """
    context = getattr(_LOCAL, "context", None)
    if context is not None:
        return context
    return TraceContext.from_env()


def adopt_trace_context(context: TraceContext | None) -> None:
    """In a freshly forked worker: make ``context`` this process's context.

    The fork site reads :func:`current_trace_context` in the parent and
    passes it to the child, which calls this first.  It sets
    ``REPRO_TRACE`` in the child's own environment, so the child's
    journal lines, and any process it forks in turn, carry the job that
    caused them.
    """
    if context is not None:
        os.environ[TRACE_ENV] = context.to_env()


def span_record(name: str, role: str, trace: TraceContext, **extra) -> dict:
    """One typed span event for the job journal.

    ``name`` is the lifecycle step (``submitted`` / ``admitted`` /
    ``scheduled`` / ``result_stored``...), ``role`` the lane it renders
    in (``server`` / ``scheduler`` / ``worker-...``).
    """
    record = {
        "event": "span",
        "name": name,
        "role": role,
        "ts": time.time(),
        "pid": os.getpid(),
        "trace": trace.to_dict(),
    }
    for key, value in extra.items():
        if value is not None:
            record[key] = value
    return record


# --------------------------------------------------------------------------
# Fleet trace folding
# --------------------------------------------------------------------------


def _at(ts: float, epoch: float) -> int:
    """Wall seconds → int µs on the shared axis, clamped non-negative."""
    return max(0, int(round((ts - epoch) * 1_000_000)))


def _manifest_lane(record: dict, scheduler_pid: int | None) -> str:
    """Which process lane a manifest line belongs to.

    A leased drain's lines carry its ``owner``; other lines the ``pid`` of
    the worker that ran the cell.  Lines of the service process itself (a
    cell degraded to in-process execution) fold into the scheduler lane —
    they genuinely ran there.
    """
    owner = record.get("owner")
    if owner:
        return f"worker-{owner}"
    pid = record.get("pid")
    if pid is not None and pid != scheduler_pid:
        return f"worker-pid{pid}"
    return "scheduler"


def fleet_trace(job_id: str, store=None, cache_root=None) -> dict:
    """Fold one job's fleet-wide records into a single Chrome trace.

    Sources, all read from disk (no live service required):

    * the **job journal** — lifecycle spans from server and scheduler,
      linked by a flow arrow on the scheduler lane (``queued`` →
      ``running`` → terminal);
    * the **sweep manifest** — per-cell ``start``/``done``/``failed``
      lines, assigned to worker lanes by owner/pid and filtered to this
      job (by trace tag when present, else by the job's time window);
    * the **worker beacons** under the sweep's lease directory — instant
      markers with each worker's last reported state and stats.

    Returns the merged Chrome payload (``align=False`` — every lane
    shares the wall-clock axis anchored at submission).  The result
    passes :func:`~repro.telemetry.events.validate_chrome_trace`; lanes
    appear even for processes that only wrote manifest lines.
    """
    from repro.experiments.cache import default_cache
    from repro.experiments.supervisor import manifest_path, parse_manifest_line
    from repro.service.queue import JobStore

    if store is None:
        store = JobStore()
    cache_root = Path(cache_root) if cache_root else default_cache().root

    record = store.job(job_id)
    epoch = record.submitted or min(
        (e["ts"] for e in record.events if isinstance(e.get("ts"), (int, float))),
        default=time.time(),
    )

    lanes: dict[str, EventTracer] = {}

    def lane(name: str) -> EventTracer:
        tracer = lanes.get(name)
        if tracer is None:
            tracer = lanes[name] = EventTracer()
        return tracer

    # Lane order in the merged view: server on top, scheduler, workers.
    lane("server")
    scheduler_lane = lane("scheduler")

    # -- job journal: lifecycle spans + the state flow ----------------------
    scheduler_pid: int | None = None
    states: list[tuple[float, str]] = [(record.submitted, "queued")]
    for event in record.events:
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            continue
        kind = event.get("event")
        if kind == "span":
            role = str(event.get("role", "scheduler"))
            if role == "scheduler" and isinstance(event.get("pid"), int):
                scheduler_pid = event["pid"]
            args = {
                key: value
                for key, value in event.items()
                if key in ("pid", "detail", "owner", "token")
            }
            trace = event.get("trace") or {}
            args["span_id"] = trace.get("span_id")
            lane(role).instant(
                str(event.get("name", "span")),
                at=_at(ts, epoch),
                track="job",
                category="lifecycle",
                **args,
            )
        elif kind == "state":
            states.append((ts, str(event.get("state", "?"))))
        elif kind == "latency":
            for name, value in event.items():
                if name.endswith("_sec") and isinstance(value, (int, float)):
                    scheduler_lane.counter(
                        f"latency.{name}",
                        at=_at(ts, epoch),
                        track="latency",
                        seconds=round(value, 6),
                    )

    # The job's state machine as spans + one flow arrow, all on the
    # scheduler lane (merged flow ids are namespaced per lane, so the
    # arrow cannot legally cross lanes — see merge_chrome_traces).
    states.sort(key=lambda pair: pair[0])
    # The journal's own "queued" line duplicates the seeded submission
    # state; collapse consecutive repeats so each state renders once.
    deduped: list[tuple[float, str]] = []
    for ts, state in states:
        if not deduped or deduped[-1][1] != state:
            deduped.append((ts, state))
    states = deduped
    flow_id = scheduler_lane.next_flow_id()
    last_index = len(states) - 1
    for index, (ts, state) in enumerate(states):
        start = _at(ts, epoch)
        end = _at(states[index + 1][0], epoch) if index < last_index else start
        scheduler_lane.span(
            f"job:{state}", start=start, end=end, track="job.state",
            category="lifecycle", state=state,
        )
        if index == 0:
            scheduler_lane.flow_begin("job", at=start, flow_id=flow_id,
                                      track="job.state", state=state)
        elif index == last_index:
            scheduler_lane.flow_end("job", at=start, flow_id=flow_id,
                                    track="job.state", state=state)
        else:
            scheduler_lane.flow_step("job", at=start, flow_id=flow_id,
                                     track="job.state", state=state)

    terminal_ts = states[-1][0] if record.terminal else time.time()

    # -- sweep manifest: per-cell spans on worker lanes ---------------------
    sweep_key = record.spec.sweep_key
    try:
        manifest_text = manifest_path(cache_root, sweep_key).read_text()
    except OSError:
        manifest_text = ""
    # start events awaiting their done/failed, keyed per lane + cell key.
    open_starts: dict[tuple[str, str], dict] = {}
    for line in manifest_text.splitlines():
        line = line.strip()
        if not line:
            continue
        parsed = parse_manifest_line(line)
        if parsed is None or "event" not in parsed:
            continue
        ts = parsed.get("ts")
        if not isinstance(ts, (int, float)):
            continue  # pre-observability manifest lines carry no clock
        trace = parsed.get("trace") or {}
        if trace:
            if trace.get("job_id") != job_id:
                continue  # another job sharing this sweep's manifest
        elif not (epoch - 1.0 <= ts <= terminal_ts + 1.0):
            continue  # untagged line outside this job's life
        lane_name = _manifest_lane(parsed, scheduler_pid)
        tracer = lane(lane_name)
        cell = str(parsed.get("cell", parsed.get("key", "?")))
        event = parsed["event"]
        if event == "start":
            open_starts[(lane_name, str(parsed.get("key")))] = parsed
            if "token" in parsed:
                tracer.instant(
                    "lease_claimed", at=_at(ts, epoch), track="cells",
                    category="lifecycle", cell=cell,
                    owner=parsed.get("owner"), token=parsed.get("token"),
                )
        elif event in ("done", "failed", "degrade"):
            started = open_starts.pop((lane_name, str(parsed.get("key"))), None)
            begin = started.get("ts") if started else ts
            tracer.span(
                f"cell:{cell}",
                start=_at(begin, epoch),
                end=_at(ts, epoch),
                track="cells",
                category="cell",
                outcome=event,
                source=parsed.get("source"),
                owner=parsed.get("owner"),
            )
    # Cells that started but never finished (job failed / still running).
    for (lane_name, _), started in open_starts.items():
        lane(lane_name).instant(
            "cell_started",
            at=_at(started["ts"], epoch),
            track="cells",
            category="cell",
            cell=str(started.get("cell", "?")),
        )

    # -- worker beacons: last-known state markers ---------------------------
    workers_dir = cache_root / "leases" / sweep_key / "workers"
    if workers_dir.is_dir():
        for path in sorted(workers_dir.glob("*.json")):
            try:
                beacon = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            updated = beacon.get("updated")
            if not isinstance(updated, (int, float)):
                continue
            if not (epoch - 1.0 <= updated <= terminal_ts + 60.0):
                continue  # beacon from some other sweep generation
            owner = str(beacon.get("owner", path.stem))
            lane(f"worker-{owner}").instant(
                "beacon",
                at=_at(updated, epoch),
                track="beacon",
                category="lifecycle",
                state=beacon.get("state"),
                executed=beacon.get("stats", {}).get("cells_executed"),
                fenced_out=beacon.get("stats", {}).get("cells_fenced_out"),
            )

    ordered = ["server", "scheduler"] + sorted(
        name for name in lanes if name not in ("server", "scheduler")
    )
    return merge_chrome_traces(
        [(name, lanes[name]) for name in ordered],
        metadata={
            "clock": "wall time since submission (us)",
            "job_id": job_id,
            "sweep_key": sweep_key,
            "state": record.state,
            "tenant": record.spec.tenant,
        },
        align=False,
    )
