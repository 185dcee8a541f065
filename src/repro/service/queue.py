"""Durable on-disk job store for the sweep service.

Each job lives under ``<cache root>/service/jobs/<job_id>/`` as:

* ``spec.json`` — the immutable grid spec (atomic write, never rewritten);
* ``journal.jsonl`` — an append-only state journal (``queued`` → ``running``
  → ``done``/``failed``/``cancelled`` plus progress samples), replayed on
  restart exactly like the sweep manifest: torn trailing lines are
  salvaged or skipped via
  :func:`repro.experiments.supervisor.parse_manifest_line`;
* ``result.json`` — the canonical :class:`~repro.experiments.sweep.SweepResult`
  bytes, written atomically once the job completes.

The store holds no in-memory truth: every query replays the journal, so a
killed-and-restarted service (or a second reader such as the event
stream) reconstructs identical state from disk.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.cache import default_cache
from repro.experiments.config import TABLE1_1M, TABLE1_256K, MachineConfig
from repro.experiments.runner import SCHEMES
from repro.experiments.supervisor import grid_cells, parse_manifest_line, sweep_key
from repro.ioutil import atomic_write_json, atomic_write_text
from repro.workloads.spec import KNOWN_BENCHMARKS

__all__ = [
    "JOB_SCHEMA",
    "TERMINAL_STATES",
    "MACHINES",
    "JobSpec",
    "JobRecord",
    "JobStore",
]

JOB_SCHEMA = "repro.service.job/v1"

#: States from which a job never transitions again.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: Machines a job spec may name (the paper's two Table-1 configurations).
MACHINES: dict[str, MachineConfig] = {
    TABLE1_256K.name: TABLE1_256K,
    TABLE1_1M.name: TABLE1_1M,
}

_TENANT_RE = re.compile(r"^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$")


@dataclass(frozen=True)
class JobSpec:
    """One tenant's grid request — everything needed to run it verbatim.

    Validation happens at construction so a malformed submission is
    rejected before anything touches disk; the spec is frozen because the
    job id and cache keys are derived from it.
    """

    tenant: str
    benchmarks: tuple[str, ...]
    schemes: tuple[str, ...]
    machine: str = TABLE1_256K.name
    references: int | None = None
    seed: int = 1

    def __post_init__(self) -> None:
        if not _TENANT_RE.match(self.tenant):
            raise ValueError(
                f"invalid tenant id {self.tenant!r} (alphanumeric, dot, "
                "dash, underscore; max 64 chars)"
            )
        if not self.benchmarks:
            raise ValueError("spec names no benchmarks")
        if not self.schemes:
            raise ValueError("spec names no schemes")
        for benchmark in self.benchmarks:
            if benchmark not in KNOWN_BENCHMARKS:
                raise ValueError(f"unknown benchmark {benchmark!r}")
        for scheme in self.schemes:
            if scheme not in SCHEMES:
                raise ValueError(f"unknown scheme {scheme!r}")
        if self.machine not in MACHINES:
            raise ValueError(
                f"unknown machine {self.machine!r}; "
                f"expected one of {', '.join(sorted(MACHINES))}"
            )
        if self.references is not None and self.references <= 0:
            raise ValueError(f"references must be positive, got {self.references}")

    @property
    def machine_config(self) -> MachineConfig:
        return MACHINES[self.machine]

    @property
    def sweep_key(self) -> str:
        """The manifest key this job's grid writes/resumes under."""
        return sweep_key(
            list(self.benchmarks),
            list(self.schemes),
            self.machine_config,
            self.references,
            self.seed,
        )

    def cells(self) -> list[tuple[str, str, str]]:
        """``(benchmark, scheme, cache_key)`` for every grid point.

        Cache keys are content-addressed, so two tenants submitting
        overlapping grids produce overlapping key sets — the dedup
        substrate the scheduler's accounting is built on.
        """
        return [
            (benchmark, spec.name, cell_key)
            for benchmark, spec, cell_key in grid_cells(
                list(self.benchmarks),
                list(self.schemes),
                self.machine_config,
                self.references,
                self.seed,
            )
        ]

    def to_dict(self) -> dict:
        return {
            "schema": JOB_SCHEMA,
            "tenant": self.tenant,
            "benchmarks": list(self.benchmarks),
            "schemes": list(self.schemes),
            "machine": self.machine,
            "references": self.references,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        schema = payload.get("schema", JOB_SCHEMA)
        if schema != JOB_SCHEMA:
            raise ValueError(f"not a service job spec (schema {schema!r})")
        return cls(
            tenant=payload["tenant"],
            benchmarks=tuple(payload["benchmarks"]),
            schemes=tuple(payload["schemes"]),
            machine=payload.get("machine", TABLE1_256K.name),
            references=payload.get("references"),
            seed=payload.get("seed", 1),
        )


@dataclass
class JobRecord:
    """One job's current state, reconstructed from spec + journal replay."""

    job_id: str
    spec: JobSpec
    state: str
    submitted: float
    events: list[dict] = field(repr=False, default_factory=list)
    detail: dict = field(default_factory=dict)
    #: Wall clock of the newest journal line — how an operator (or
    #: ``repro jobs``) tells a progressing job from a stuck one.
    last_event: float = 0.0

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "state": self.state,
            "submitted": self.submitted,
            "last_event": self.last_event,
            "spec": self.spec.to_dict(),
            "detail": dict(self.detail),
        }


class JobStore:
    """Crash-safe directory-of-jobs persistence.

    All writes are either atomic whole-file replaces (`spec.json`,
    `result.json`) or single-line ``O_APPEND`` journal writes, so a crash
    at any point leaves every job replayable.
    """

    def __init__(self, root: Path | str | None = None):
        if root is None:
            root = default_cache().root / "service"
        self.root = Path(root)

    # -- layout ---------------------------------------------------------------

    def job_dir(self, job_id: str) -> Path:
        return self.root / "jobs" / job_id

    def spec_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "spec.json"

    def journal_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "journal.jsonl"

    def result_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "result.json"

    # -- writes ---------------------------------------------------------------

    def submit(self, spec: JobSpec, job_id: str | None = None) -> JobRecord:
        """Persist a new job: spec atomically, then the ``queued`` event."""
        if job_id is None:
            job_id = f"job-{os.urandom(6).hex()}"
        job_dir = self.job_dir(job_id)
        if job_dir.exists():
            raise ValueError(f"job id collision: {job_id}")
        job_dir.mkdir(parents=True)
        submitted = time.time()
        atomic_write_json(
            self.spec_path(job_id),
            {**spec.to_dict(), "submitted": submitted, "job_id": job_id},
        )
        self.set_state(job_id, "queued")
        return JobRecord(
            job_id=job_id, spec=spec, state="queued", submitted=submitted
        )

    def append(self, job_id: str, record: dict) -> None:
        """Append one journal event (single write + flush, torn-write safe)."""
        line = json.dumps(record, sort_keys=True) + "\n"
        with self.journal_path(job_id).open("a") as handle:
            handle.write(line)
            handle.flush()

    def set_state(self, job_id: str, state: str, **extra) -> None:
        self.append(
            job_id, {"event": "state", "state": state, "ts": time.time(), **extra}
        )

    def store_result(self, job_id: str, canonical_json: str) -> None:
        """Atomically persist the job's canonical result bytes."""
        atomic_write_text(self.result_path(job_id), canonical_json)

    # -- reads (journal replay) ------------------------------------------------

    def job(self, job_id: str) -> JobRecord:
        spec_path = self.spec_path(job_id)
        try:
            payload = json.loads(spec_path.read_text())
        except FileNotFoundError:
            raise KeyError(f"unknown job {job_id!r}") from None
        spec = JobSpec.from_dict(payload)
        submitted = payload.get("submitted", 0.0)
        events: list[dict] = []
        state = "queued"
        detail: dict = {}
        last_event = submitted
        try:
            text = self.journal_path(job_id).read_text()
        except FileNotFoundError:
            text = ""
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            record = parse_manifest_line(line)
            if record is None:
                continue  # torn line from a crash mid-append
            events.append(record)
            ts = record.get("ts")
            if isinstance(ts, (int, float)) and ts > last_event:
                last_event = ts
            if record.get("event") == "state":
                state = record.get("state", state)
                detail = {
                    key: value
                    for key, value in record.items()
                    if key not in ("event", "state", "ts")
                }
        return JobRecord(
            job_id=job_id,
            spec=spec,
            state=state,
            submitted=submitted,
            events=events,
            detail=detail,
            last_event=last_event,
        )

    def jobs(self, tenant: str | None = None) -> list[JobRecord]:
        """All jobs (optionally one tenant's), oldest submission first."""
        jobs_dir = self.root / "jobs"
        if not jobs_dir.is_dir():
            return []
        records = []
        for path in jobs_dir.iterdir():
            if not (path / "spec.json").exists():
                continue
            record = self.job(path.name)
            if tenant is None or record.spec.tenant == tenant:
                records.append(record)
        records.sort(key=lambda record: (record.submitted, record.job_id))
        return records

    def recover(self) -> list[JobRecord]:
        """Re-queue every non-terminal job after a restart.

        Jobs found ``running`` were interrupted mid-execution; they are
        journalled back to ``queued`` with a ``recovered`` marker and will
        re-execute — cells whose result-cache entries verify are served
        without a worker, so no completed work is recomputed.
        """
        recovered = []
        for record in self.jobs():
            if record.terminal:
                continue
            if record.state == "running":
                self.set_state(record.job_id, "queued", recovered=True)
                record.state = "queued"
                record.detail = {"recovered": True}
            recovered.append(record)
        return recovered
