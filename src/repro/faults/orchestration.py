"""Orchestration chaos: seeded sabotage for the supervised sweep executor.

PR 1's :class:`~repro.faults.injector.FaultInjector` attacks the *simulated*
machine; this module attacks the *machinery that runs the experiments* —
worker processes and the on-disk result cache — and proves the supervisor
(:mod:`repro.experiments.supervisor`) absorbs it.  Four injectors, all
derived deterministically from one seed:

* **kill-worker** — the worker calls ``os._exit`` before computing, the
  parent sees a death with no result;
* **hang-worker** — the worker sleeps past the cell timeout and is
  terminated by the supervisor;
* **slow-cell** — the worker sleeps a sub-timeout delay, then completes
  (exercises the deadline without tripping it);
* **corrupt-cache-entry** — the worker truncates its own just-stored
  cache entry *after* reporting, poisoning a future resume (which the
  cache's digest check must quarantine and recompute).

:func:`run_sweep_soak` is the proof harness behind ``repro faults --layer
sweep``: an undisturbed serial grid, the same grid supervised under
chaos, then a corrupted-cache resume — all three must produce identical
:class:`~repro.experiments.sweep.SweepResult` contents (metrics *and*
merged telemetry snapshot), and the resume must recompute only the cells
whose entries were corrupted.

The fabric half (:class:`FabricChaos`, :func:`run_fabric_soak`, behind
``repro faults --layer fabric``) attacks the *distributed* machinery
instead, through a sabotaged lease manager (:class:`ChaosLeaseManager`):
host kills while a lease is held, stalled renewals, torn lease files,
duplicate claims from clock-skewed phantom peers, and per-host clock
skew — and requires every multi-host drain to stay byte-identical to the
serial grid with a duplicate-free fenced-store journal.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import shutil
import tempfile
import time
from dataclasses import dataclass

from repro.crypto.rng import HardwareRng
from repro.experiments import cache as result_cache
from repro.experiments import runner
from repro.experiments.config import MachineConfig, TABLE1_256K
from repro.experiments.supervisor import (
    ManifestTail,
    SupervisorPolicy,
    SweepManifest,
    manifest_path,
    run_grid_supervised,
)
from repro.experiments.sweep import run_grid
from repro.fabric.lease import LeaseManager, lease_root

__all__ = [
    "ChaosSpec",
    "SweepChaos",
    "run_sweep_soak",
    "render_soak_report",
    "FabricChaosSpec",
    "FabricChaos",
    "ChaosLeaseManager",
    "run_fabric_soak",
    "render_fabric_soak_report",
]


@dataclass(frozen=True)
class ChaosSpec:
    """Injection rates (per cell attempt) and timing of the four sabotages.

    Rates are cumulative probabilities over one uniform roll, so they must
    sum to at most 1.  By default chaos fires only on a cell's *first*
    attempt — retries run clean, so a bounded-retry supervisor provably
    converges; set ``first_attempt_only=False`` to test retry exhaustion.
    """

    kill_rate: float = 0.0
    hang_rate: float = 0.0
    slow_rate: float = 0.0
    corrupt_rate: float = 0.0
    hang_seconds: float = 30.0
    slow_seconds: float = 0.05
    seed: int = 0xC4A05
    first_attempt_only: bool = True

    def __post_init__(self) -> None:
        rates = (self.kill_rate, self.hang_rate, self.slow_rate, self.corrupt_rate)
        if any(not 0.0 <= rate <= 1.0 for rate in rates):
            raise ValueError(f"rates must be in [0, 1], got {rates}")
        if sum(rates) > 1.0:
            raise ValueError(f"rates must sum to <= 1, got {sum(rates)}")


class SweepChaos:
    """Seeded sabotage plan consulted by the supervisor per (cell, attempt).

    Decisions are pure functions of ``(spec.seed, cell_key, attempt)`` —
    the same plan replayed against the same sweep sabotages the same
    cells, making every soak failure reproducible.
    """

    def __init__(self, spec: ChaosSpec):
        self.spec = spec
        self.planned: list[tuple[str, int, str]] = []  # (cell_key, attempt, action)

    def action_for(self, cell_key: str, attempt: int) -> tuple[str, float] | None:
        """The sabotage for this attempt: ``(action, seconds)`` or None."""
        spec = self.spec
        if spec.first_attempt_only and attempt > 0:
            return None
        rng = HardwareRng(
            (spec.seed ^ int(cell_key[:16], 16) ^ (attempt * 0x9E37)) & (2**64 - 1)
        )
        roll = rng.next_float()
        action: tuple[str, float] | None = None
        if roll < spec.kill_rate:
            action = ("kill", 0.0)
        elif roll < spec.kill_rate + spec.hang_rate:
            action = ("hang", spec.hang_seconds)
        elif roll < spec.kill_rate + spec.hang_rate + spec.slow_rate:
            action = ("slow", spec.slow_seconds)
        elif (
            roll
            < spec.kill_rate + spec.hang_rate + spec.slow_rate + spec.corrupt_rate
        ):
            action = ("corrupt", 0.0)
        if action is not None:
            self.planned.append((cell_key, attempt, action[0]))
        return action


# -- the soak ------------------------------------------------------------------


def _metrics_dicts(sweep) -> dict:
    return {
        f"{benchmark}/{scheme}": dataclasses.asdict(metrics)
        for (benchmark, scheme), metrics in sweep.results.items()
    }


def _merged_values(sweep) -> dict:
    merged = sweep.merged_snapshot()
    return merged.values if merged is not None else {}


def run_sweep_soak(
    benchmarks: tuple[str, ...] = ("gzip", "art"),
    schemes: tuple[str, ...] = ("oracle", "pred_regular"),
    machine: MachineConfig = TABLE1_256K,
    references: int = 3000,
    seed: int = 1,
    jobs: int = 2,
    chaos_spec: ChaosSpec | None = None,
    policy: SupervisorPolicy | None = None,
    corrupt_cells: int = 2,
    cache_dir: str | None = None,
) -> dict:
    """Chaos soak: serial truth vs supervised-under-chaos vs poisoned resume.

    Three passes over the same grid, against a private temporary cache so
    the user's ``.repro-cache`` is never touched:

    1. **serial** — plain ``run_grid``, no cache, no chaos: ground truth.
    2. **supervised + chaos** — kill/hang/slow/corrupt injection under a
       short cell timeout; must converge to the serial result.
    3. **poisoned resume** — ``corrupt_cells`` cache entries are truncated
       by hand, then the sweep runs again: intact cells must be served
       from cache, corrupt ones quarantined and recomputed, and the result
       must *still* equal the serial truth.

    Returns a machine-readable report; ``report["ok"]`` is the verdict.
    With ``cache_dir`` the soak's cache (quarantine tier, manifests) is
    kept there for post-mortem instead of a deleted temp directory.
    """
    # hang_seconds must exceed the cell timeout, or a "hang" degenerates
    # into a long "slow" and the timeout path goes unexercised.
    chaos_spec = chaos_spec or ChaosSpec(
        kill_rate=0.25, hang_rate=0.15, slow_rate=0.2, corrupt_rate=0.2,
        hang_seconds=60.0, slow_seconds=0.02,
    )
    policy = policy or SupervisorPolicy(
        cell_timeout_seconds=15.0,
        max_retries=2,
        backoff_base_seconds=0.01,
        backoff_cap_seconds=0.1,
    )

    serial = run_grid(
        list(benchmarks), list(schemes), machine=machine,
        references=references, seed=seed,
    )
    serial_metrics = _metrics_dicts(serial)
    serial_snapshot = _merged_values(serial)

    keep_cache = cache_dir is not None
    if keep_cache:
        os.makedirs(cache_dir, exist_ok=True)
    else:
        cache_dir = tempfile.mkdtemp(prefix="repro-soak-cache-")
    saved_env = os.environ.get(result_cache.CACHE_DIR_ENV)
    os.environ[result_cache.CACHE_DIR_ENV] = cache_dir
    result_cache.reset_default_cache()
    runner._MISS_TRACE_CACHE.clear()
    try:
        chaos = SweepChaos(chaos_spec)
        supervised = run_grid_supervised(
            list(benchmarks), list(schemes), machine=machine,
            references=references, seed=seed, jobs=jobs,
            policy=policy, chaos=chaos,
        )

        # Poison the cache: hand-truncate result entries the chaos run left
        # intact.  Cells the "corrupt" injector already truncated in-worker
        # count toward the recompute budget too, so track keys, not counts.
        disk = result_cache.default_cache()
        chaos_corrupted = {
            key for key, _, action in chaos.planned if action == "corrupt"
        }
        entry_paths = sorted(
            p
            for p in (disk.root / "results").rglob("*.json")
            if p.is_file() and p.stem not in chaos_corrupted
        )
        poisoned_keys = set(chaos_corrupted)
        for path in entry_paths[: max(0, corrupt_cells)]:
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 3])
            poisoned_keys.add(path.stem)
        poisoned = len(poisoned_keys)

        disk.stats = result_cache.CacheStats()
        runner._MISS_TRACE_CACHE.clear()
        resumed = run_grid_supervised(
            list(benchmarks), list(schemes), machine=machine,
            references=references, seed=seed, jobs=jobs,
            policy=policy,
        )
        resumed_stats = resumed.supervision or {}
        quarantine_entries = sorted(
            p.name
            for p in (disk.root / "quarantine").rglob("*")
            if p.is_file() and p.suffix == ".json"
        )

        supervised_identical = (
            _metrics_dicts(supervised) == serial_metrics
            and _merged_values(supervised) == serial_snapshot
        )
        resumed_identical = (
            _metrics_dicts(resumed) == serial_metrics
            and _merged_values(resumed) == serial_snapshot
        )
        total_cells = len(benchmarks) * len(schemes)
        resume_exact = (
            resumed_stats.get("cells_resumed") == total_cells - poisoned
            and resumed_stats.get("cells_completed") == poisoned
        )
        report = {
            "benchmarks": list(benchmarks),
            "schemes": list(schemes),
            "references": references,
            "seed": seed,
            "jobs": jobs,
            "cells": total_cells,
            "chaos": {
                "planned": [
                    {"cell_key": key[:12], "attempt": attempt, "action": action}
                    for key, attempt, action in chaos.planned
                ],
                "spec": dataclasses.asdict(chaos_spec),
            },
            "supervision": supervised.supervision,
            "supervised_identical_to_serial": supervised_identical,
            "poisoned_entries": poisoned,
            "resume": resumed_stats,
            "resume_quarantined": quarantine_entries,
            "resume_recomputed_only_poisoned": resume_exact,
            "resumed_identical_to_serial": resumed_identical,
            "ok": supervised_identical and resumed_identical and resume_exact,
        }
        return report
    finally:
        if saved_env is None:
            os.environ.pop(result_cache.CACHE_DIR_ENV, None)
        else:
            os.environ[result_cache.CACHE_DIR_ENV] = saved_env
        result_cache.reset_default_cache()
        runner._MISS_TRACE_CACHE.clear()
        if not keep_cache:
            shutil.rmtree(cache_dir, ignore_errors=True)


def render_soak_report(report: dict) -> str:
    """Human-readable verdict of one :func:`run_sweep_soak` run."""
    supervision = report.get("supervision") or {}
    resume = report.get("resume") or {}
    actions = [entry["action"] for entry in report["chaos"]["planned"]]
    lines = [
        f"Sweep chaos soak ({report['cells']} cells, seed {report['seed']}, "
        f"jobs {report['jobs']})",
        f"chaos injected: {len(actions)} "
        f"({', '.join(sorted(set(actions))) or 'none'})",
        f"supervision: retries={supervision.get('retries')} "
        f"timeouts={supervision.get('timeouts')} "
        f"deaths={supervision.get('worker_deaths')} "
        f"degraded={supervision.get('degraded_cells')}",
        f"supervised == serial: {report['supervised_identical_to_serial']}",
        f"poisoned {report['poisoned_entries']} entries -> resume "
        f"served {resume.get('cells_resumed')} from cache, "
        f"recomputed {resume.get('cells_completed')}, "
        f"quarantined {len(report['resume_quarantined'])}",
        f"resume recomputed only poisoned cells: "
        f"{report['resume_recomputed_only_poisoned']}",
        f"resumed == serial: {report['resumed_identical_to_serial']}",
        f"verdict: {'OK' if report['ok'] else 'FAILED'}",
    ]
    return "\n".join(lines)


# -- fabric chaos --------------------------------------------------------------


@dataclass(frozen=True)
class FabricChaosSpec:
    """Injection rates (per first claim of a cell by an owner) for the
    distributed-fabric sabotages, plus per-owner clock skew.

    Rates are cumulative probabilities over one uniform roll and must sum
    to at most 1.  Owners listed in ``immune_owners`` receive no actions
    at all — a soak must keep at least one host immune from ``kill`` or
    a drain can run out of survivors and stall instead of converging.
    """

    kill_rate: float = 0.0
    stall_rate: float = 0.0
    torn_rate: float = 0.0
    dup_rate: float = 0.0
    stall_seconds: float = 5.0
    clock_skew_seconds: float = 0.0
    seed: int = 0xFAB01
    immune_owners: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        rates = (self.kill_rate, self.stall_rate, self.torn_rate, self.dup_rate)
        if any(not 0.0 <= rate <= 1.0 for rate in rates):
            raise ValueError(f"rates must be in [0, 1], got {rates}")
        if sum(rates) > 1.0:
            raise ValueError(f"rates must sum to <= 1, got {sum(rates)}")
        if self.clock_skew_seconds < 0:
            raise ValueError("clock_skew_seconds must be >= 0")


def _owner_hash(owner: str) -> int:
    import hashlib

    return int.from_bytes(hashlib.sha256(owner.encode()).digest()[:8], "big")


class FabricChaos:
    """Seeded sabotage plan consulted by drain hosts per (owner, cell).

    Decisions are pure functions of ``(spec.seed, owner, cell_key)`` so
    every host process derives the same plan from the same spec — but
    each action fires **at most once** per (owner, cell): a cell whose
    first attempt was sabotaged is retried clean (possibly by the same
    owner after a takeover), so chaotic drains provably converge.
    """

    def __init__(self, spec: FabricChaosSpec):
        self.spec = spec
        self._fired: set[tuple[str, str]] = set()

    def clock_skew_for(self, owner: str) -> float:
        """This owner's wall-clock skew in seconds (symmetric, seeded).

        Skew shifts every lease-expiry comparison the owner makes; the
        fencing tokens — not the clocks — are what keep results correct.
        """
        spec = self.spec
        if spec.clock_skew_seconds <= 0 or owner in spec.immune_owners:
            return 0.0
        rng = HardwareRng((spec.seed ^ _owner_hash(owner) ^ 0x5C3E) & (2**64 - 1))
        return (rng.next_float() * 2.0 - 1.0) * spec.clock_skew_seconds

    def action_for(self, owner: str, cell_key: str) -> tuple[str, float] | None:
        """The sabotage for this claim: ``(action, seconds)`` or None."""
        spec = self.spec
        if owner in spec.immune_owners or (owner, cell_key) in self._fired:
            return None
        rng = HardwareRng(
            (spec.seed ^ _owner_hash(owner) ^ int(cell_key[:16], 16))
            & (2**64 - 1)
        )
        roll = rng.next_float()
        action: tuple[str, float] | None = None
        if roll < spec.kill_rate:
            action = ("kill", 0.0)
        elif roll < spec.kill_rate + spec.stall_rate:
            action = ("stall", spec.stall_seconds)
        elif roll < spec.kill_rate + spec.stall_rate + spec.torn_rate:
            action = ("torn", 0.0)
        elif (
            roll
            < spec.kill_rate + spec.stall_rate + spec.torn_rate + spec.dup_rate
        ):
            action = ("dup", 0.0)
        if action is not None:
            self._fired.add((owner, cell_key))
        return action


# -- the fabric soak -----------------------------------------------------------

#: Exit code of a drain host the chaos plan kills while it holds a lease.
HOST_KILL_EXIT = 47

_MP = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


class ChaosLeaseManager(LeaseManager):
    """One drain host's lease manager, sabotaged by a :class:`FabricChaos`.

    The plan fires when the host wins a claim, at most once per (owner,
    cell), and is journaled to the sweep manifest as a ``chaos`` event
    first (forked hosts each hold their own copy of the plan, so the
    shared manifest is the record).  Sabotaging the lease manager keeps
    the supervisor's loop chaos-agnostic:

    * ``kill`` — the host dies holding the lease, and takes its running
      cell workers with it;
    * ``stall`` — renewals of that lease hang for the stall, so it ages
      past the TTL and a peer takes it over;
    * ``torn`` — the host tears its own lease file, which peers detect by
      its digest and take over;
    * ``dup`` — a phantom peer whose clock runs far ahead double-claims
      the cell, so the host's store must fence out;
    * clock skew shifts every expiry comparison the host makes.
    """

    def __init__(self, root, owner: str, ttl_seconds: float, chaos, journal):
        skew = chaos.clock_skew_for(owner)
        super().__init__(
            root, owner=owner, ttl_seconds=ttl_seconds,
            clock=(lambda: time.time() + skew) if skew else time.time,
        )
        self.chaos = chaos
        self.journal = SweepManifest(journal)
        self._stalled_until: dict[str, float] = {}

    def try_acquire(self, key: str):
        lease = super().try_acquire(key)
        planned = None if lease is None else self.chaos.action_for(self.owner, key)
        if planned is None:
            return lease
        action, seconds = planned
        self.journal.record(
            "chaos", key, "", owner=self.owner, token=lease.token, action=action
        )
        if action == "kill":
            for child in multiprocessing.active_children():
                child.kill()
            os._exit(HOST_KILL_EXIT)
        if action == "stall":
            self._stalled_until[key] = self.clock() + seconds
        elif action == "torn":
            path = self._lease_path(key)
            data = path.read_bytes()
            path.write_bytes(data[: max(1, len(data) // 2)])
        elif action == "dup":
            phantom = LeaseManager(
                self.root,
                owner=f"{self.owner}!dup",
                ttl_seconds=self.ttl_seconds,
                clock=lambda: self.clock() + self.ttl_seconds * 4,
            )
            stolen = phantom.try_acquire(key)
            if stolen is not None:
                phantom.release(stolen)
        return lease

    def renew(self, lease):
        if self.clock() < self._stalled_until.get(lease.key, 0.0):
            return lease  # the renewal hangs; the lease ages toward its TTL
        return super().renew(lease)


def _fresh_cache(cache_dir: str) -> None:
    os.makedirs(cache_dir, exist_ok=True)
    os.environ[result_cache.CACHE_DIR_ENV] = cache_dir
    result_cache.reset_default_cache()
    runner._MISS_TRACE_CACHE.clear()


def _host_leases(spec, owner: str, ttl_seconds: float, chaos):
    root = result_cache.default_cache().root
    if chaos is None:
        return LeaseManager(
            lease_root(root, spec.key), owner=owner, ttl_seconds=ttl_seconds
        )
    return ChaosLeaseManager(
        lease_root(root, spec.key), owner, ttl_seconds, chaos,
        manifest_path(root, spec.key),
    )


def _drain_host(spec_payload: dict, owner: str, policy, chaos, cache_dir) -> None:
    """Body of one forked drain host: the same drain, in its own process."""
    from repro.fabric import SwarmSpec, drain_swarm

    _fresh_cache(cache_dir)
    spec = SwarmSpec.from_dict(spec_payload)
    drain_swarm(
        spec, workers=1, policy=policy,
        leases=_host_leases(spec, owner, policy.ttl_seconds, chaos),
    )


def _wait_for_claim(spec, cache_dir: str, owner: str, host) -> None:
    """Block until ``owner`` journals a claim, or its host has exited."""
    tail = ManifestTail(manifest_path(cache_dir, spec.key))
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline and host.is_alive():
        if any(event.get("owner") == owner for event in tail.drain()):
            return
        time.sleep(0.01)


def _drain_phase(spec, owners, policy, chaos, cache_dir, ordered=False):
    """Drain ``spec`` with ``owners[0]`` in this process, the rest forked.

    With ``ordered`` the in-process host starts only once the first
    forked host has journaled a claim.  Returns the in-process drain's
    sweep, its lease manager and the forked hosts' exit codes.
    """
    from repro.fabric import drain_swarm

    _fresh_cache(cache_dir)
    hosts = [
        _MP.Process(
            target=_drain_host,
            args=(spec.to_dict(), owner, policy, chaos, cache_dir),
        )
        for owner in owners[1:]
    ]
    for host in hosts:
        host.start()
    try:
        if ordered:
            _wait_for_claim(spec, cache_dir, owners[1], hosts[0])
        leases = _host_leases(spec, owners[0], policy.ttl_seconds, chaos)
        sweep = drain_swarm(spec, workers=1, policy=policy, leases=leases)
    except BaseException:
        for host in hosts:
            host.terminate()
        raise
    finally:
        for host in hosts:
            host.join(timeout=policy.drain_timeout_seconds)
            if host.is_alive():
                host.terminate()
                host.join(timeout=5.0)
    return sweep, leases, [host.exitcode for host in hosts]


def run_fabric_soak(
    benchmarks: tuple[str, ...] = ("gzip", "art"),
    schemes: tuple[str, ...] = ("oracle", "pred_regular"),
    machine: MachineConfig = TABLE1_256K,
    references: int = 3000,
    seed: int = 1,
    chaos_spec: FabricChaosSpec | None = None,
    ttl_seconds: float = 2.0,
    cache_dir: str | None = None,
) -> dict:
    """Partition-chaos soak for the distributed sweep fabric.

    Four runs of the same grid, each against its own private cache; every
    drain host is the supervisor's loop claiming through one lease
    directory, the first in this process and the rest forked:

    1. **serial** — plain ``run_grid``: ground truth.
    2. **duo** — two clean drain hosts; must equal serial.
    3. **chaos** — four hosts under kill/stall/torn/dup injection with
       per-host clock skew; the in-process host is immune so the drain
       always has a survivor.  Must equal serial, and the store journal
       must contain no duplicate ``(cell, token)`` — fencing let exactly
       one store land per token.
    4. **takeover** — the forked host is chaos-killed holding the lease
       of its first claim; the in-process host starts only after that
       claim is journaled, so it must take the lease over after the TTL
       and finish the grid.  Must equal serial with ≥1 takeover and the
       killed host's recognizable exit code.

    "Equal" means metrics *and* the merged telemetry snapshot compare
    byte-identical after canonical JSON serialization.  Returns a
    machine-readable report; ``report["ok"]`` is the verdict.  With
    ``cache_dir`` the phase caches (leases, manifests, journals) are kept
    under it for post-mortem.
    """
    import json as _json

    from repro.fabric import SwarmSpec

    chaos_spec = chaos_spec or FabricChaosSpec(
        kill_rate=0.2, stall_rate=0.25, torn_rate=0.2, dup_rate=0.25,
        stall_seconds=ttl_seconds * 2.5, clock_skew_seconds=ttl_seconds,
        immune_owners=("c0",),
    )
    policy = SupervisorPolicy(ttl_seconds=ttl_seconds)
    spec = SwarmSpec(
        benchmarks=tuple(benchmarks), schemes=tuple(schemes),
        machine=machine.name, references=references, seed=seed,
    )

    keep_cache = cache_dir is not None
    if keep_cache:
        os.makedirs(cache_dir, exist_ok=True)
    else:
        cache_dir = tempfile.mkdtemp(prefix="repro-fabric-soak-")
    saved_env = os.environ.get(result_cache.CACHE_DIR_ENV)
    phase_dirs = {
        name: os.path.join(cache_dir, name)
        for name in ("serial", "duo", "chaos", "takeover")
    }
    try:
        _fresh_cache(phase_dirs["serial"])
        serial = run_grid(
            list(benchmarks), list(schemes), machine=machine,
            references=references, seed=seed,
        )
        serial_metrics = _json.dumps(_metrics_dicts(serial), sort_keys=True)
        serial_snapshot = _json.dumps(_merged_values(serial), sort_keys=True)

        def identical(sweep) -> bool:
            return (
                _json.dumps(_metrics_dicts(sweep), sort_keys=True)
                == serial_metrics
                and _json.dumps(_merged_values(sweep), sort_keys=True)
                == serial_snapshot
            )

        duo, _, duo_exits = _drain_phase(
            spec, ("d0", "d1"), policy, None, phase_dirs["duo"]
        )
        duo_ok = identical(duo) and duo_exits == [0]

        chaotic, chaos_leases, chaos_exits = _drain_phase(
            spec, ("c0", "c1", "c2", "c3"), policy, FabricChaos(chaos_spec),
            phase_dirs["chaos"],
        )
        injected = [
            {
                "owner": entry.get("owner"),
                "cell_key": entry.get("key", "")[:12],
                "action": entry.get("action"),
            }
            for entry in ManifestTail(
                manifest_path(phase_dirs["chaos"], spec.key)
            ).drain()
            if entry.get("event") == "chaos"
        ]
        tokens = chaos_leases.stored_tokens()
        unique_tokens = len({(key, token) for key, token, _ in tokens}) == len(
            tokens
        )
        chaos_ok = identical(chaotic) and unique_tokens

        # Deterministic targeted kill: the forked host "t1" dies holding
        # the lease of its very first claim; the in-process "t0" is immune
        # and must take the orphaned lease over once its TTL lapses.
        takeover, _, takeover_exits = _drain_phase(
            spec, ("t0", "t1"), policy,
            FabricChaos(FabricChaosSpec(kill_rate=1.0, immune_owners=("t0",))),
            phase_dirs["takeover"], ordered=True,
        )
        takeovers = takeover.supervision["leases"]["taken_over"]
        kill_seen = HOST_KILL_EXIT in takeover_exits
        takeover_ok = identical(takeover) and takeovers >= 1 and kill_seen

        report = {
            "benchmarks": list(benchmarks),
            "schemes": list(schemes),
            "references": references,
            "seed": seed,
            "cells": len(benchmarks) * len(schemes),
            "ttl_seconds": ttl_seconds,
            "chaos": {
                "spec": dataclasses.asdict(chaos_spec),
                "planned": injected,
            },
            "duo": {
                "identical_to_serial": duo_ok,
                "supervision": duo.supervision,
                "host_exit_codes": duo_exits,
            },
            "chaos_drain": {
                "identical_to_serial": identical(chaotic),
                "unique_store_tokens": unique_tokens,
                "supervision": chaotic.supervision,
                "host_exit_codes": chaos_exits,
            },
            "takeover": {
                "identical_to_serial": identical(takeover),
                "takeovers": takeovers,
                "kill_exit_seen": kill_seen,
                "supervision": takeover.supervision,
                "host_exit_codes": takeover_exits,
            },
            "ok": duo_ok and chaos_ok and takeover_ok,
        }
        return report
    finally:
        if saved_env is None:
            os.environ.pop(result_cache.CACHE_DIR_ENV, None)
        else:
            os.environ[result_cache.CACHE_DIR_ENV] = saved_env
        result_cache.reset_default_cache()
        runner._MISS_TRACE_CACHE.clear()
        if not keep_cache:
            shutil.rmtree(cache_dir, ignore_errors=True)


def render_fabric_soak_report(report: dict) -> str:
    """Human-readable verdict of one :func:`run_fabric_soak` run."""
    duo = report["duo"]
    chaos = report["chaos_drain"]
    takeover = report["takeover"]
    actions = [entry["action"] for entry in report["chaos"]["planned"]]
    lines = [
        f"Fabric chaos soak ({report['cells']} cells, seed {report['seed']}, "
        f"ttl {report['ttl_seconds']}s)",
        f"2-host drain == serial: {duo['identical_to_serial']}",
        f"chaos injected: {len(actions)} "
        f"({', '.join(sorted(set(actions))) or 'none'})",
        f"4-host chaos drain == serial: {chaos['identical_to_serial']}",
        f"store journal tokens unique: {chaos['unique_store_tokens']}",
        f"takeover drain == serial: {takeover['identical_to_serial']} "
        f"(takeovers {takeover['takeovers']}, "
        f"kill exit seen {takeover['kill_exit_seen']})",
        f"verdict: {'OK' if report['ok'] else 'FAILED'}",
    ]
    return "\n".join(lines)
