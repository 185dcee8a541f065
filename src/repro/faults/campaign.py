"""Fault campaigns: sweep fault types x rates, report detection/recovery.

A campaign answers, with numbers, the question the paper leaves to an
assumption: *does the integrity substrate detect what an untrusted-DRAM
adversary can do, and does the controller survive it?*  For every
(fault type, rate) cell it builds a fresh functional tree-protected
controller with a :class:`~repro.secure.controller.RecoveryPolicy`, runs a
seeded mixed fetch/write-back workload while the
:class:`~repro.faults.injector.FaultInjector` fires, and attributes every
detection, retry-recovery and quarantine to the fault that caused it.  Four
deterministic demos complete the report: forced graceful degradation to the
non-speculative path; forced counter saturation showing page re-encryption
with a clean pad-reuse audit; a store after a counter rollback, which the
tree catches and seals under a fresh counter; and a replay to before a
line's first seal, which the following load and store both detect.

Everything is seeded, so a campaign is a reproducible experiment, and
:meth:`CampaignReport.to_dict` is stable machine-readable output for CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.rng import HardwareRng
from repro.experiments.parallel import parallel_map
from repro.faults.injector import FaultInjector, FaultType
from repro.secure.controller import RecoveryPolicy, SecureMemoryController
from repro.secure.errors import FetchFailedError, IntegrityError, SecureMemoryError
from repro.secure.predictors import RegularOtpPredictor
from repro.secure.seqnum import PageSecurityTable

__all__ = [
    "CampaignCell",
    "CampaignReport",
    "FaultCampaign",
    "run_smoke_campaign",
]

_MASK64 = (1 << 64) - 1

DEFAULT_FAULT_TYPES = (
    FaultType.BIT_FLIP,
    FaultType.COUNTER_CORRUPT,
    FaultType.MAC_TAMPER,
    FaultType.TREE_NODE_TAMPER,
    FaultType.REPLAY,
    FaultType.DROP,
    FaultType.DELAY,
)

DEFAULT_RATES = (0.05, 0.15, 0.3)


@dataclass
class CampaignCell:
    """Detection/recovery tallies for one (fault type, rate) grid point."""

    fault_type: FaultType
    rate: float
    operations: int = 0
    injected: int = 0
    detected: int = 0
    undetected: int = 0
    recovered: int = 0
    quarantined: int = 0
    spurious: int = 0                 # detection signal with no fault injected
    errors: dict[str, int] = field(default_factory=dict)

    @property
    def detection_rate(self) -> float | None:
        """Detected / injected; None for faults detection doesn't apply to."""
        if not self.fault_type.integrity_violating and self.fault_type is not FaultType.DROP:
            return None
        if not self.injected:
            return 1.0
        return self.detected / self.injected

    def to_dict(self) -> dict:
        return {
            "fault_type": self.fault_type.value,
            "rate": self.rate,
            "operations": self.operations,
            "injected": self.injected,
            "detected": self.detected,
            "undetected": self.undetected,
            "recovered": self.recovered,
            "quarantined": self.quarantined,
            "spurious": self.spurious,
            "detection_rate": self.detection_rate,
            "errors": dict(self.errors),
        }


@dataclass
class CampaignReport:
    """Full campaign result: the matrix plus the four forced demos."""

    seed: int
    operations: int
    cells: list[CampaignCell]
    degradation: dict
    overflow: dict
    rollback: dict
    replay: dict

    @property
    def all_detected(self) -> bool:
        """Every injected integrity-violating (or dropped-response) fault
        produced a detection signal."""
        return all(cell.undetected == 0 for cell in self.cells)

    @property
    def retry_recovery_demonstrated(self) -> bool:
        """At least one fetch succeeded only after policy-driven retries."""
        return any(cell.recovered > 0 for cell in self.cells)

    @property
    def degradation_demonstrated(self) -> bool:
        """The forced demo tripped speculation-disable and fell back."""
        return bool(self.degradation.get("degraded"))

    @property
    def pad_reuse_free(self) -> bool:
        """No demo reused a pad.

        Forced counter saturation audits clean.  The store after a counter
        rollback audits clean and seals under a fresh counter that reads
        back.  After a replay to before a line's first seal, the load and
        the store are both detected, and the store changes nothing.
        """
        rollback, replay = self.rollback, self.replay
        return all((
            self.overflow.get("auditor_clean"),
            rollback.get("auditor_clean"),
            rollback.get("fresh_counter"),
            rollback.get("roundtrip_ok"),
            replay.get("auditor_clean"),
            replay.get("load_detected"),
            replay.get("store_detected"),
            replay.get("state_untouched"),
        ))

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "operations": self.operations,
            "cells": [cell.to_dict() for cell in self.cells],
            "degradation": dict(self.degradation),
            "overflow": dict(self.overflow),
            "rollback": dict(self.rollback),
            "replay": dict(self.replay),
            "all_detected": self.all_detected,
            "retry_recovery_demonstrated": self.retry_recovery_demonstrated,
            "degradation_demonstrated": self.degradation_demonstrated,
            "pad_reuse_free": self.pad_reuse_free,
        }

    def render(self) -> str:
        """Human-readable table (the CLI's default output)."""
        lines = [
            f"Fault campaign (seed {self.seed}, {self.operations} ops/cell)",
            f"{'fault':<18}{'rate':>6}{'inject':>8}{'detect':>8}"
            f"{'miss':>6}{'recov':>7}{'quar':>6}{'det%':>7}",
        ]
        for cell in self.cells:
            rate = cell.detection_rate
            lines.append(
                f"{cell.fault_type.value:<18}{cell.rate:>6.2f}"
                f"{cell.injected:>8}{cell.detected:>8}{cell.undetected:>6}"
                f"{cell.recovered:>7}{cell.quarantined:>6}"
                f"{('  n/a' if rate is None else f'{100 * rate:>6.1f}'):>7}"
            )
        lines.append(
            f"degradation: degraded={self.degradation.get('degraded')} "
            f"after {self.degradation.get('faults_to_degrade')} faults, "
            f"post-degradation speculative blocks "
            f"+{self.degradation.get('post_degradation_speculative_blocks')}"
        )
        lines.append(
            f"counter overflow: overflows={self.overflow.get('overflows')} "
            f"pages_reencrypted={self.overflow.get('pages_reencrypted')} "
            f"pad_reuse_clean={self.overflow.get('auditor_clean')} "
            f"roundtrip_ok={self.overflow.get('roundtrip_ok')}"
        )
        lines.append(
            f"counter rollback: fresh_counter={self.rollback.get('fresh_counter')} "
            f"pad_reuse_clean={self.rollback.get('auditor_clean')} "
            f"roundtrip_ok={self.rollback.get('roundtrip_ok')}"
        )
        lines.append(
            f"replay before first seal: "
            f"load_detected={self.replay.get('load_detected')} "
            f"store_detected={self.replay.get('store_detected')} "
            f"state_untouched={self.replay.get('state_untouched')} "
            f"pad_reuse_clean={self.replay.get('auditor_clean')}"
        )
        lines.append(
            f"verdict: all_detected={self.all_detected} "
            f"retry_recovery={self.retry_recovery_demonstrated} "
            f"degradation={self.degradation_demonstrated} "
            f"pad_reuse_free={self.pad_reuse_free}"
        )
        return "\n".join(lines)


class FaultCampaign:
    """Seeded (fault type x rate) sweep against fresh controllers.

    Parameters
    ----------
    fault_types / rates:
        The grid; defaults cover all seven fault types at three rates.
    operations:
        Fetch operations per cell (write-backs are interleaved on top).
    seed:
        Master seed; each cell derives its own controller/injector/workload
        seeds from it, so cells are independent but replayable.
    working_set_lines:
        Lines in the victim working set (spans multiple pages).
    """

    def __init__(
        self,
        fault_types: tuple[FaultType, ...] = DEFAULT_FAULT_TYPES,
        rates: tuple[float, ...] = DEFAULT_RATES,
        operations: int = 120,
        seed: int = 1,
        key: bytes | None = None,
        recovery: RecoveryPolicy | None = None,
        working_set_lines: int = 24,
    ):
        if not fault_types:
            raise ValueError("fault_types must not be empty")
        if not rates or any(not 0.0 < rate <= 1.0 for rate in rates):
            raise ValueError(f"rates must be in (0, 1], got {rates}")
        if operations < 1:
            raise ValueError(f"operations must be >= 1, got {operations}")
        self.fault_types = tuple(fault_types)
        self.rates = tuple(rates)
        self.operations = operations
        self.seed = seed
        self.key = key if key is not None else bytes(range(32))
        self.recovery = recovery if recovery is not None else RecoveryPolicy()
        self.working_set_lines = working_set_lines

    # -- fixtures ----------------------------------------------------------------

    def _build(self, cell_seed: int):
        """Fresh (controller, injector, image, lines) for one cell."""
        table = PageSecurityTable(rng=HardwareRng(cell_seed))
        controller = SecureMemoryController(
            page_table=table,
            predictor=RegularOtpPredictor(table, depth=5),
            key=self.key,
            integrity=True,
            recovery=self.recovery,
        )
        injector = FaultInjector(controller, seed=cell_seed ^ 0xFA017)
        line_bytes = controller.address_map.line_bytes
        # Spread the working set over several pages: consecutive runs of
        # lines starting at page-aligned bases.
        per_page = max(1, self.working_set_lines // 3)
        lines = []
        base = 0x10000
        while len(lines) < self.working_set_lines:
            offset = len(lines) % per_page
            page_index = len(lines) // per_page
            lines.append(
                base
                + page_index * controller.address_map.page_bytes
                + offset * line_bytes
            )
        image = {}
        clock = 0
        for line in lines:
            image[line] = self._pattern(line, 0, line_bytes)
            clock = controller.writeback_line(clock, line, image[line]).completion_time
        # The adversary records the whole untrusted state now ...
        injector.snapshot()
        # ... then the machine moves on, so a replay is a genuine rollback.
        for line in lines:
            image[line] = self._pattern(line, 1, line_bytes)
            clock = controller.writeback_line(clock, line, image[line]).completion_time
        return controller, injector, image, lines, clock

    @staticmethod
    def _pattern(line: int, version: int, line_bytes: int) -> bytes:
        seed = (line * 0x9E3779B97F4A7C15 + version * 0xBF58476D1CE4E5B9) & _MASK64
        return seed.to_bytes(8, "big") * (line_bytes // 8)

    # -- the sweep ---------------------------------------------------------------

    def run(self, jobs: int | None = 1) -> CampaignReport:
        """Run the full grid plus the four forced demos.

        Each (fault type, rate) cell derives its own seeds from the master
        seed, so cells are independent; ``jobs`` fans them out across
        worker processes with cell-for-cell identical results.
        """
        tasks = []
        for type_index, fault_type in enumerate(self.fault_types):
            for rate_index, rate in enumerate(self.rates):
                cell_seed = (
                    self.seed * 0x1000 + type_index * 0x100 + rate_index + 1
                )
                tasks.append((self, fault_type, rate, cell_seed))
        cells = parallel_map(_run_campaign_cell, tasks, jobs=jobs)
        return CampaignReport(
            seed=self.seed,
            operations=self.operations,
            cells=cells,
            degradation=self._degradation_demo(),
            overflow=self._overflow_demo(),
            rollback=self._rollback_demo(),
            replay=self._replay_demo(),
        )

    def _run_cell(
        self, fault_type: FaultType, rate: float, cell_seed: int
    ) -> CampaignCell:
        controller, injector, image, lines, clock = self._build(cell_seed)
        workload_rng = HardwareRng(cell_seed ^ 0xC0FFEE)
        cell = CampaignCell(fault_type=fault_type, rate=rate)
        active = list(lines)

        for op in range(self.operations):
            if not active:
                break
            line = active[workload_rng.next_below(len(active))]
            inject = workload_rng.next_float() < rate
            if inject:
                injector.inject(fault_type, line)
                cell.injected += 1

            before = controller.resilience.as_dict()
            try:
                result = controller.fetch_line(clock, line)
                clock = result.data_ready
            except SecureMemoryError as err:
                name = type(err).__name__
                if isinstance(err, FetchFailedError) and err.cause is not None:
                    name = type(err.cause).__name__
                cell.errors[name] = cell.errors.get(name, 0) + 1
                clock += 1000
            after = controller.resilience.as_dict()

            cell.operations += 1
            signal = (
                after["integrity_faults"] > before["integrity_faults"]
                or after["dram_faults"] > before["dram_faults"]
            )
            if inject and fault_type is not FaultType.DELAY:
                if signal:
                    cell.detected += 1
                else:
                    cell.undetected += 1
            elif signal:
                cell.spurious += 1
            cell.recovered += after["recovered_fetches"] - before["recovered_fetches"]
            cell.quarantined += (
                after["quarantined_lines"] - before["quarantined_lines"]
            )

            # Repair persistent damage so the next op starts from a sound
            # machine and detections stay attributable.
            if inject and not fault_type.transient:
                injector.repair_all()
            if line in controller.quarantine and line in active:
                active.remove(line)

            # Interleave write-backs so counters advance and the tree keeps
            # moving away from the adversary's snapshot.
            if active and op % 4 == 3:
                target = active[workload_rng.next_below(len(active))]
                image[target] = self._pattern(target, 2 + op, 32)
                clock = controller.writeback_line(
                    clock, target, image[target]
                ).completion_time
        return cell

    # -- forced demos ------------------------------------------------------------

    def _degradation_demo(self) -> dict:
        """Keep tampering until speculation is disabled; show the fallback."""
        controller, injector, image, lines, clock = self._build(self.seed ^ 0xDE64)
        faults_to_degrade = 0
        for line in lines:
            if controller.degraded:
                break
            injector.inject_mac_tamper(line)
            try:
                controller.fetch_line(clock, line)
            except SecureMemoryError:
                pass
            faults_to_degrade = controller.resilience.integrity_faults
            injector.repair_all()
            clock += 1000
        healthy = [line for line in lines if line not in controller.quarantine]
        spec_before = controller.engine.stats.speculative_blocks
        post_class = None
        if controller.degraded and healthy:
            result = controller.fetch_line(clock, healthy[0])
            post_class = result.fetch_class.value
            clock = result.data_ready
        return {
            "degraded": controller.degraded,
            "faults_to_degrade": faults_to_degrade,
            "degrade_events": controller.resilience.degrade_events,
            "post_degradation_class": post_class,
            "post_degradation_speculative_blocks": (
                controller.engine.stats.speculative_blocks - spec_before
            ),
        }

    def _demo_controller(self, salt: int) -> SecureMemoryController:
        """A fresh tree-protected controller for one forced demo."""
        return SecureMemoryController(
            page_table=PageSecurityTable(rng=HardwareRng(self.seed ^ salt)),
            key=self.key,
            integrity=True,
            recovery=self.recovery,
        )

    def _overflow_demo(self) -> dict:
        """Force counter saturation; verify re-encryption, no pad reuse."""
        controller = self._demo_controller(0x0F10)
        line_bytes = controller.address_map.line_bytes
        line = 0x40000
        page = controller.address_map.page_number(line)
        # Drive the line to the saturation point: install a consistent
        # sealed state at seqnum 2^64 - 1 counting from the current root.
        state = controller.page_table.state(page)
        state.root = _MASK64
        old_plaintext = self._pattern(line, 0, line_bytes)
        ciphertext = controller.otp.seal(line, _MASK64, old_plaintext)
        controller.auditor.on_seal(line, _MASK64)
        controller.backing.write_line(line, ciphertext)
        controller.backing.write_seqnum(line, _MASK64)
        controller.integrity_tree.update(line, _MASK64, ciphertext)

        new_plaintext = self._pattern(line, 1, line_bytes)
        result = controller.writeback_line(0, line, new_plaintext)
        fetched = controller.fetch_line(result.completion_time + 1, line)
        return {
            "overflows": controller.resilience.counter_overflows,
            "pages_reencrypted": controller.resilience.pages_reencrypted,
            "reencrypted_page": result.reencrypted_page,
            "auditor_clean": controller.auditor.clean,
            "seals": controller.auditor.seals,
            "roundtrip_ok": fetched.plaintext == new_plaintext,
        }

    def _rollback_demo(self) -> dict:
        """Store after a counter rollback: sealed under a fresh counter."""
        controller = self._demo_controller(0x0B0C)
        line_bytes = controller.address_map.line_bytes
        line = 0x40000
        first, second, third = (self._pattern(line, v, line_bytes) for v in range(3))
        clock = controller.writeback_line(0, line, first).completion_time
        noted = controller.backing.read_seqnum(line)
        clock = controller.writeback_line(clock, line, second).completion_time
        used = {noted, controller.backing.read_seqnum(line)}
        # The adversary puts the first store's counter back in RAM.
        controller.backing.write_seqnum(line, noted)
        result = controller.writeback_line(clock, line, third)
        fetched = controller.fetch_line(result.completion_time + 1, line)
        return {
            "integrity_faults": controller.resilience.integrity_faults,
            "rebased": result.rebased,
            "fresh_counter": result.seqnum not in used,
            "auditor_clean": controller.auditor.clean,
            "roundtrip_ok": fetched.plaintext == third,
        }

    def _replay_demo(self) -> dict:
        """Replay to before a line's first seal, then load and store it."""
        controller = self._demo_controller(0x5EA1)
        injector = FaultInjector(controller, seed=self.seed ^ 0x5EA1)
        backing, tree = controller.backing, controller.integrity_tree
        line_bytes = controller.address_map.line_bytes
        line = 0x40000
        injector.snapshot()
        clock = controller.writeback_line(
            0, line, self._pattern(line, 0, line_bytes)
        ).completion_time
        root = tree.root
        # RAM forgets the line, and the tree nodes go back with it.
        injector.inject_replay(line)
        faults = controller.resilience.integrity_faults
        try:
            controller.fetch_line(clock, line)
        except SecureMemoryError:
            pass
        load_detected = controller.resilience.integrity_faults > faults
        try:
            controller.writeback_line(clock, line, self._pattern(line, 1, line_bytes))
            store_detected = False
        except IntegrityError:
            store_detected = True
        return {
            "integrity_faults": controller.resilience.integrity_faults,
            "load_detected": load_detected,
            "store_detected": store_detected,
            "state_untouched": (
                backing.read_seqnum(line) is None
                and not backing.has_line(line)
                and tree.root == root
            ),
            "auditor_clean": controller.auditor.clean,
        }


def _run_campaign_cell(task) -> CampaignCell:
    """Module-level (picklable) worker body for one campaign cell."""
    campaign, fault_type, rate, cell_seed = task
    return campaign._run_cell(fault_type, rate, cell_seed)


def run_smoke_campaign(seed: int = 1) -> CampaignReport:
    """The small deterministic campaign CI runs on every push."""
    return FaultCampaign(operations=40, seed=seed, working_set_lines=12).run()
