"""Full-system simulation: core + cache hierarchy + secure memory controller.

Two ways to run a workload:

* **Single-phase** (:class:`SecureSystem`) — drive every access through the
  hierarchy and controller in lock-step.  Supports *functional* mode, where
  line data really is encrypted/decrypted and checked against a plaintext
  shadow image on every fetch (the strongest end-to-end correctness check).
* **Two-phase** (:func:`collect_miss_trace` then :func:`replay_miss_trace`)
  — simulate the cache hierarchy once per (workload, L2 size) to extract
  the scheme-independent L2 miss/write-back stream, then replay that stream
  through each security scheme.  This is exact for our models (no scheme
  changes the miss stream — OTP prediction adds no memory traffic, one of
  its selling points over pre-decryption, Section 9.2) and is what makes the
  14-benchmark x many-scheme sweeps of the paper's figures tractable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from repro.cpu.core import CoreConfig, RunMetrics
from repro.cpu.engine import resolve_backend
from repro.cpu.trace import AccessTrace, MemoryAccess
from repro.memory.address import AddressMap, DEFAULT_ADDRESS_MAP
from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.secure.controller import SecureMemoryController
from repro.telemetry.profile import profile_scope

__all__ = [
    "MissEvent",
    "MissTrace",
    "collect_miss_trace",
    "replay_miss_trace",
    "FunctionalMismatchError",
    "SecureSystem",
]


class MissEvent(NamedTuple):
    """One L2-boundary event: optional fetches plus resulting write-backs.

    A tuple rather than a frozen dataclass: the filter builds one per L2
    miss, and the replay compiler transposes the events into columns with
    one ``zip``.
    """

    gap_instructions: int
    gap_l2_hits: int
    fetch_addresses: tuple[int, ...]
    writeback_addresses: tuple[int, ...]


@dataclass(frozen=True)
class MissTrace:
    """The scheme-independent stream of off-chip events for one workload."""

    events: tuple[MissEvent, ...]
    total_instructions: int
    total_references: int
    l1_hits: int
    l2_hits: int
    l2_misses: int

    @property
    def miss_rate(self) -> float:
        if not self.total_references:
            return 0.0
        return self.l2_misses / self.total_references

    @property
    def misses_per_kilo_instruction(self) -> float:
        if not self.total_instructions:
            return 0.0
        return 1000.0 * self.l2_misses / self.total_instructions

    def publish(self, registry, prefix: str = "memory.hierarchy") -> None:
        """Export the hierarchy-level outcome of the trace under ``prefix``.

        The filter's per-set state is discarded once the trace is
        collected (and cached traces never had any in-process), so cell
        snapshots publish the cache behaviour from this summary rather
        than from per-level tag arrays.
        """
        registry.counter(f"{prefix}.references").inc(self.total_references)
        registry.counter(f"{prefix}.instructions").inc(self.total_instructions)
        registry.counter(f"{prefix}.l1_hits").inc(self.l1_hits)
        registry.counter(f"{prefix}.l2_hits").inc(self.l2_hits)
        registry.counter(f"{prefix}.l2_misses").inc(self.l2_misses)
        registry.gauge(f"{prefix}.miss_rate").set(self.miss_rate)
        registry.gauge(f"{prefix}.mpki").set(self.misses_per_kilo_instruction)


def collect_miss_trace(
    trace: AccessTrace | Iterable[MemoryAccess],
    hierarchy_config: HierarchyConfig | None = None,
    flush_interval_instructions: int | None = None,
) -> MissTrace:
    """Filter ``trace`` through L1I + L1D + unified L2, recording off-chip events.

    The same write-back, write-allocate, inclusive LRU hierarchy as
    :class:`~repro.memory.hierarchy.MemoryHierarchy`, run as one loop over
    flat per-set state: each level is a list of per-set dicts holding the
    resident line numbers in LRU order (a hit moves its line to the end;
    the victim is the first), plus a set of the level's dirty lines.  An
    L2 entry's value is its insertion number, the order the periodic flush
    walks a set in.  No per-access result objects are built; events go
    straight into the :class:`MissTrace`.

    Inclusion makes every L1 line an L2 line, so a dirty L1 victim just
    marks its L2 copy dirty, and an L2 victim leaves both L1s (a dirty L1D
    copy makes it a write-back even if the L2 copy was clean).

    ``flush_interval_instructions`` models the periodic OS-induced dirty
    flush of Section 5.1 (the paper flushes every 25M cycles; we key the
    interval off instructions so the event stream stays scheme-independent).
    The flush folds L1D's dirty lines into L2, then writes back L2's dirty
    lines set by set, each set in insertion order.
    """
    config = hierarchy_config or HierarchyConfig()
    if config.line_bytes != DEFAULT_ADDRESS_MAP.line_bytes:
        raise ValueError(
            f"hierarchy line size {config.line_bytes} does not match "
            f"address map line size {DEFAULT_ADDRESS_MAP.line_bytes}"
        )
    trace = AccessTrace.from_accesses(trace)
    shift = config.line_bytes.bit_length() - 1
    levels = []
    for name, size, ways in (
        ("l1i", config.l1i_size, config.l1_associativity),
        ("l1d", config.l1d_size, config.l1_associativity),
        ("l2", config.l2_size, config.l2_associativity),
    ):
        geometry = CacheConfig(size, config.line_bytes, ways, name)
        levels.append(([{} for _ in range(geometry.num_sets)], geometry.num_sets - 1))
    (i_sets, i_mask), (d_sets, d_mask), (l2_sets, l2_mask) = levels
    l1_ways, l2_ways = config.l1_associativity, config.l2_associativity
    i_dirty: set[int] = set()
    d_dirty: set[int] = set()
    l2_dirty: set[int] = set()

    events: list[MissEvent] = []
    append_event = events.append
    no_lines: tuple[int, ...] = ()
    gap_instructions = 0
    gap_l2_hits = 0
    total_instructions = 0
    l1_hits = 0
    l2_hits = 0
    l2_misses = 0
    flush_every = flush_interval_instructions or 0
    next_flush = flush_every

    for address, write, instruction, gap in zip(
        trace.addresses, trace.writes, trace.instructions, trace.gaps
    ):
        gap_instructions += gap
        total_instructions += gap

        if flush_every and total_instructions >= next_flush:
            next_flush += flush_every
            if d_dirty:
                l2_dirty |= d_dirty
                d_dirty.clear()
            if l2_dirty:
                flushed = []
                for index in sorted({line & l2_mask for line in l2_dirty}):
                    l2_set = l2_sets[index]
                    flushed.extend(
                        line << shift
                        for line in sorted(l2_set, key=l2_set.__getitem__)
                        if line in l2_dirty
                    )
                l2_dirty.clear()
                append_event(
                    MissEvent(gap_instructions, gap_l2_hits, no_lines, tuple(flushed))
                )
                gap_instructions = 0
                gap_l2_hits = 0

        line = address >> shift
        if instruction:
            l1_set = i_sets[line & i_mask]
            l1_dirty = i_dirty
        else:
            l1_set = d_sets[line & d_mask]
            l1_dirty = d_dirty
        if line in l1_set:
            l1_set[line] = l1_set.pop(line)
            if write:
                l1_dirty.add(line)
            l1_hits += 1
            continue
        if len(l1_set) >= l1_ways:
            victim = next(iter(l1_set))
            del l1_set[victim]
            if victim in l1_dirty:
                l1_dirty.remove(victim)
                l2_dirty.add(victim)
        l1_set[line] = None
        if write:
            l1_dirty.add(line)

        l2_set = l2_sets[line & l2_mask]
        if line in l2_set:
            l2_set[line] = l2_set.pop(line)
            if write:
                l2_dirty.add(line)
            l2_hits += 1
            gap_l2_hits += 1
            continue
        writeback = no_lines
        if len(l2_set) >= l2_ways:
            victim = next(iter(l2_set))
            del l2_set[victim]
            i_sets[victim & i_mask].pop(victim, None)
            i_dirty.discard(victim)
            d_sets[victim & d_mask].pop(victim, None)
            if victim in d_dirty:
                d_dirty.remove(victim)
                l2_dirty.add(victim)
            if victim in l2_dirty:
                l2_dirty.remove(victim)
                writeback = (victim << shift,)
        l2_set[line] = l2_misses
        l2_misses += 1
        if write:
            l2_dirty.add(line)
        append_event(MissEvent(gap_instructions, gap_l2_hits, (line << shift,), writeback))
        gap_instructions = 0
        gap_l2_hits = 0

    return MissTrace(
        events=tuple(events),
        total_instructions=total_instructions,
        total_references=len(trace),
        l1_hits=l1_hits,
        l2_hits=l2_hits,
        l2_misses=l2_misses,
    )


def replay_miss_trace(
    miss_trace: MissTrace,
    controller: SecureMemoryController,
    core: CoreConfig | None = None,
    scheme: str = "unnamed",
    on_fetch=None,
    backend: str | None = None,
    hook_interval: int = 0,
) -> RunMetrics:
    """Replay an off-chip event stream through one security scheme.

    Dispatches to a replay backend from :mod:`repro.cpu.engine` —
    ``backend`` names one explicitly, otherwise ``$REPRO_REPLAY_BACKEND``
    or the default (the batched core) decides.  Every backend produces
    bit-identical results; they differ only in speed.

    ``on_fetch``, when given, is called with the cumulative fetch count —
    the hook :mod:`repro.experiments.runner` uses to spill periodic
    telemetry snapshots (``SnapshotSeries``) without the replay loop
    knowing anything about registries.  ``hook_interval`` tells batched
    backends the coarsest schedule the caller needs: > 0 promises the
    caller only acts every ``hook_interval`` fetches, so the hook is
    called exactly at those multiples; 0 (the default) keeps per-fetch
    calls.
    """
    return resolve_backend(backend).replay(
        miss_trace,
        controller,
        core=core,
        scheme=scheme,
        on_fetch=on_fetch,
        hook_interval=hook_interval,
    )


class FunctionalMismatchError(Exception):
    """Decrypted line data did not match the plaintext shadow image."""


class SecureSystem:
    """Single-phase simulator (optionally with real end-to-end crypto).

    In functional mode the system maintains a plaintext *shadow image* of
    memory: every CPU store deterministically rewrites its line's image, the
    dirty-eviction path encrypts the image through the real AES pipeline,
    and every L2 miss decrypts what is in the untrusted backing store and
    compares it against the image.  A single bit of state mishandled
    anywhere — counters, roots, pads, MAC tree — surfaces as a
    :class:`FunctionalMismatchError` or an integrity failure.
    """

    def __init__(
        self,
        controller: SecureMemoryController | None = None,
        hierarchy: MemoryHierarchy | None = None,
        core: CoreConfig | None = None,
        functional_key: bytes | None = None,
        address_map: AddressMap = DEFAULT_ADDRESS_MAP,
    ):
        self.address_map = address_map
        if controller is None:
            controller = SecureMemoryController(
                key=functional_key, address_map=address_map
            )
        self.controller = controller
        self.hierarchy = hierarchy or MemoryHierarchy(address_map=address_map)
        self.core = core or CoreConfig()
        self.cycle = 0.0
        self._image: dict[int, bytes] = {}
        self._write_serial = 0

    @property
    def functional(self) -> bool:
        """True when real crypto + shadow-image checking is active."""
        return self.controller.functional

    def _image_line(self, line: int) -> bytes:
        return self._image.get(line, bytes(self.address_map.line_bytes))

    def _mutate_image(self, line: int) -> None:
        """Deterministically rewrite a line's plaintext on a CPU store."""
        self._write_serial += 1
        seed = (line * 0x9E3779B97F4A7C15 + self._write_serial) & ((1 << 64) - 1)
        pattern = seed.to_bytes(8, "big")
        repeats = self.address_map.line_bytes // 8
        self._image[line] = pattern * repeats

    def access(self, access: MemoryAccess):
        """Run one access end-to-end; returns the hierarchy outcome."""
        self.cycle += access.gap_instructions / self.core.issue_width
        line = self.address_map.line_address(access.address)
        outcome = self.hierarchy.access(
            access.address,
            is_write=access.is_write,
            is_instruction=access.is_instruction,
        )
        if not outcome.l1_hit:
            if outcome.l2_hit:
                self.cycle += self.core.l2_hit_penalty
            else:
                for address in outcome.fetched_lines:
                    result = self.controller.fetch_line(int(self.cycle), address)
                    if self.functional:
                        # Write-allocate: the fill must match the image as it
                        # was *before* this store merges its new data.
                        expected = self._image_line(address)
                        if result.plaintext != expected:
                            raise FunctionalMismatchError(
                                f"line {address:#x}: decrypted data does not "
                                f"match the shadow image (seqnum {result.seqnum})"
                            )
                    stall = (result.data_ready - self.cycle) * (
                        1.0 - self.core.miss_overlap
                    )
                    if stall > 0:
                        self.cycle += stall
                for address in outcome.writeback_lines:
                    plaintext = self._image_line(address) if self.functional else None
                    self.controller.writeback_line(int(self.cycle), address, plaintext)
        if self.functional and access.is_write:
            self._mutate_image(line)
        return outcome

    def run(self, trace: Iterable[MemoryAccess]) -> "SecureSystem":
        """Run a whole trace; returns self for chaining."""
        with profile_scope("sim.secure_system_run"):
            for access in trace:
                self.access(access)
        return self

    def flush(self) -> int:
        """Flush all dirty lines through the encrypted write-back path."""
        lines = self.hierarchy.flush_dirty()
        for address in lines:
            plaintext = self._image_line(address) if self.functional else None
            self.controller.writeback_line(int(self.cycle), address, plaintext)
        return len(lines)
