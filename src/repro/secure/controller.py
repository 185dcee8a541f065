"""Secure memory controller: the protected-domain boundary of Figure 2.

Every L2 miss and every dirty L2 eviction crosses this controller.  It owns
the whole decryption-latency story the paper is about:

* **fetch** — issue the pipelined (sequence number, encrypted line) DRAM
  read; meanwhile either (a) do nothing (baseline), (b) probe the
  sequence-number cache (prior art), or (c) push speculative pad
  computations for the predictor's guesses through the idle crypto engine
  (this paper).  When the true sequence number lands, a matching guess means
  the pad is already (or nearly) ready and decryption is one XOR.
* **write-back** — advance the line's sequence number (increment, or rebase
  onto the current root after a reset, Section 3.2's distance test),
  generate the fresh pad, encrypt, and update counter + MAC tree in RAM.
  With the MAC tree on, the line's stored (counter, ciphertext) is verified
  first, so an adversary who rolls a counter back cannot make the
  write-back reuse a pad.

The controller runs in one of two modes sharing the identical control path:
*timing-only* (no key) tracks when data would be ready; *functional* (with a
key) additionally performs real AES pad generation, line encryption,
integrity verification, and pad-reuse auditing.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, field

from repro.crypto.engine import CryptoEngine
from repro.memory.address import AddressMap, DEFAULT_ADDRESS_MAP
from repro.memory.backing import BackingStore
from repro.memory.bus import MemoryBus
from repro.memory.dram import Dram
from repro.secure.errors import (
    CounterOverflowError,
    FetchFailedError,
    IntegrityError,
    TamperDetectedError,
)
from repro.secure.integrity import IntegrityTree
from repro.secure.otp import OtpGenerator, blocks_per_line
from repro.secure.predictors import (
    ContextOtpPredictor,
    NullPredictor,
    OtpPredictor,
    RangePredictionTable,
    RegularOtpPredictor,
    TwoLevelOtpPredictor,
)
from repro.secure.seqcache import SequenceNumberCache
from repro.secure.seqnum import PageSecurityTable
from repro.secure.threat import PadReuseAuditor
from repro.telemetry.events import NULL_TRACER
from repro.telemetry.registry import DEFAULT_LATENCY_BOUNDS

__all__ = [
    "FetchClass",
    "FetchResult",
    "WritebackResult",
    "RecoveryPolicy",
    "ResilienceStats",
    "ControllerStats",
    "SecureMemoryController",
]

_MASK64 = (1 << 64) - 1


class FetchClass(enum.Enum):
    """Fig. 9 classification of how a fetch's sequence number was covered."""

    BOTH = "both"              # in the seqnum cache AND predictable
    PRED_ONLY = "pred_only"    # missed the cache but predicted
    CACHE_ONLY = "cache_only"  # cached but not predictable
    NEITHER = "neither"


@dataclass(frozen=True)
class FetchResult:
    """Timing and (in functional mode) data outcome of one line fetch."""

    address: int
    seqnum: int
    issue_time: int
    seqnum_ready: int
    line_ready: int
    pad_ready: int
    data_ready: int
    predicted: bool
    seqcache_hit: bool
    fetch_class: FetchClass
    plaintext: bytes | None = None

    @property
    def exposed_latency(self) -> int:
        """Cycles from issue until the decrypted line is usable."""
        return self.data_ready - self.issue_time

    @property
    def decryption_overhead(self) -> int:
        """Cycles the crypto path added beyond the raw memory fetch."""
        return self.data_ready - self.line_ready


@dataclass(frozen=True)
class WritebackResult:
    """Outcome of one encrypted write-back."""

    address: int
    seqnum: int
    completion_time: int
    rebased: bool
    reencrypted_page: bool = False    # write-back triggered a page re-encryption


@dataclass(frozen=True)
class RecoveryPolicy:
    """How the controller responds when the pipeline faults.

    Parameters
    ----------
    max_retries:
        Bounded re-fetch attempts after an integrity failure or a dropped
        DRAM response before the fetch is abandoned.
    backoff_base_cycles / backoff_multiplier / backoff_cap_cycles:
        Cycle-modeled exponential backoff: retry *n* waits
        ``base * multiplier**(n-1)`` cycles before re-issuing the fetch,
        clamped to ``backoff_cap_cycles`` when a cap is set (``None``
        leaves the growth unbounded, the historical behavior).
    degrade_after_faults:
        Consecutive unrecovered pipeline faults that trip graceful
        degradation: speculation is disabled and fetches fall back to the
        demand / sequence-number-cache path until
        :meth:`SecureMemoryController.restore_speculation` is called.
    reencrypt_on_overflow:
        Respond to counter saturation by re-encrypting the page under a
        fresh root instead of raising :class:`CounterOverflowError`.
    """

    max_retries: int = 2
    backoff_base_cycles: int = 200
    backoff_multiplier: int = 2
    backoff_cap_cycles: int | None = None
    degrade_after_faults: int = 8
    reencrypt_on_overflow: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base_cycles < 0:
            raise ValueError(
                f"backoff_base_cycles must be >= 0, got {self.backoff_base_cycles}"
            )
        if self.backoff_multiplier < 1:
            raise ValueError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if self.backoff_cap_cycles is not None and self.backoff_cap_cycles < 0:
            raise ValueError(
                f"backoff_cap_cycles must be >= 0, got {self.backoff_cap_cycles}"
            )
        if self.degrade_after_faults < 1:
            raise ValueError(
                f"degrade_after_faults must be >= 1, got {self.degrade_after_faults}"
            )

    def backoff_cycles(self, attempt: int) -> int:
        """Backoff before retry ``attempt`` (1-based), clamped to any cap.

        Grown iteratively with an early exit at the cap so huge attempt
        numbers stay cheap — ``multiplier ** attempt`` would build a
        thousands-of-bits integer before the clamp could discard it.
        """
        cap = self.backoff_cap_cycles
        if self.backoff_base_cycles == 0 or self.backoff_multiplier == 1:
            wait = self.backoff_base_cycles
            return wait if cap is None else min(wait, cap)
        wait = self.backoff_base_cycles
        for _ in range(attempt - 1):
            wait *= self.backoff_multiplier
            if cap is not None and wait >= cap:
                return cap
        return wait if cap is None else min(wait, cap)


@dataclass
class ResilienceStats:
    """Fault / recovery counters (part of :class:`ControllerStats`)."""

    integrity_faults: int = 0         # IntegrityError raised by the substrate
    dram_faults: int = 0              # dropped DRAM responses observed
    retries: int = 0                  # re-fetches issued by the policy
    recovered_fetches: int = 0        # fetches that succeeded after >=1 retry
    failed_fetches: int = 0           # fetches abandoned after retry exhaustion
    quarantined_lines: int = 0        # lines moved to the quarantine set
    counter_overflows: int = 0        # saturated counters detected on write-back
    pages_reencrypted: int = 0        # overflow responses under a fresh root
    degrade_events: int = 0           # times speculation was disabled

    def as_dict(self) -> dict[str, int]:
        """Machine-readable snapshot for reports."""
        return {
            "integrity_faults": self.integrity_faults,
            "dram_faults": self.dram_faults,
            "retries": self.retries,
            "recovered_fetches": self.recovered_fetches,
            "failed_fetches": self.failed_fetches,
            "quarantined_lines": self.quarantined_lines,
            "counter_overflows": self.counter_overflows,
            "pages_reencrypted": self.pages_reencrypted,
            "degrade_events": self.degrade_events,
        }


@dataclass
class ControllerStats:
    """Controller-level counters (predictor/cache substructures keep their own)."""

    fetches: int = 0
    writebacks: int = 0
    rebased_writebacks: int = 0
    covered_fetches: int = 0          # pad path overlapped with the fetch
    class_counts: dict = field(
        default_factory=lambda: {kind: 0 for kind in FetchClass}
    )
    total_exposed_latency: int = 0
    total_decryption_overhead: int = 0
    resilience: ResilienceStats = field(default_factory=ResilienceStats)
    # Bucketed exposed-latency distribution (bounds: DEFAULT_LATENCY_BOUNDS
    # plus one overflow bucket), fed by record_fetch_latency.
    exposed_latency_counts: list = field(
        default_factory=lambda: [0] * (len(DEFAULT_LATENCY_BOUNDS) + 1)
    )

    @property
    def coverage(self) -> float:
        """Fraction of fetches whose pad generation overlapped the fetch."""
        return self.covered_fetches / self.fetches if self.fetches else 0.0

    @property
    def mean_exposed_latency(self) -> float:
        """Average cycles from miss issue to usable data."""
        return self.total_exposed_latency / self.fetches if self.fetches else 0.0

    def record_fetch_latency(self, exposed: int, overhead: int) -> None:
        """Accumulate one fetch's latency totals and histogram bucket."""
        self.total_exposed_latency += exposed
        self.total_decryption_overhead += overhead
        self.exposed_latency_counts[
            bisect_right(DEFAULT_LATENCY_BOUNDS, exposed)
        ] += 1

    def absorb(
        self,
        fetches: int = 0,
        writebacks: int = 0,
        rebased_writebacks: int = 0,
        covered_fetches: int = 0,
        class_both: int = 0,
        class_pred_only: int = 0,
        class_cache_only: int = 0,
        class_neither: int = 0,
        exposed_latency: int = 0,
        decryption_overhead: int = 0,
        exposed_latency_counts: list | None = None,
    ) -> None:
        """Fold a batch of fetches/write-backs into the counters.

        Batch entry point for the batched replay core, which accumulates
        per-epoch deltas instead of bumping these fields per reference.
        ``exposed_latency_counts`` must align bucket-for-bucket with this
        object's histogram (``DEFAULT_LATENCY_BOUNDS`` plus overflow).
        """
        self.fetches += fetches
        self.writebacks += writebacks
        self.rebased_writebacks += rebased_writebacks
        self.covered_fetches += covered_fetches
        self.class_counts[FetchClass.BOTH] += class_both
        self.class_counts[FetchClass.PRED_ONLY] += class_pred_only
        self.class_counts[FetchClass.CACHE_ONLY] += class_cache_only
        self.class_counts[FetchClass.NEITHER] += class_neither
        self.total_exposed_latency += exposed_latency
        self.total_decryption_overhead += decryption_overhead
        if exposed_latency_counts is not None:
            counts = self.exposed_latency_counts
            for index, count in enumerate(exposed_latency_counts):
                counts[index] += count

    def publish(self, registry, prefix: str = "secure.controller") -> None:
        """Export these counters into a telemetry registry under ``prefix``."""
        registry.counter(f"{prefix}.fetches").inc(self.fetches)
        registry.counter(f"{prefix}.writebacks").inc(self.writebacks)
        registry.counter(f"{prefix}.rebased_writebacks").inc(
            self.rebased_writebacks
        )
        registry.counter(f"{prefix}.covered_fetches").inc(self.covered_fetches)
        for kind, count in self.class_counts.items():
            registry.counter(f"{prefix}.class.{kind.value}").inc(count)
        registry.counter(f"{prefix}.exposed_latency_cycles").inc(
            self.total_exposed_latency
        )
        registry.counter(f"{prefix}.decryption_overhead_cycles").inc(
            self.total_decryption_overhead
        )
        registry.gauge(f"{prefix}.coverage").set(self.coverage)
        registry.gauge(f"{prefix}.mean_exposed_latency").set(
            self.mean_exposed_latency
        )
        registry.histogram(f"{prefix}.exposed_latency").load(
            self.exposed_latency_counts,
            float(self.total_exposed_latency),
            sum(self.exposed_latency_counts),
        )
        for name, value in self.resilience.as_dict().items():
            registry.counter(f"{prefix}.resilience.{name}").inc(value)


class SecureMemoryController:
    """Counter-mode memory encryption engine-room.

    Parameters
    ----------
    predictor:
        An :class:`~repro.secure.predictors.OtpPredictor`; defaults to the
        never-speculating :class:`~repro.secure.predictors.NullPredictor`.
    seqcache:
        Optional :class:`~repro.secure.seqcache.SequenceNumberCache` (prior
        art); may be combined with a predictor (Section 6.1 / Fig. 9).
    oracle:
        If True, pretend every sequence number is on-chip (the
        normalization target of the IPC figures).
    key:
        Enable functional mode: real AES pads, encryption of line data in
        the backing store, integrity tree, pad-reuse auditing.
    pad_buffer_entries:
        Capacity of the precomputed-pad table of Figure 5, in AES blocks.
        Guess lists that would overflow it are truncated.
    recovery:
        Optional :class:`RecoveryPolicy`.  Without one the controller keeps
        its historical fail-fast behavior (integrity failures and counter
        saturation propagate immediately); with one, faults are retried
        with backoff, persistent offenders are quarantined, and counter
        overflow triggers a page re-encryption.
    tracer:
        Optional :class:`~repro.telemetry.events.EventTracer`; when
        attached, every fetch and write-back emits cycle-stamped spans
        (dram / crypto / controller tracks) for Chrome-trace export.
    """

    def __init__(
        self,
        engine: CryptoEngine | None = None,
        dram: Dram | None = None,
        page_table: PageSecurityTable | None = None,
        predictor: OtpPredictor | None = None,
        seqcache: SequenceNumberCache | None = None,
        oracle: bool = False,
        address_map: AddressMap = DEFAULT_ADDRESS_MAP,
        key: bytes | None = None,
        integrity: bool = False,
        pad_buffer_entries: int = 64,
        backing: BackingStore | None = None,
        recovery: RecoveryPolicy | None = None,
        tracer=None,
    ):
        self.engine = engine if engine is not None else CryptoEngine()
        self.dram = dram if dram is not None else Dram()
        # `is not None` rather than `or`: several of these types define
        # __len__, so freshly built (empty) instances are falsy.
        self.page_table = (
            page_table if page_table is not None else PageSecurityTable()
        )
        self.predictor = (
            predictor if predictor is not None else NullPredictor(self.page_table)
        )
        if self.predictor.table is not self.page_table:
            raise ValueError("predictor must share the controller's page table")
        self.seqcache = seqcache
        self.oracle = oracle
        self.address_map = address_map
        self.backing = backing if backing is not None else BackingStore(address_map)
        self.stats = ControllerStats()
        self.blocks = blocks_per_line(address_map.line_bytes)
        if pad_buffer_entries < self.blocks:
            raise ValueError(
                f"pad buffer must hold at least one line's pads "
                f"({self.blocks} blocks), got {pad_buffer_entries}"
            )
        self.max_guesses = pad_buffer_entries // self.blocks
        self.recovery = recovery
        # Cycle-stamped span sink; the shared null tracer answers
        # ``enabled`` False so the hot path pays one attribute check.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.quarantine: set[int] = set()
        self.degraded = False
        self._consecutive_faults = 0

        self.functional = key is not None
        self.otp: OtpGenerator | None = None
        self.integrity_tree: IntegrityTree | None = None
        self.auditor: PadReuseAuditor | None = None
        if self.functional:
            self.otp = OtpGenerator(key, line_bytes=address_map.line_bytes)
            self.auditor = PadReuseAuditor()
            if integrity:
                # Domain-separate the MAC key from the encryption key.
                self.integrity_tree = IntegrityTree(
                    key + b"integrity", address_map=address_map
                )
        elif integrity:
            raise ValueError("integrity tree requires functional mode (a key)")

    # -- telemetry ---------------------------------------------------------------

    @property
    def tracer(self):
        """The event tracer shared by the whole protected-domain pipeline."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        # Propagate to the engine and DRAM so their counter tracks (pipeline
        # occupancy, outstanding fetches) land in the same ring buffer; the
        # runner attaches a tracer *after* construction, so this setter is
        # the single attachment point.
        self._tracer = tracer
        self.engine.tracer = tracer
        self.dram.tracer = tracer

    def publish_telemetry(self, registry) -> None:
        """Export the whole protected-domain pipeline into ``registry``.

        One call covers every stat island the controller owns or drives:
        controller counters (with resilience and the exposed-latency
        histogram), crypto engine, predictor, DRAM, and — when present —
        the sequence-number cache and the functional pad memo.
        """
        self.stats.publish(registry)
        self.engine.stats.publish(registry)
        self.predictor.stats.publish(registry)
        self.dram.stats.publish(registry)
        if self.seqcache is not None:
            self.seqcache.publish(registry)
        if self.otp is not None:
            self.otp.pad_cache.stats.publish(registry)

    def batched_replay_supported(self) -> bool:
        """Whether the batched replay core can drive this controller exactly.

        The batched core (:mod:`repro.cpu.engine`) inlines the timing
        arithmetic of this controller and its substrate objects, so it is
        only exact when every one of them is the stock timing-model class
        in its plain state.  Anything it cannot express bit-identically —
        functional crypto, an attached tracer, recovery degradation,
        quarantined lines, fault-injector proxies, subclassed components —
        answers False here and is replayed on the reference path instead.
        A :class:`RecoveryPolicy` by itself is fine: the stock substrate
        never faults, so only the overflow clause can trigger, and the
        batched core delegates saturated write-backs to
        :meth:`writeback_line`.

        The batched core runs prediction in closed form and never calls
        the predictor, so the predictor must be one it writes out: a
        stock null, regular, two-level (with a stock range table) or
        context predictor, the last two without root history.
        """
        predictor = self.predictor
        kind = type(predictor)
        return (
            type(self) is SecureMemoryController
            and not self.functional
            and not self.degraded
            and not self.quarantine
            and not self.tracer.enabled
            and type(self.engine) is CryptoEngine
            and type(self.dram) is Dram
            and type(self.dram.bus) is MemoryBus
            and type(self.backing) is BackingStore
            and type(self.page_table) is PageSecurityTable
            and (
                self.seqcache is None
                or type(self.seqcache) is SequenceNumberCache
            )
            and (
                kind is NullPredictor
                or kind is RegularOtpPredictor
                or (kind is ContextOtpPredictor and not predictor.use_root_history)
                or (
                    kind is TwoLevelOtpPredictor
                    and not predictor.use_root_history
                    and type(predictor.range_table) is RangePredictionTable
                )
            )
        )

    # -- sequence-number state -------------------------------------------------

    def current_seqnum(self, line_address: int) -> int:
        """The counter RAM currently holds for this line.

        A line never written back still holds the value installed at page
        mapping: the page's mapping-time root.
        """
        stored = self.backing.read_seqnum(line_address)
        if stored is not None:
            return stored
        page = self.address_map.page_number(line_address)
        return self.page_table.state(page).mapping_root

    # -- resilience --------------------------------------------------------------

    @property
    def resilience(self) -> ResilienceStats:
        """Fault/recovery counters (alias for ``stats.resilience``)."""
        return self.stats.resilience

    def restore_speculation(self) -> None:
        """Re-enable speculation after graceful degradation."""
        self.degraded = False
        self._consecutive_faults = 0

    def _note_fault(self) -> None:
        """Record one unrecovered pipeline fault; maybe trip degradation."""
        self._consecutive_faults += 1
        if (
            self.recovery is not None
            and not self.degraded
            and self._consecutive_faults >= self.recovery.degrade_after_faults
        ):
            self.degraded = True
            self.stats.resilience.degrade_events += 1

    def _note_recovery(self) -> None:
        """A faulting fetch ultimately succeeded."""
        self.stats.resilience.recovered_fetches += 1
        self._consecutive_faults = 0

    def _dram_fetch(self, now: int, line: int):
        """Issue the DRAM round trip, retrying dropped responses.

        Returns ``(timing, attempts_used)``; raises
        :class:`FetchFailedError` once the policy's retry budget is spent
        (or immediately without a policy).
        """
        attempt = 0
        while True:
            try:
                timing = self.dram.fetch_line_with_seqnum(
                    now, line, self.address_map.line_bytes
                )
                return timing, attempt
            except FetchFailedError as err:
                self.stats.resilience.dram_faults += 1
                self._note_fault()
                if self.recovery is None or attempt >= self.recovery.max_retries:
                    self.stats.resilience.failed_fetches += 1
                    raise FetchFailedError(
                        f"line {line:#x}: DRAM response dropped "
                        f"{attempt + 1} time(s)",
                        line_address=line,
                        attempts=attempt + 1,
                        cause=err,
                    ) from err
                attempt += 1
                self.stats.resilience.retries += 1
                now += self.recovery.backoff_cycles(attempt)

    # -- fetch path --------------------------------------------------------------

    def fetch_line(self, now: int, address: int) -> FetchResult:
        """Handle an L2 miss: fetch, (maybe) speculate, decrypt, recover."""
        line = self.address_map.line_address(address)
        if line in self.quarantine:
            raise FetchFailedError(
                f"line {line:#x} is quarantined after repeated integrity "
                f"failures",
                line_address=line,
                attempts=0,
                quarantined=True,
            )
        page = self.address_map.page_number(line)
        timing, dram_retries = self._dram_fetch(now, line)
        actual = self.current_seqnum(line)

        cache_hit = self.seqcache.lookup(line) if self.seqcache else False

        predicted = False
        guesses: list[int] = []
        # Graceful degradation: with speculation disabled the fetch falls
        # back to the demand / sequence-number-cache path.
        if (
            not self.oracle
            and not self.degraded
            and not isinstance(self.predictor, NullPredictor)
        ):
            guesses = self.predictor.predict(page, line)[: self.max_guesses]
            predicted = self.predictor.record(guesses, actual)

        pad_ready = self._schedule_pads(
            now, timing.seqnum_ready, cache_hit, guesses, actual
        )
        if self.functional and guesses and self.otp.memo_enabled:
            # Functional counterpart of the speculative issue slots above:
            # the whole candidate set (depth x blocks per line) goes through
            # one batched AES call and lands in the pad memo, so the decrypt
            # below — and any later fetch whose counter a guess anticipated —
            # reuses precomputed pads instead of re-running the cipher.
            self.otp.pads(line, guesses)

        if not self.oracle:
            self.predictor.observe_fetch(page, line, actual, predicted)
        if self.seqcache and not cache_hit:
            self.seqcache.fill(line)

        data_ready = max(timing.line_ready, pad_ready, timing.seqnum_ready)
        retried = False
        if self.functional:
            plaintext, data_ready, retried = self._decrypt_with_recovery(
                line, actual, data_ready
            )
        else:
            plaintext = None
        if dram_retries or retried:
            self._note_recovery()
        else:
            # A clean fetch breaks any run of consecutive faults.
            self._consecutive_faults = 0

        fetch_class = self._classify(cache_hit, predicted)
        self.stats.fetches += 1
        self.stats.class_counts[fetch_class] += 1
        # "Covered" = pad generation overlapped the fetch instead of
        # serializing behind the sequence number's arrival (Figure 4).
        if pad_ready < timing.seqnum_ready + self.engine.latency:
            self.stats.covered_fetches += 1
        self.stats.record_fetch_latency(
            data_ready - now, data_ready - timing.line_ready
        )
        if self.tracer.enabled:
            self._trace_fetch(
                now, timing, pad_ready, data_ready, line, actual,
                fetch_class, predicted, cache_hit, len(guesses),
            )

        return FetchResult(
            address=line,
            seqnum=actual,
            issue_time=now,
            seqnum_ready=timing.seqnum_ready,
            line_ready=timing.line_ready,
            pad_ready=pad_ready,
            data_ready=data_ready,
            predicted=predicted,
            seqcache_hit=cache_hit,
            fetch_class=fetch_class,
            plaintext=plaintext,
        )

    def _schedule_pads(
        self,
        now: int,
        seqnum_ready: int,
        cache_hit: bool,
        guesses: list[int],
        actual: int,
    ) -> int:
        """Drive the crypto engine; returns when the correct pad is ready."""
        blocks = self.blocks
        if self.oracle or cache_hit:
            # Sequence number known on-chip: demand pad generation starts
            # immediately and overlaps the whole memory fetch (Figure 4c,
            # hit case).
            return self.engine.issue(now, blocks, speculative=False)[-1]
        if guesses:
            completions = self.engine.issue(
                now, blocks * len(guesses), speculative=True
            )
            if actual in guesses:
                index = guesses.index(actual)
                return completions[blocks * (index + 1) - 1]
            # All speculation wasted; fall through to the demand path once
            # the true sequence number has arrived (Figure 4b, miss case).
        return self.engine.issue(seqnum_ready, blocks, speculative=False)[-1]

    def _trace_fetch(
        self,
        now: int,
        timing,
        pad_ready: int,
        data_ready: int,
        line: int,
        seqnum: int,
        fetch_class: FetchClass,
        predicted: bool,
        cache_hit: bool,
        guesses: int,
    ) -> None:
        """Emit the Figure 4 timeline of one fetch onto the tracer's tracks."""
        address = f"{line:#x}"
        self.tracer.span(
            "fetch", now, data_ready, track="controller", category="secure",
            address=address, seqnum=seqnum, fetch_class=fetch_class.value,
            predicted=predicted, seqcache_hit=cache_hit,
        )
        self.tracer.span(
            "dram", timing.issue, timing.line_ready, track="dram",
            category="memory", address=address,
        )
        self.tracer.instant(
            "seqnum_ready", timing.seqnum_ready, track="dram",
            category="memory", address=address,
        )
        if guesses:
            pad_name = "speculate" if predicted else "speculate (miss)"
        elif cache_hit or self.oracle:
            pad_name = "demand pad (overlapped)"
        else:
            pad_name = "demand pad"
        pad_start = max(now, pad_ready - self.engine.latency)
        self.tracer.span(
            pad_name, pad_start, pad_ready,
            track="crypto", category="crypto", address=address, guesses=guesses,
        )
        self.tracer.instant(
            "match/xor", data_ready, track="controller", category="secure",
            address=address,
        )
        # Flow arrows stitch this fetch's three acts — miss issue, pad
        # computation, match/XOR — across tracks.  The flow *name* encodes
        # the outcome so mispredicted chains read differently in the viewer.
        if predicted:
            flow_name = "pred hit"
        elif guesses:
            flow_name = "pred miss"
        elif cache_hit or self.oracle:
            flow_name = "seqnum hit"
        else:
            flow_name = "demand"
        flow = self.tracer.next_flow_id()
        self.tracer.flow_begin(
            flow_name, now, flow, track="controller", address=address,
        )
        self.tracer.flow_step(
            flow_name, pad_start, flow, track="crypto", address=address,
        )
        self.tracer.flow_end(
            flow_name, data_ready, flow, track="controller", address=address,
        )
        # Counter tracks: prediction-queue depth, quarantine population,
        # and (when configured) sequence-number-cache occupancy.
        self.tracer.counter(
            "pred.queue_depth", now, track="controller", guesses=guesses,
        )
        self.tracer.counter(
            "secure.quarantined", now, track="controller",
            lines=len(self.quarantine),
        )
        if self.seqcache is not None:
            self.tracer.counter(
                "seqcache.occupancy", now, track="controller",
                lines=self.seqcache.occupancy,
            )

    def _classify(self, cache_hit: bool, predicted: bool) -> FetchClass:
        if cache_hit and predicted:
            return FetchClass.BOTH
        if predicted:
            return FetchClass.PRED_ONLY
        if cache_hit:
            return FetchClass.CACHE_ONLY
        return FetchClass.NEITHER

    def _verify_stored(self, line: int, seqnum: int) -> bytes | None:
        """Authenticate what RAM holds for ``line``; returns its ciphertext.

        A line RAM holds no data for is checked against the empty leaf, so
        whether a line was ever sealed is decided by the tree, not by the
        untrusted store.  ``None`` means the line was never written.
        """
        ciphertext = (
            self.backing.read_line(line) if self.backing.has_line(line) else None
        )
        if self.integrity_tree is not None:
            self.integrity_tree.verify(line, seqnum, ciphertext)
        return ciphertext

    def _decrypt(self, line: int, seqnum: int) -> bytes:
        assert self.otp is not None
        ciphertext = self._verify_stored(line, seqnum)
        if ciphertext is None:
            # Fresh (never written) line: defined to read as zeros.
            return bytes(self.address_map.line_bytes)
        return self.otp.open(line, seqnum, ciphertext)

    def _decrypt_with_recovery(
        self, line: int, seqnum: int, data_ready: int
    ) -> tuple[bytes, int, bool]:
        """Decrypt, retrying integrity failures under the recovery policy.

        Each retry models a full re-fetch: exponential backoff, a fresh
        DRAM round trip, and a demand pad regeneration — so the returned
        ``data_ready`` carries the true cycle cost of recovery.  Lines that
        exhaust the retry budget join the quarantine set and the fetch
        raises :class:`FetchFailedError`.

        Returns ``(plaintext, data_ready, retried)``.
        """
        attempt = 0
        while True:
            try:
                plaintext = self._decrypt(line, seqnum)
                return plaintext, data_ready, attempt > 0
            except IntegrityError as err:
                self.stats.resilience.integrity_faults += 1
                self._note_fault()
                if self.recovery is None:
                    raise
                if attempt >= self.recovery.max_retries:
                    self.quarantine.add(line)
                    self.stats.resilience.quarantined_lines += 1
                    self.stats.resilience.failed_fetches += 1
                    raise FetchFailedError(
                        f"line {line:#x}: integrity failure persisted through "
                        f"{attempt + 1} attempt(s); line quarantined",
                        line_address=line,
                        attempts=attempt + 1,
                        quarantined=True,
                        cause=err,
                    ) from err
                attempt += 1
                self.stats.resilience.retries += 1
                retry_at = data_ready + self.recovery.backoff_cycles(attempt)
                # The re-fetch itself may hit dropped responses; _dram_fetch
                # applies the same bounded-retry discipline to those.
                timing, _ = self._dram_fetch(retry_at, line)
                pad_ready = self.engine.issue(
                    timing.seqnum_ready, self.blocks, speculative=False
                )[-1]
                data_ready = max(timing.line_ready, pad_ready)

    # -- write-back path -----------------------------------------------------------

    def writeback_line(
        self, now: int, address: int, plaintext: bytes | None = None
    ) -> WritebackResult:
        """Handle a dirty L2 eviction: verify, advance counter, encrypt, post write."""
        # Validate *before* any state mutation so a rejected write-back
        # leaves counters, the seqcache and the predictor untouched.
        if self.functional:
            if plaintext is None:
                raise ValueError("functional mode write-back requires plaintext")
            if len(plaintext) != self.address_map.line_bytes:
                raise ValueError(
                    f"plaintext must be {self.address_map.line_bytes} bytes, "
                    f"got {len(plaintext)}"
                )
        line = self.address_map.line_address(address)
        page = self.address_map.page_number(line)
        state = self.page_table.state(page)
        old = self.current_seqnum(line)
        reencrypted = False

        if self.integrity_tree is not None and not self._stored_line_verifies(
            line, old
        ):
            # The counter RAM holds was not the last one sealed (rolled
            # back, corrupted, or the line's data went missing), so it
            # cannot say which counters are fresh.  Seal under a freshly
            # drawn root instead: the paper's rebase onto a new root.
            self.page_table.reset_root(page)
            new_seqnum = state.root
            rebased = True
        elif self.page_table.counts_from_current_root(page, old):
            if old == _MASK64:
                # Saturated counter: one more increment would wrap to a
                # previously used value and reuse a pad.  Never wrap
                # silently — re-encrypt the page under a fresh root, or
                # refuse outright.
                self.stats.resilience.counter_overflows += 1
                if self.recovery is None or not self.recovery.reencrypt_on_overflow:
                    raise CounterOverflowError(
                        f"sequence number for line {line:#x} is saturated; "
                        f"advancing would reuse a pad",
                        line_address=line,
                        page=page,
                        seqnum=old,
                    )
                now = self._reencrypt_page(now, page)
                state = self.page_table.state(page)
                old = self.current_seqnum(line)
                reencrypted = True
            new_seqnum = (old + 1) & _MASK64
            rebased = False
        else:
            # Distance test failed: the line still counts from a pre-reset
            # root; rebase it onto the current root (Section 3.2).
            new_seqnum = state.root
            rebased = True

        if self.functional:
            # Audit the pad before the counter, the seqcache or the
            # predictor move: a reused pad raises with all three untouched.
            assert self.auditor is not None
            self.auditor.on_seal(line, new_seqnum)
        self.backing.write_seqnum(line, new_seqnum)
        if self.seqcache:
            self.seqcache.update(line)
        self.predictor.observe_writeback(page, line, new_seqnum)

        # The write-back is always encrypted under a *new* pad based on the
        # current root (Section 7.3) — demand work on the engine.
        pad_done = self.engine.issue(now, self.blocks, speculative=False)[-1]
        completion = self.dram.write(
            pad_done, line, self.address_map.line_bytes + 8
        )

        if self.functional:
            assert self.otp is not None
            ciphertext = self.otp.seal(line, new_seqnum, plaintext)
            self.backing.write_line(line, ciphertext)
            if self.integrity_tree is not None:
                self.integrity_tree.update(line, new_seqnum, ciphertext)

        self.stats.writebacks += 1
        if rebased:
            self.stats.rebased_writebacks += 1
        if self.tracer.enabled:
            self.tracer.span(
                "writeback", now, completion, track="controller",
                category="secure", address=f"{line:#x}", seqnum=new_seqnum,
                rebased=rebased, reencrypted_page=reencrypted,
            )
        return WritebackResult(
            address=line,
            seqnum=new_seqnum,
            completion_time=completion,
            rebased=rebased,
            reencrypted_page=reencrypted,
        )

    def _stored_line_verifies(self, line: int, seqnum: int) -> bool:
        """Write-back check: does RAM still hold the line as last sealed?

        False when the tree is intact but the line's own counter or
        ciphertext in RAM disagrees with its leaf; the fault is counted in
        ``resilience.integrity_faults``.  When the tree itself fails to
        authenticate (an interior node tampered, or the whole image
        replayed), the error propagates: a path rebuilt from those
        siblings would re-anchor the on-chip root on the adversary's
        nodes and accept stale data for every other line under them.
        """
        try:
            self._verify_stored(line, seqnum)
        except IntegrityError as err:
            self.stats.resilience.integrity_faults += 1
            if isinstance(err, TamperDetectedError) and err.level == 0:
                return False
            raise
        return True

    def _reencrypt_page(self, now: int, page: int) -> int:
        """Re-encrypt every counter-bearing line of ``page`` under a fresh root.

        The overflow response of the recovery policy: decrypt each line
        under its current counter, draw a new random root, and re-seal
        everything starting from it — the page behaves as if freshly
        mapped, and no (address, seqnum) pair repeats.  Returns the cycle
        at which the re-encryption traffic has been issued.
        """
        lines = [
            line
            for line in self.backing.seqnum_lines()
            if self.address_map.page_number(line) == page
        ]
        recovered: list[tuple[int, bytes | None]] = []
        for line in lines:
            ciphertext = None
            if self.functional:
                seqnum = self.current_seqnum(line)
                ciphertext = self._verify_stored(line, seqnum)
            if ciphertext is None:
                recovered.append((line, None))
            else:
                assert self.otp is not None
                recovered.append((line, self.otp.open(line, seqnum, ciphertext)))

        new_root = self.page_table.reset_root(page)
        # Timing: one decrypt + one encrypt pad per line through the demand
        # port, plus the line+counter write traffic.
        if lines:
            now = self.engine.issue(
                now, 2 * self.blocks * len(lines), speculative=False
            )[-1]
        for line, line_plaintext in recovered:
            self.backing.write_seqnum(line, new_root)
            now = self.dram.write(now, line, self.address_map.line_bytes + 8)
            if line_plaintext is not None:
                assert self.otp is not None and self.auditor is not None
                self.auditor.on_seal(line, new_root)
                ciphertext = self.otp.seal(line, new_root, line_plaintext)
                self.backing.write_line(line, ciphertext)
                if self.integrity_tree is not None:
                    self.integrity_tree.update(line, new_root, ciphertext)
        self.stats.resilience.pages_reencrypted += 1
        return now
