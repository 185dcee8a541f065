"""Batched replay core: epoch-vectorized miss-trace simulation engine.

:func:`repro.cpu.system.replay_miss_trace` used to be *the* hot path of the
whole experiment engine: one Python-level method call chain per simulated
memory reference (controller -> DRAM -> bus -> crypto engine), repeated for
every scheme of every grid cell.  This module restructures that loop into
**batched array epochs** behind a small pluggable backend registry:

* ``reference`` — the original per-event loop, calling the live
  :class:`~repro.secure.controller.SecureMemoryController` state machine for
  every fetch and write-back.  Always available, always exact; the identity
  oracle everything else is checked against.
* ``batched`` — the default.  A :class:`MissTrace` is compiled **once** into
  struct-of-arrays form (gap-cycle columns; per-event groups of pre-derived
  line / page / DRAM bank / row coordinates; the *statically known* DRAM
  row-class latency of every access, since the bank-access sequence does
  not depend on timing; prefix sums of every statically determined counter
  — numpy does the bulk array work when importable), then replayed by a
  single tight loop over primitive locals that inlines the controller /
  DRAM / bus / crypto-engine / sequence-number-cache arithmetic exactly,
  and runs every stock predictor in closed form: its guess list is never
  built, and its training (PHV, range table, LOR) runs on the live
  state.  Statistics that depend on dynamic state accumulate in per-epoch
  delta counters; statistics that are pure functions of the trace position
  are recovered from the compile-time prefix sums — both are folded into
  the live stat objects at epoch boundaries through the ``absorb`` batch
  entry points on the stats dataclasses.

**Identity contract.**  For every supported controller the batched core is
*bit-identical* to the reference loop: same ``RunMetrics`` (including the
float ``cycles`` accumulator, reproduced operation-for-operation), same
controller / engine / predictor / DRAM / bus / seqcache statistics, same
range-table entries (in LRU order) and latest-offset register, same RNG
draw order on the page table, same sequence-number RAM contents.
Controllers the tight loop cannot express exactly — functional mode,
attached tracers, recovery-degraded state, fault-injector proxies, the
predecrypting/direct subclasses, predictors other than the stock ones —
are detected via
:meth:`~repro.secure.controller.SecureMemoryController.batched_replay_supported`
and routed to the reference loop, so ``batched`` is always safe to select.

Timing here is a sequential recurrence (each fetch's start depends on the
previous fetch's stall), so the *replay* cannot be cross-fetch vectorized
without changing results; the speedup comes from compiling the trace once,
hoisting every attribute lookup, method call and statically determined
branch out of the inner loop, and batching the bookkeeping.  See DESIGN.md
"Batched replay core".

Backend selection: ``replay_miss_trace(..., backend="batched")``, the
``repro --backend`` CLI flag, or the ``REPRO_REPLAY_BACKEND`` environment
variable (checked on every resolve, so workers inherit it).
"""

from __future__ import annotations

import os
import weakref
from bisect import bisect_right
from itertools import chain, repeat

from repro.cpu.core import CoreConfig, RunMetrics
from repro.secure.controller import FetchClass, SecureMemoryController
from repro.secure.predictors import (
    ContextOtpPredictor,
    NullPredictor,
    RegularOtpPredictor,
    TwoLevelOtpPredictor,
)
from repro.secure.seqnum import DISTANCE_WINDOW
from repro.telemetry.registry import DEFAULT_LATENCY_BOUNDS

try:  # numpy accelerates trace compilation; everything degrades without it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-less installs
    _np = None

__all__ = [
    "BACKEND_ENV",
    "DEFAULT_BACKEND",
    "EPOCH_EVENTS",
    "CompiledTrace",
    "compile_trace",
    "ReplayBackend",
    "ReferenceBackend",
    "BatchedBackend",
    "BACKENDS",
    "register_backend",
    "available_backends",
    "resolve_backend",
]

#: Environment variable consulted when no explicit backend is requested.
BACKEND_ENV = "REPRO_REPLAY_BACKEND"

#: Backend used when neither the caller nor the environment picks one.
DEFAULT_BACKEND = "batched"

#: Events per epoch: statistics deltas are flushed into the live stat
#: objects at least this often, bounding how stale the live counters can be
#: while the tight loop runs.
EPOCH_EVENTS = 4096

_MASK64 = (1 << 64) - 1

# Row access classes (indices into the per-geometry latency table).
_ROW_HIT, _ROW_EMPTY, _ROW_CONFLICT = 0, 1, 2

_EMPTY_GROUP: tuple = ()

# Hit index of a counter that is in no guess window: above any list length.
_NO_HIT = _MASK64 + 1

# The replay's delta counters of one flush window, all zero.
_ZERO_DELTAS = (0,) * 20


# -- trace compilation ---------------------------------------------------------


class CompiledTrace:
    """Struct-of-arrays form of one :class:`MissTrace` for one geometry.

    Everything a replay derives per event from static configuration — and
    everything the DRAM model derives from the *order* of accesses alone —
    is hoisted to compile time:

    * ``steps`` — one flat 8-tuple per *fetch*:
      ``(gap_cycles, gap_hit_cycles, line, page, bank, row, latency,
      writeback_group)``.  ``gap_cycles`` is ``gap_instructions /
      issue_width`` (the exact float the reference loop computes) and
      ``gap_hit_cycles`` is ``gap_l2_hits * l2_hit_penalty``; both are 0
      on the second and later fetches of a multi-fetch event.  ``line`` /
      ``page`` / ``bank`` / ``row`` are the pre-derived address
      coordinates and ``latency`` the access's row-class latency — static
      because banks follow the open-page policy over a statically known
      access sequence.  The event's write-back group (a tuple of the same
      five coordinates per write-back) rides on its *last* fetch, so the
      replay needs no inner per-event loop; events with no fetches at all
      (periodic-flush write-back bursts) appear as one step with ``line``
      set to ``None``.
    * ``acc_banks`` / ``acc_rows`` — the combined per-access bank/row
      sequence (fetches then write-backs of each event, in trace order),
      used to reconstruct live open-row state if a replay ever has to leave
      the statically classified path (counter-overflow delegation).
    * ``cum_hits`` / ``cum_conflicts`` — prefix sums of the row classes
      over that sequence, so the replay recovers exact row-class counters
      for any access span without per-access counting (empties are the
      span length minus the other two).

    The bulk address arithmetic and row classification are numpy-vectorized
    when numpy is importable; all values are materialized as plain Python
    ints either way so the replay loop pays no numpy scalar-boxing cost.
    """

    __slots__ = ("n_steps", "steps", "acc_banks", "acc_rows",
                 "cum_hits", "cum_conflicts")

    def __init__(self, miss_trace, geometry) -> None:
        (line_bytes, page_shift, row_shift, bank_mask,
         lat_hit, lat_empty, lat_conflict, width, penalty) = geometry
        line_mask = ~(line_bytes - 1)
        bank_bits = bank_mask.bit_length()

        # Column extraction stays in C: events are tuples, so one zip
        # transposes them into columns, then itertools flattens the
        # combined access sequence (each event's fetches, then its
        # write-backs).
        trace_events = miss_trace.events
        n_events = len(trace_events)
        if n_events:
            gap_i, gap_l2, fetch_lists, wb_lists = zip(*trace_events)
        else:
            gap_i = gap_l2 = fetch_lists = wb_lists = ()
        if _np is not None and n_events:
            gap_f = (
                _np.fromiter(gap_i, _np.int64, n_events) / width
            ).tolist()
            gap_h = (
                _np.fromiter(gap_l2, _np.int64, n_events) * penalty
            ).tolist()
        else:
            gap_f = [gap / width for gap in gap_i]
            gap_h = [hits * penalty for hits in gap_l2]
        addresses = list(
            chain.from_iterable(
                chain.from_iterable(zip(fetch_lists, wb_lists))
            )
        )

        lines, pages, banks, rows, cols = _address_columns(
            addresses, line_mask, page_shift, row_shift, bank_mask, bank_bits
        )
        bank_col = row_col = None
        if cols is not None:
            _, _, bank_col, row_col = cols
        lats, classes, lat_col = _row_classes(
            banks, rows, bank_mask + 1, (lat_hit, lat_empty, lat_conflict),
            bank_col, row_col,
        )
        self.acc_banks = banks
        self.acc_rows = rows
        self.cum_hits, self.cum_conflicts = _class_prefix_sums(classes)

        # Flat per-fetch steps.  Traces are overwhelmingly one fetch per
        # event, which makes the step columns a position-select over the
        # combined access columns (event i's fetch sits at combined index
        # ``i + write-backs before event i``); anything else — multi-fetch
        # events, fetchless flush bursts, the no-numpy install — takes the
        # exact general loop below.
        n_wbs = list(map(len, wb_lists))
        total_wbs = sum(n_wbs)
        simple = (
            len(addresses) - total_wbs == n_events
            and (not n_events or min(map(len, fetch_lists)) == 1)
        )
        if simple and cols is not None:
            line_col, page_col, bank_col, row_col = cols
            if total_wbs:
                wb_arr = _np.fromiter(n_wbs, _np.int64, n_events)
                wb_before = _np.cumsum(wb_arr) - wb_arr
                fetch_pos = (
                    _np.arange(n_events, dtype=_np.int64) + wb_before
                )
                wb_groups = [_EMPTY_GROUP] * n_events
                for i in _np.nonzero(wb_arr)[0].tolist():
                    base = i + int(wb_before[i]) + 1
                    end = base + n_wbs[i]
                    wb_groups[i] = tuple(zip(
                        lines[base:end], pages[base:end], banks[base:end],
                        rows[base:end], lats[base:end],
                    ))
                self.steps = list(zip(
                    gap_f, gap_h,
                    line_col[fetch_pos].tolist(),
                    page_col[fetch_pos].tolist(),
                    bank_col[fetch_pos].tolist(),
                    row_col[fetch_pos].tolist(),
                    lat_col[fetch_pos].tolist(),
                    wb_groups,
                ))
            else:
                self.steps = list(zip(
                    gap_f, gap_h, lines, pages, banks, rows, lats,
                    repeat(_EMPTY_GROUP),
                ))
        else:
            flat = list(zip(lines, pages, banks, rows, lats))
            steps = []
            append = steps.append
            pos = 0
            for i in range(n_events):
                n_fetch = len(fetch_lists[i])
                n_wb = n_wbs[i]
                group = (
                    tuple(flat[pos + n_fetch:pos + n_fetch + n_wb])
                    if n_wb else _EMPTY_GROUP
                )
                if n_fetch:
                    gap = gap_f[i]
                    hit_gap = gap_h[i]
                    last = n_fetch - 1
                    for j in range(n_fetch):
                        line, page, bank, row, lat = flat[pos + j]
                        append((
                            gap, hit_gap, line, page, bank, row, lat,
                            group if j == last else _EMPTY_GROUP,
                        ))
                        gap = 0.0
                        hit_gap = 0
                else:
                    append((
                        gap_f[i], gap_h[i], None, None, None, None, None,
                        group,
                    ))
                pos += n_fetch + n_wb
            self.steps = steps
        self.n_steps = len(self.steps)


def _address_columns(
    addresses, line_mask, page_shift, row_shift, bank_mask, bank_bits
):
    """Line/page/bank/row columns for ``addresses`` as plain-int lists.

    Returns ``(lines, pages, banks, rows, cols)``; ``cols`` holds the four
    numpy column arrays when the vectorized path ran (so later compile
    stages can fancy-index instead of rebuilding them), else ``None``.
    """
    if _np is not None and addresses:
        try:
            column = _np.fromiter(
                addresses, dtype=_np.uint64, count=len(addresses)
            )
        except (OverflowError, ValueError):
            pass  # out-of-range address: fall through to exact Python ints
        else:
            line_col = column & _np.uint64(line_mask & _MASK64)
            row_full = line_col >> _np.uint64(row_shift)
            bank_col = row_full & _np.uint64(bank_mask)
            row_col = row_full >> _np.uint64(bank_bits)
            page_col = line_col >> _np.uint64(page_shift)
            return (
                line_col.tolist(),
                page_col.tolist(),
                bank_col.tolist(),
                row_col.tolist(),
                (line_col, page_col, bank_col, row_col),
            )
    lines = [address & line_mask for address in addresses]
    full = [line >> row_shift for line in lines]
    return (
        lines,
        [line >> page_shift for line in lines],
        [value & bank_mask for value in full],
        [value >> bank_bits for value in full],
        None,
    )


def _row_classes(banks, rows, num_banks, latencies, bank_col=None, row_col=None):
    """Open-page row classification of the static access sequence.

    Returns ``(lats, classes, lat_col)``: per-access latency (plain-int
    list), row class, and — on the vectorized path — the latency column as
    a numpy array (else ``None``); assuming all banks start with no open
    row (a replay starting from dirtier DRAM state skips the static path
    entirely).
    """
    n = len(banks)
    if _np is not None and n:
        if bank_col is None:
            bank_col = _np.fromiter(banks, dtype=_np.int64, count=n)
            row_col = _np.fromiter(rows, dtype=_np.uint64, count=n)
        order = _np.argsort(bank_col, kind="stable")
        same_bank = _np.zeros(n, dtype=bool)
        same_row = _np.zeros(n, dtype=bool)
        bank_sorted = bank_col[order]
        row_sorted = row_col[order]
        same_bank[1:] = bank_sorted[1:] == bank_sorted[:-1]
        same_row[1:] = row_sorted[1:] == row_sorted[:-1]
        cls_sorted = _np.where(
            same_bank,
            _np.where(same_row, _ROW_HIT, _ROW_CONFLICT),
            _ROW_EMPTY,
        )
        classes = _np.empty(n, dtype=_np.int64)
        classes[order] = cls_sorted
        lat_col = _np.asarray(latencies, dtype=_np.int64)[classes]
        return lat_col.tolist(), classes, lat_col
    open_rows: list = [None] * num_banks
    lats = []
    classes = []
    for bank, row in zip(banks, rows):
        open_row = open_rows[bank]
        if open_row == row:
            cls = _ROW_HIT
        elif open_row is None:
            cls = _ROW_EMPTY
        else:
            cls = _ROW_CONFLICT
        open_rows[bank] = row
        classes.append(cls)
        lats.append(latencies[cls])
    return lats, classes, None


def _class_prefix_sums(classes):
    """``(cum_hits, cum_conflicts)`` prefix-sum lists (length n+1).

    Empties need no array of their own: over any access span they are the
    span length minus its hits and conflicts.
    """
    n = len(classes)
    if _np is not None and n:
        cls = _np.asarray(classes, dtype=_np.int64)
        out = []
        for code in (_ROW_HIT, _ROW_CONFLICT):
            cum = _np.zeros(n + 1, dtype=_np.int64)
            _np.cumsum(cls == code, out=cum[1:])
            out.append(cum.tolist())
        return tuple(out)
    hits = [0]
    conflicts = [0]
    for cls in classes:
        hits.append(hits[-1] + (cls == _ROW_HIT))
        conflicts.append(conflicts[-1] + (cls == _ROW_CONFLICT))
    return hits, conflicts


# Compiled traces memoized per live MissTrace instance.  Keyed by id() with
# a weakref reaper (rather than a WeakKeyDictionary) because hashing a
# frozen MissTrace walks its whole events tuple — O(trace) per lookup.
_COMPILED: dict[int, tuple[weakref.ref, dict]] = {}


def compile_trace(
    miss_trace,
    address_map,
    dram_config=None,
    core: CoreConfig | None = None,
) -> CompiledTrace:
    """Compile (memoized) ``miss_trace`` for one machine geometry.

    The cache is two-level: per trace instance, then per geometry tuple
    (address map + DRAM bank/timing layout + core gap parameters), so one
    trace replayed through machines with different geometries compiles once
    per geometry — and every scheme of a grid shares the one compile.
    """
    if dram_config is None:
        from repro.memory.dram import DramConfig

        dram_config = DramConfig()
    core = core or CoreConfig()
    per_beat = dram_config.bus.cycles_per_beat
    geometry = (
        address_map.line_bytes,
        address_map.page_shift,
        dram_config.row_bytes.bit_length() - 1,
        dram_config.num_banks - 1,
        dram_config.t_cas * per_beat,
        (dram_config.t_rcd + dram_config.t_cas) * per_beat,
        (dram_config.t_rp + dram_config.t_rcd + dram_config.t_cas) * per_beat,
        float(core.issue_width),
        core.l2_hit_penalty,
    )
    key = id(miss_trace)
    entry = _COMPILED.get(key)
    if entry is None or entry[0]() is not miss_trace:
        ref = weakref.ref(
            miss_trace, lambda _ref, _key=key: _COMPILED.pop(_key, None)
        )
        entry = (ref, {})
        _COMPILED[key] = entry
    compiled = entry[1].get(geometry)
    if compiled is None:
        compiled = CompiledTrace(miss_trace, geometry)
        entry[1][geometry] = compiled
    return compiled


# -- shared epilogue -----------------------------------------------------------


def _finalize_metrics(
    miss_trace, controller, scheme: str, cycle: float
) -> RunMetrics:
    """Assemble :class:`RunMetrics` from a finished replay's live stats."""
    stats = controller.stats
    predictor_stats = controller.predictor.stats
    return RunMetrics(
        scheme=scheme,
        cycles=cycle,
        instructions=miss_trace.total_instructions,
        l2_misses=miss_trace.l2_misses,
        fetches=stats.fetches,
        writebacks=stats.writebacks,
        prediction_lookups=predictor_stats.lookups,
        prediction_hits=predictor_stats.hits,
        guesses_issued=predictor_stats.guesses_issued,
        seqcache_lookups=(
            controller.seqcache.demand_lookups if controller.seqcache else 0
        ),
        seqcache_hits=(
            controller.seqcache.demand_hits if controller.seqcache else 0
        ),
        class_both=stats.class_counts[FetchClass.BOTH],
        class_pred_only=stats.class_counts[FetchClass.PRED_ONLY],
        class_cache_only=stats.class_counts[FetchClass.CACHE_ONLY],
        class_neither=stats.class_counts[FetchClass.NEITHER],
        mean_exposed_latency=stats.mean_exposed_latency,
        engine_demand_blocks=controller.engine.stats.demand_blocks,
        engine_speculative_blocks=controller.engine.stats.speculative_blocks,
        root_resets=controller.page_table.total_resets,
    )


# -- reference core ------------------------------------------------------------


def _replay_reference(
    miss_trace,
    controller,
    core: CoreConfig | None = None,
    scheme: str = "unnamed",
    on_fetch=None,
    hook_interval: int = 0,
) -> RunMetrics:
    """The original per-event loop over the live controller state machine.

    ``hook_interval`` is accepted for signature parity but ignored: the
    reference loop keeps its historical per-fetch ``on_fetch`` calls (the
    runner's modulo filter makes the observable series identical).
    """
    core = core or CoreConfig()
    cycle = 0.0
    width = float(core.issue_width)
    hidden = 1.0 - core.miss_overlap
    fetches = 0

    for event in miss_trace.events:
        cycle += event.gap_instructions / width
        cycle += event.gap_l2_hits * core.l2_hit_penalty
        for address in event.fetch_addresses:
            result = controller.fetch_line(int(cycle), address)
            stall = (result.data_ready - cycle) * hidden
            if stall > 0:
                cycle += stall
            if on_fetch is not None:
                fetches += 1
                on_fetch(fetches)
        for address in event.writeback_addresses:
            controller.writeback_line(int(cycle), address)

    # Drain trailing computation so IPC reflects the whole trace.
    cycle += 1.0  # avoid zero-cycle degenerate traces

    return _finalize_metrics(miss_trace, controller, scheme, cycle)


# -- batched core --------------------------------------------------------------


def _root_windows(root, old_roots, actual, width):
    """Hit index and length of regular prediction's list with root history.

    The list is the window ``[r, r + width)`` from the current root, then
    from each old root in order, deduplicated keeping first occurrences
    (``_dedupe``).  Windows from random roots are disjoint unless a root
    lands within ``width`` of another, so the list is their concatenation;
    overlapping windows are deduplicated explicitly.  The hit index is
    ``_NO_HIT`` when ``actual`` is in no window.
    """
    roots = (root,) + old_roots
    for i, first in enumerate(roots):
        for second in roots[:i]:
            if ((first - second) & _MASK64 < width
                    or (second - first) & _MASK64 < width):
                guesses = list(dict.fromkeys(
                    (base + offset) & _MASK64
                    for base in roots for offset in range(width)
                ))
                if actual in guesses:
                    return guesses.index(actual), len(guesses)
                return _NO_HIT, len(guesses)
    for i, base in enumerate(roots):
        offset = (actual - base) & _MASK64
        if offset < width:
            return i * width + offset, len(roots) * width
    return _NO_HIT, len(roots) * width


def _set_open_rows(compiled, n_accesses, open_rows) -> None:
    """Live open-row state after the first ``n_accesses`` compiled accesses.

    The statically classified path never writes the DRAM's open rows; the
    replay sets them from the compiled access order when it leaves that
    path and when it ends, as the live DRAM would have left them.  A bank
    the prefix never touched keeps its row (all banks start closed there).
    """
    acc_banks = compiled.acc_banks
    acc_rows = compiled.acc_rows
    pending = set(range(len(open_rows)))
    for j in range(n_accesses - 1, -1, -1):
        bank = acc_banks[j]
        if bank in pending:
            open_rows[bank] = acc_rows[j]
            pending.discard(bank)
            if not pending:
                break


def _flush_stats(
    ctx, fetches, df, dw, acc_idx, a_base, engine_issued,
    port_free, bus_free, sc_clock, lor,
    d_row_hits, d_row_empties, d_row_conflicts, d_bank_queue, d_bus_queue,
    d_e_queue, d_rebased, d_covered, d_exposed, d_overhead, d_hist,
    d_both, d_pred_only, d_guesses, d_hit_guesses, d_resets, d_rt_misses,
    d_sc_dhit, d_sc_uhit, d_sc_evict, d_sc_dirty,
):
    """Fold one flush window's deltas and static spans into the live stats.

    Module-level on purpose: were this a closure inside the replay loop,
    every counter it touches would become a closure cell and every hot-loop
    access a slow dereference.  The replay hands the whole window in as
    arguments and re-zeroes its locals at the call site.  Idempotent for an
    empty window, so the replay's ``finally`` flush is always safe.
    """
    (controller, seqcache, sc_tags, cum_hits, cum_conflicts,
     fetch_bytes, dur_fetch, dur_wb, interval, blocks,
     speculate, range_table, context, sc_inline) = ctx
    dram = controller.dram
    bus = dram.bus
    engine = controller.engine
    span_hits = cum_hits[acc_idx] - cum_hits[a_base]
    span_conflicts = cum_conflicts[acc_idx] - cum_conflicts[a_base]
    dram.stats.absorb(
        reads=df,
        writes=dw,
        row_hits=span_hits + d_row_hits,
        row_empties=(
            acc_idx - a_base - span_hits - span_conflicts + d_row_empties
        ),
        row_conflicts=span_conflicts + d_row_conflicts,
        bank_queue_cycles=d_bank_queue,
    )
    bus.stats.absorb(
        transfers=2 * df + dw,
        bytes_moved=fetch_bytes * (df + dw),
        busy_cycles=dur_fetch * df + dur_wb * dw,
        queue_delay_cycles=d_bus_queue,
    )
    # Every fetch issues one demand batch except those a guess covered
    # without a seqnum-cache hit, and every write-back issues one.  Guesses
    # go through the engine only on a cache miss.  Engine busy time is
    # exactly issue_interval per issued block.
    demand = blocks * (df - d_pred_only + dw)
    spec = blocks * (d_guesses - d_hit_guesses)
    engine.stats.absorb(
        demand_blocks=demand,
        speculative_blocks=spec,
        queue_delay_cycles=d_e_queue,
        busy_cycles=(demand + spec) * interval,
        last_issue_time=port_free if engine_issued else None,
    )
    if speculate:
        # One lookup per fetch; the range table answers one per lookup.
        predictor = controller.predictor
        predictor.stats.absorb(
            lookups=df,
            hits=d_both + d_pred_only,
            guesses_issued=d_guesses,
            root_resets=d_resets,
        )
        if range_table is not None:
            range_table.lookups += df
            range_table.misses += d_rt_misses
        if context:
            predictor.latest_offset = lor
    # A fetch is BOTH or CACHE_ONLY on a seqnum-cache hit, else PRED_ONLY
    # or NEITHER.
    controller.stats.absorb(
        fetches=df,
        writebacks=dw,
        rebased_writebacks=d_rebased,
        covered_fetches=d_covered,
        class_both=d_both,
        class_pred_only=d_pred_only,
        class_cache_only=d_sc_dhit - d_both,
        class_neither=df - d_sc_dhit - d_pred_only,
        exposed_latency=d_exposed,
        decryption_overhead=d_overhead,
        exposed_latency_counts=d_hist,
    )
    if sc_inline:
        # One access per fetch (lookup) and per write-back (update);
        # misses are the accesses that didn't hit.
        sc_hits = d_sc_dhit + d_sc_uhit
        sc_tags.stats.absorb(
            accesses=df + dw,
            hits=sc_hits,
            misses=df + dw - sc_hits,
            evictions=d_sc_evict,
            dirty_evictions=d_sc_dirty,
            writes=dw,
        )
        seqcache.absorb(demand_lookups=df, demand_hits=d_sc_dhit)
        sc_tags._clock = sc_clock
    bus._free_at = bus_free
    engine._port_free_at = port_free
    if fetches:
        # Reference semantics: every clean fetch zeroes the fault run.
        controller._consecutive_faults = 0


def _replay_batched(
    compiled: CompiledTrace,
    miss_trace,
    controller: SecureMemoryController,
    core: CoreConfig,
    scheme: str,
    on_fetch,
    hook_interval: int,
) -> RunMetrics:
    """Tight-loop replay of a compiled trace; bit-identical to the reference.

    Every arithmetic step below reproduces, in the same order and on the
    same integer/float types, what the controller / DRAM / bus / engine /
    seqcache / predictor methods compute per reference — the per-path
    comments cite the method being inlined.  Dynamic statistics accumulate
    in local delta counters; statically determined statistics (access and
    row-class counts, bus bytes, demand-issue counts, lookup counts) are
    recovered from the compiled prefix sums and the deltas.  Both are
    folded into the live stat objects by ``flush`` (per epoch, before every
    ``on_fetch`` call, and — via ``finally`` — on any exit, so a raising
    replay leaves the controller exactly as the reference loop would).
    """
    cycle = 0.0
    hidden = 1.0 - core.miss_overlap

    n_steps = compiled.n_steps
    steps = compiled.steps

    engine = controller.engine
    dram = controller.dram
    bus = dram.bus
    backing = controller.backing
    table = controller.page_table
    predictor = controller.predictor
    seqcache = controller.seqcache
    oracle = controller.oracle
    blocks = controller.blocks
    max_guesses = controller.max_guesses

    # Model constants, hoisted once (Dram._access_bank / fetch_line_with_seqnum,
    # MemoryBus.transfer, CryptoEngine.issue).
    dram_config = dram.config
    ctrl_cycles = dram_config.controller_cycles
    per_beat = dram_config.bus.cycles_per_beat
    lat_hit = dram_config.t_cas * per_beat
    lat_empty = (dram_config.t_rcd + dram_config.t_cas) * per_beat
    lat_conflict = (
        dram_config.t_rp + dram_config.t_rcd + dram_config.t_cas
    ) * per_beat
    line_bytes = controller.address_map.line_bytes
    map_line_shift = controller.address_map.line_shift
    bus_config = bus.config
    dur_seq = bus_config.transfer_cycles(8)
    dur_line = bus_config.transfer_cycles(line_bytes)
    dur_fetch = dur_seq + dur_line
    fetch_bytes = 8 + line_bytes
    dur_wb = bus_config.transfer_cycles(line_bytes + 8)
    interval = engine.config.issue_interval
    e_latency = engine.config.latency_cycles
    blocks_cost = blocks * interval
    pad_tail = (blocks - 1) * interval + e_latency  # last block of a demand batch

    # Live mutable state: lists/dicts are mutated in place (no flush needed);
    # scalars are mirrored in locals and written back by flush.
    bank_free = dram._bank_free_at
    open_rows = dram._open_rows
    seqnums = backing._seqnums
    seqnums_get = seqnums.get
    bus_free = bus._free_at
    port_free = engine._port_free_at
    table_state = table.state
    pages = table._pages
    pages_get = pages.get
    reset_root = table.reset_root
    phv_bits = table.phv_bits
    phv_mask = (1 << phv_bits) - 1
    phv_threshold = table.phv_threshold

    # Static DRAM path: the compiled row classification assumed every bank
    # starts closed.  A replay over dirtier DRAM state (or one that had to
    # delegate a counter overflow to the live controller) classifies rows
    # dynamically instead — same arithmetic, per-access counters.
    dram_static = all(open_row is None for open_row in open_rows)
    cum_hits = compiled.cum_hits
    cum_conflicts = compiled.cum_conflicts

    # Sequence-number cache, inlined (SequenceNumberCache.lookup/fill/update
    # over Cache.access).  A demand lookup's miss *allocates* the counter
    # line, so the subsequent fill in fetch_line is always a residency-probe
    # no-op — the inline path therefore has nothing to do for fill.
    sc_inline = seqcache is not None
    sc_tags = sc_sets = sc_set_mask = sc_shift = sc_assoc = None
    sc_clock = 0
    if sc_inline:
        sc_tags = seqcache._tags
        sc_sets = sc_tags._sets
        sc_set_mask = sc_tags._set_mask
        sc_shift = sc_tags._line_shift
        sc_assoc = sc_tags.config.associativity
        sc_clock = sc_tags._clock

    # Prediction in closed form.  Every stock predictor's guess list is a
    # few windows of offsets from the page's root, deduplicated in order
    # and cut to max_guesses, so its length and the actual counter's index
    # in it are integer arithmetic on (actual - root) mod 2**64; no list is
    # built.  The predictors' training (PHV and root reset, LOR, range
    # table) runs inline on their live state.  batched_replay_supported
    # admits only the predictor configurations written out here.
    kind = type(predictor)
    speculate = not oracle and kind is not NullPredictor
    two_level = speculate and kind is TwoLevelOtpPredictor
    context = speculate and kind is ContextOtpPredictor
    history = (
        speculate and kind is RegularOtpPredictor and predictor.use_root_history
    )
    adaptive = speculate and predictor.adaptive
    width = 0 if kind is NullPredictor else predictor.depth + 1
    swing = predictor.swing if context else 0
    lor = predictor.latest_offset if context else 0
    # Two-level's range table trains on write-backs even under the oracle.
    wb_train = kind is TwoLevelOtpPredictor
    range_table = rt_table = rt_get = rt_move = rt_popitem = None
    rt_entries = rt_max_bucket = rt_lines = lip_shift = lip_mask = 0
    if wb_train:
        range_table = predictor.range_table
        rt_table = range_table._table
        rt_get = rt_table.get
        rt_move = rt_table.move_to_end
        rt_popitem = rt_table.popitem
        rt_entries = range_table.entries
        rt_max_bucket = range_table.max_bucket
        rt_lines = range_table.lines_per_page
        lip_shift = predictor.address_map.line_shift
        lip_mask = predictor.address_map.lines_per_page - 1

    bounds = DEFAULT_LATENCY_BOUNDS
    _bisect = bisect_right
    mask64 = _MASK64
    no_hit = _NO_HIT
    distance_window = DISTANCE_WINDOW

    # Dynamic delta counters.  These stay plain locals (no closure cells):
    # the flush sites below hand them to the module-level _flush_stats and
    # re-zero them inline, keeping every hot-loop access a fast local.
    hist_n = len(bounds) + 1
    (d_row_hits, d_row_empties, d_row_conflicts, d_bank_queue, d_bus_queue,
     d_e_queue, d_rebased, d_covered, d_exposed, d_overhead,
     d_both, d_pred_only, d_guesses, d_hit_guesses, d_resets, d_rt_misses,
     d_sc_dhit, d_sc_uhit, d_sc_evict, d_sc_dirty) = _ZERO_DELTAS
    d_hist = [0] * hist_n
    engine_issued = False
    fetches = 0
    wbs = 0
    # Flush baselines for the statically determined counters.  acc_idx is
    # the combined access index of the compiled sequence; while the static
    # DRAM path holds it is simply fetches + wbs, so it is only
    # materialized at flush points.
    f_base = 0
    w_base = 0
    a_base = 0
    acc_idx = 0

    hook_step = hook_interval if hook_interval > 0 else 1
    next_hook = hook_step if on_fetch is not None else -1

    flush_ctx = (
        controller, seqcache, sc_tags, cum_hits, cum_conflicts,
        fetch_bytes, dur_fetch, dur_wb, interval, blocks,
        speculate, range_table if two_level else None, context, sc_inline,
    )

    try:
        for epoch_start in range(0, n_steps, EPOCH_EVENTS):
            for (gap_f, gap_h, line, page, bank, row, lat,
                 writeback_group) in steps[
                epoch_start:epoch_start + EPOCH_EVENTS
            ]:
                cycle += gap_f
                cycle += gap_h

                if line is not None:
                    now = int(cycle)

                    # Dram.fetch_line_with_seqnum: bank access, then the
                    # pipelined seqnum + line transfers on the shared bus.
                    issue = now + ctrl_cycles
                    b_free = bank_free[bank]
                    start = issue if issue >= b_free else b_free
                    d_bank_queue += start - issue
                    if dram_static:
                        data_start = start + lat
                    else:
                        open_row = open_rows[bank]
                        if open_row == row:
                            d_row_hits += 1
                            data_start = start + lat_hit
                        elif open_row is None:
                            d_row_empties += 1
                            data_start = start + lat_empty
                        else:
                            d_row_conflicts += 1
                            data_start = start + lat_conflict
                        open_rows[bank] = row
                    bank_free[bank] = data_start
                    s1 = data_start if data_start >= bus_free else bus_free
                    d_bus_queue += s1 - data_start
                    seqnum_ready = s1 + dur_seq
                    # The line transfer starts exactly when the seqnum beat
                    # frees the bus, so its queue delay is structurally 0.
                    line_ready = seqnum_ready + dur_line
                    bus_free = line_ready

                    stored = seqnums_get(line)

                    # SequenceNumberCache.lookup (Cache.access on the
                    # counter-array address); the later fill is a no-op
                    # because this access already allocated on miss.
                    if sc_inline:
                        seq_tag = ((line >> map_line_shift) << 3) >> sc_shift
                        sc_clock += 1
                        sset = sc_sets[seq_tag & sc_set_mask]
                        entry = sset.get(seq_tag)
                        if entry is not None:
                            entry[0] = sc_clock
                            d_sc_dhit += 1
                            cache_hit = True
                        else:
                            if len(sset) >= sc_assoc:
                                # LRU victim: stamps are unique clock
                                # values, all below the current clock.
                                vtag = 0
                                vstamp = sc_clock
                                for tag, way in sset.items():
                                    stamp = way[0]
                                    if stamp < vstamp:
                                        vstamp = stamp
                                        vtag = tag
                                        ventry = way
                                del sset[vtag]
                                d_sc_evict += 1
                                if ventry[1]:
                                    d_sc_dirty += 1
                            sset[seq_tag] = [sc_clock, False]
                            cache_hit = False
                    else:
                        cache_hit = False

                    if speculate:
                        # SecureMemoryController.current_seqnum: stored
                        # counter, or the page's mapping-time root; predict
                        # touches the page state (mapping it — one RNG draw
                        # — on first touch) every fetch.
                        state = pages_get(page)
                        if state is None:
                            state = table_state(page)
                        actual = (
                            stored if stored is not None else state.mapping_root
                        )
                        root = state.root
                        dist = (actual - root) & mask64

                        # The guess list as offsets from the root.  Regular:
                        # [0, width).  Two-level: the range table's bucket
                        # b gives [b*width, b*width + width), then offset 0
                        # when b > 0.  Context: [0, width), then the LOR's
                        # swing [LOR - swing, LOR + swing] above it.  With
                        # root history, a window follows from each old root.
                        if two_level:
                            # RangePredictionTable.bucket
                            ranges = rt_get(page)
                            if ranges is None:
                                d_rt_misses += 1
                                low = 0
                            else:
                                rt_move(page)
                                lip = (line >> lip_shift) & lip_mask
                                low = ranges[lip] * width
                            if low:
                                n_guesses = width + 1
                                if low <= dist < low + width:
                                    hit_index = dist - low
                                elif dist:
                                    hit_index = no_hit
                                else:
                                    hit_index = width
                            else:
                                n_guesses = width
                                hit_index = dist
                        elif context:
                            swing_low = lor - swing
                            if swing_low < width:
                                swing_low = width
                            swing_high = lor + swing
                            if dist < width:
                                hit_index = dist
                            elif swing_low <= dist <= swing_high:
                                hit_index = width + dist - swing_low
                            else:
                                hit_index = no_hit
                            n_guesses = width
                            if swing_high >= swing_low:
                                n_guesses += swing_high - swing_low + 1
                        elif history and state.old_roots:
                            hit_index, n_guesses = _root_windows(
                                root, state.old_roots, actual, width
                            )
                        else:
                            n_guesses = width
                            hit_index = dist
                        if n_guesses > max_guesses:
                            n_guesses = max_guesses
                        d_guesses += n_guesses
                        predicted = hit_index < n_guesses

                        # _schedule_pads: a cache hit wins with a demand
                        # issue; otherwise speculate, falling through to a
                        # demand issue gated on the seqnum's arrival when
                        # no guess matched.
                        e_start = now if now >= port_free else port_free
                        d_e_queue += e_start - now
                        if cache_hit:
                            port_free = e_start + blocks_cost
                            pad_ready = e_start + pad_tail
                            d_hit_guesses += n_guesses
                            if predicted:
                                d_both += 1
                        else:
                            port_free = e_start + n_guesses * blocks_cost
                            if predicted:
                                pad_ready = (
                                    e_start
                                    + (blocks * (hit_index + 1) - 1) * interval
                                    + e_latency
                                )
                                d_pred_only += 1
                            else:
                                e_start = (
                                    seqnum_ready
                                    if seqnum_ready >= port_free
                                    else port_free
                                )
                                d_e_queue += e_start - seqnum_ready
                                port_free = e_start + blocks_cost
                                pad_ready = e_start + pad_tail

                        # observe_fetch, in the reference's order.  Context:
                        # the LOR takes the distance from the pre-update
                        # root.  Then PageSecurityTable.record_prediction:
                        # PHV shift, saturating fill, popcount-vs-threshold
                        # root reset.
                        if context and dist < distance_window:
                            lor = dist
                        if adaptive:
                            phv = (
                                (state.phv << 1) | (not predicted)
                            ) & phv_mask
                            state.phv = phv
                            fill = state.phv_fill + 1
                            if fill >= phv_bits:
                                state.phv_fill = phv_bits
                                if phv.bit_count() >= phv_threshold:
                                    reset_root(page)
                                    d_resets += 1
                            else:
                                state.phv_fill = fill
                        if two_level:
                            # A reset rebases the page's distances, so its
                            # ranges go; otherwise RangePredictionTable.train
                            # on the fetched distance (the bucket lookup
                            # already moved a present entry to the end).
                            if state.root != root:
                                rt_table.pop(page, None)
                            elif dist < distance_window:
                                bucket = dist // width
                                if bucket > rt_max_bucket:
                                    bucket = rt_max_bucket
                                if ranges is None:
                                    if len(rt_table) >= rt_entries:
                                        rt_popitem(False)
                                    rt_table[page] = [bucket] * rt_lines
                                else:
                                    ranges[lip] = bucket
                    else:
                        # current_seqnum touches the page state only when no
                        # counter is stored.  The oracle knows the counter
                        # at fetch time; without it the pad waits for the
                        # seqnum unless the cache held it.
                        if stored is None and page not in pages:
                            table_state(page)
                        if cache_hit or oracle:
                            e_start = now if now >= port_free else port_free
                            d_e_queue += e_start - now
                        else:
                            e_start = (
                                seqnum_ready
                                if seqnum_ready >= port_free
                                else port_free
                            )
                            d_e_queue += e_start - seqnum_ready
                        port_free = e_start + blocks_cost
                        pad_ready = e_start + pad_tail

                    # line_ready > seqnum_ready always, so the reference's
                    # three-way max reduces to two.
                    data_ready = (
                        line_ready if line_ready >= pad_ready else pad_ready
                    )
                    if pad_ready < seqnum_ready + e_latency:
                        d_covered += 1
                    exposed = data_ready - now
                    d_exposed += exposed
                    d_overhead += data_ready - line_ready
                    d_hist[_bisect(bounds, exposed)] += 1

                    # replay loop: stall the core, then the batched hook.
                    stall = (data_ready - cycle) * hidden
                    if stall > 0:
                        cycle += stall
                    fetches += 1
                    if fetches == next_hook:
                        if fetches != f_base or wbs != w_base:
                            engine_issued = True
                        if dram_static:
                            acc_idx = fetches + wbs
                        _flush_stats(
                            flush_ctx, fetches, fetches - f_base, wbs - w_base, acc_idx,
                            a_base, engine_issued, port_free, bus_free, sc_clock, lor,
                            d_row_hits, d_row_empties, d_row_conflicts, d_bank_queue,
                            d_bus_queue, d_e_queue, d_rebased, d_covered, d_exposed,
                            d_overhead, d_hist, d_both, d_pred_only, d_guesses,
                            d_hit_guesses, d_resets, d_rt_misses, d_sc_dhit, d_sc_uhit,
                            d_sc_evict, d_sc_dirty,
                        )
                        f_base = fetches
                        w_base = wbs
                        a_base = acc_idx
                        (d_row_hits, d_row_empties, d_row_conflicts, d_bank_queue,
                         d_bus_queue, d_e_queue, d_rebased, d_covered, d_exposed,
                         d_overhead, d_both, d_pred_only, d_guesses, d_hit_guesses,
                         d_resets, d_rt_misses, d_sc_dhit, d_sc_uhit, d_sc_evict,
                         d_sc_dirty) = _ZERO_DELTAS
                        d_hist = [0] * hist_n
                        on_fetch(fetches)
                        next_hook += hook_step

                if writeback_group:
                    wb_now = int(cycle)  # constant across an event's write-backs
                    for line, page, bank, row, lat in writeback_group:
                        # writeback_line: distance test, then increment or
                        # rebase (Section 3.2).
                        state = pages_get(page)
                        if state is None:
                            state = table_state(page)
                        stored = seqnums_get(line)
                        old = state.mapping_root if stored is None else stored
                        if (old - state.root) & mask64 < distance_window:
                            if old == mask64:
                                # Saturated counter — the real write-back
                                # path owns the overflow policy (raise, or
                                # re-encrypt the page under a fresh root).
                                if fetches != f_base or wbs != w_base:
                                    engine_issued = True
                                if dram_static:
                                    acc_idx = fetches + wbs
                                _flush_stats(
                                    flush_ctx, fetches, fetches - f_base, wbs - w_base, acc_idx,
                                    a_base, engine_issued, port_free, bus_free, sc_clock, lor,
                                    d_row_hits, d_row_empties, d_row_conflicts, d_bank_queue,
                                    d_bus_queue, d_e_queue, d_rebased, d_covered, d_exposed,
                                    d_overhead, d_hist, d_both, d_pred_only, d_guesses,
                                    d_hit_guesses, d_resets, d_rt_misses, d_sc_dhit, d_sc_uhit,
                                    d_sc_evict, d_sc_dirty,
                                )
                                f_base = fetches
                                w_base = wbs
                                a_base = acc_idx
                                (d_row_hits, d_row_empties, d_row_conflicts, d_bank_queue,
                                 d_bus_queue, d_e_queue, d_rebased, d_covered, d_exposed,
                                 d_overhead, d_both, d_pred_only, d_guesses, d_hit_guesses,
                                 d_resets, d_rt_misses, d_sc_dhit, d_sc_uhit, d_sc_evict,
                                 d_sc_dirty) = _ZERO_DELTAS
                                d_hist = [0] * hist_n
                                if dram_static:
                                    # Leaving the statically classified DRAM path:
                                    # classify dynamically from here on.
                                    dram_static = False
                                    _set_open_rows(compiled, acc_idx, open_rows)
                                controller.writeback_line(wb_now, line)
                                bus_free = bus._free_at
                                port_free = engine._port_free_at
                                if sc_inline:
                                    sc_clock = sc_tags._clock
                                continue
                            new_seqnum = old + 1
                            rebased = False
                        else:
                            new_seqnum = state.root
                            rebased = True
                        seqnums[line] = new_seqnum

                        # SequenceNumberCache.update (write access).
                        if sc_inline:
                            seq_tag = ((line >> map_line_shift) << 3) >> sc_shift
                            sc_clock += 1
                            sset = sc_sets[seq_tag & sc_set_mask]
                            entry = sset.get(seq_tag)
                            if entry is not None:
                                d_sc_uhit += 1
                                entry[0] = sc_clock
                                entry[1] = True
                            else:
                                if len(sset) >= sc_assoc:
                                    vtag = 0
                                    vstamp = sc_clock
                                    for tag, way in sset.items():
                                        stamp = way[0]
                                        if stamp < vstamp:
                                            vstamp = stamp
                                            vtag = tag
                                            ventry = way
                                    del sset[vtag]
                                    d_sc_evict += 1
                                    if ventry[1]:
                                        d_sc_dirty += 1
                                sset[seq_tag] = [sc_clock, True]

                        if wb_train:
                            # TwoLevelOtpPredictor.observe_writeback →
                            # RangePredictionTable.train.
                            distance = (new_seqnum - state.root) & mask64
                            if distance < distance_window:
                                bucket = distance // width
                                if bucket > rt_max_bucket:
                                    bucket = rt_max_bucket
                                slots = rt_get(page)
                                if slots is None:
                                    if len(rt_table) >= rt_entries:
                                        rt_popitem(False)
                                    rt_table[page] = [bucket] * rt_lines
                                else:
                                    rt_move(page)
                                    slots[(line >> lip_shift) & lip_mask] = bucket

                        # Demand pad for the fresh encryption, then the
                        # posted line+counter write (engine.issue, dram.write).
                        # Block counts and transfer totals are static.
                        e_start = wb_now if wb_now >= port_free else port_free
                        d_e_queue += e_start - wb_now
                        port_free = e_start + blocks_cost
                        pad_done = e_start + pad_tail
                        issue = pad_done + ctrl_cycles
                        b_free = bank_free[bank]
                        start = issue if issue >= b_free else b_free
                        d_bank_queue += start - issue
                        if dram_static:
                            data_start = start + lat
                        else:
                            open_row = open_rows[bank]
                            if open_row == row:
                                d_row_hits += 1
                                data_start = start + lat_hit
                            elif open_row is None:
                                d_row_empties += 1
                                data_start = start + lat_empty
                            else:
                                d_row_conflicts += 1
                                data_start = start + lat_conflict
                            open_rows[bank] = row
                        bank_free[bank] = data_start
                        s1 = data_start if data_start >= bus_free else bus_free
                        d_bus_queue += s1 - data_start
                        bus_free = s1 + dur_wb
                        wbs += 1
                        if rebased:
                            d_rebased += 1
            # Epoch boundary: live stats catch up.
            if fetches != f_base or wbs != w_base:
                engine_issued = True
            if dram_static:
                acc_idx = fetches + wbs
            _flush_stats(
                flush_ctx, fetches, fetches - f_base, wbs - w_base, acc_idx,
                a_base, engine_issued, port_free, bus_free, sc_clock, lor,
                d_row_hits, d_row_empties, d_row_conflicts, d_bank_queue,
                d_bus_queue, d_e_queue, d_rebased, d_covered, d_exposed,
                d_overhead, d_hist, d_both, d_pred_only, d_guesses,
                d_hit_guesses, d_resets, d_rt_misses, d_sc_dhit, d_sc_uhit,
                d_sc_evict, d_sc_dirty,
            )
            f_base = fetches
            w_base = wbs
            a_base = acc_idx
            (d_row_hits, d_row_empties, d_row_conflicts, d_bank_queue,
             d_bus_queue, d_e_queue, d_rebased, d_covered, d_exposed,
             d_overhead, d_both, d_pred_only, d_guesses, d_hit_guesses,
             d_resets, d_rt_misses, d_sc_dhit, d_sc_uhit, d_sc_evict,
             d_sc_dirty) = _ZERO_DELTAS
            d_hist = [0] * hist_n
    finally:
        if fetches != f_base or wbs != w_base:
            engine_issued = True
        if dram_static:
            acc_idx = fetches + wbs
        _flush_stats(
            flush_ctx, fetches, fetches - f_base, wbs - w_base, acc_idx,
            a_base, engine_issued, port_free, bus_free, sc_clock, lor,
            d_row_hits, d_row_empties, d_row_conflicts, d_bank_queue,
            d_bus_queue, d_e_queue, d_rebased, d_covered, d_exposed,
            d_overhead, d_hist, d_both, d_pred_only, d_guesses,
            d_hit_guesses, d_resets, d_rt_misses, d_sc_dhit, d_sc_uhit,
            d_sc_evict, d_sc_dirty,
        )
        if dram_static:
            _set_open_rows(compiled, acc_idx, open_rows)

    # Drain trailing computation so IPC reflects the whole trace.
    cycle += 1.0  # avoid zero-cycle degenerate traces

    return _finalize_metrics(miss_trace, controller, scheme, cycle)


# -- backend registry ----------------------------------------------------------


class ReplayBackend:
    """One strategy for replaying a miss trace through a controller."""

    name = "abstract"

    def available(self) -> bool:
        """Whether this backend can run in the current environment."""
        return True

    def replay(
        self,
        miss_trace,
        controller,
        core: CoreConfig | None = None,
        scheme: str = "unnamed",
        on_fetch=None,
        hook_interval: int = 0,
    ) -> RunMetrics:
        raise NotImplementedError


class ReferenceBackend(ReplayBackend):
    """Today's loop: one live controller call per fetch / write-back."""

    name = "reference"

    def replay(
        self,
        miss_trace,
        controller,
        core: CoreConfig | None = None,
        scheme: str = "unnamed",
        on_fetch=None,
        hook_interval: int = 0,
    ) -> RunMetrics:
        return _replay_reference(
            miss_trace, controller, core, scheme, on_fetch, hook_interval
        )


class BatchedBackend(ReplayBackend):
    """Compiled-trace tight loop, falling back per-controller when needed."""

    name = "batched"

    def replay(
        self,
        miss_trace,
        controller,
        core: CoreConfig | None = None,
        scheme: str = "unnamed",
        on_fetch=None,
        hook_interval: int = 0,
    ) -> RunMetrics:
        supported = getattr(controller, "batched_replay_supported", None)
        if supported is None or not supported():
            # Functional / traced / degraded / proxied controllers take the
            # exact per-reference path; identity is trivially preserved.
            return _replay_reference(
                miss_trace, controller, core, scheme, on_fetch, hook_interval
            )
        core = core or CoreConfig()
        compiled = compile_trace(
            miss_trace, controller.address_map, controller.dram.config, core
        )
        return _replay_batched(
            compiled, miss_trace, controller, core, scheme, on_fetch,
            hook_interval,
        )


BACKENDS: dict[str, ReplayBackend] = {}


def register_backend(backend: ReplayBackend) -> ReplayBackend:
    """Register ``backend`` under its ``name`` (later wins); returns it."""
    BACKENDS[backend.name] = backend
    return backend


register_backend(ReferenceBackend())
register_backend(BatchedBackend())


def available_backends() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(BACKENDS)


def resolve_backend(name: str | None = None) -> ReplayBackend:
    """Resolve a backend: explicit name > ``$REPRO_REPLAY_BACKEND`` > default.

    The environment is consulted on every call (not cached at import), so
    parallel workers and subprocesses inherit the parent's selection.
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV) or DEFAULT_BACKEND
    backend = BACKENDS.get(name)
    if backend is None:
        raise ValueError(
            f"unknown replay backend {name!r}; choose from "
            f"{', '.join(available_backends())}"
        )
    return backend
