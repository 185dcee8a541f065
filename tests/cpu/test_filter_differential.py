"""The flat L1/L2 filter against the object-per-access hierarchy.

``collect_miss_trace`` runs L1I, L1D and L2 as one loop over flat per-set
state.  The reference here is the loop it replaced: every access through
:meth:`MemoryHierarchy.access` and :meth:`MemoryHierarchy.flush_dirty`.
Generated traces hammer a few set-conflicting regions with writes,
instruction fetches and a small flush interval, over power-of-two
geometries with 1-2 way L1s and 1-8 way L2s, so LRU victims, write
allocation, inclusion back-invalidation (with the dirty-L1 rule) and the
flush order all come into play.
"""

from hypothesis import given, settings, strategies as st

from repro.cpu.system import MissEvent, MissTrace, collect_miss_trace
from repro.cpu.trace import AccessTrace, MemoryAccess
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy

LINE = 32


def reference_miss_trace(trace, config, flush_interval_instructions=None):
    """The per-access loop over ``MemoryHierarchy`` (the former filter)."""
    hierarchy = MemoryHierarchy(config)
    events = []
    gap_instructions = gap_l2_hits = total_instructions = 0
    l1_hits = l2_hits = l2_misses = 0
    next_flush = flush_interval_instructions or 0
    for access in trace:
        gap_instructions += access.gap_instructions
        total_instructions += access.gap_instructions
        if flush_interval_instructions and total_instructions >= next_flush:
            next_flush += flush_interval_instructions
            flushed = tuple(hierarchy.flush_dirty())
            if flushed:
                events.append(MissEvent(gap_instructions, gap_l2_hits, (), flushed))
                gap_instructions = gap_l2_hits = 0
        outcome = hierarchy.access(
            access.address,
            is_write=access.is_write,
            is_instruction=access.is_instruction,
        )
        if outcome.l1_hit:
            l1_hits += 1
            continue
        if outcome.l2_hit:
            l2_hits += 1
            gap_l2_hits += 1
            continue
        l2_misses += 1
        events.append(
            MissEvent(
                gap_instructions, gap_l2_hits,
                outcome.fetched_lines, outcome.writeback_lines,
            )
        )
        gap_instructions = gap_l2_hits = 0
    return MissTrace(
        events=tuple(events),
        total_instructions=total_instructions,
        total_references=len(trace),
        l1_hits=l1_hits,
        l2_hits=l2_hits,
        l2_misses=l2_misses,
    )


def geometry(l1_ways, l1i_sets, l1d_sets, l2_ways, l2_sets):
    return HierarchyConfig(
        l1i_size=LINE * l1_ways * l1i_sets,
        l1d_size=LINE * l1_ways * l1d_sets,
        l1_associativity=l1_ways,
        l2_size=LINE * l2_ways * l2_sets,
        l2_associativity=l2_ways,
    )


geometries = st.builds(
    geometry,
    l1_ways=st.sampled_from([1, 2]),
    l1i_sets=st.sampled_from([1, 2, 4, 8]),
    l1d_sets=st.sampled_from([1, 2, 4, 8]),
    l2_ways=st.sampled_from([1, 2, 4, 8]),
    l2_sets=st.sampled_from([1, 2, 4, 8]),
)

def decode_access(code: int) -> MemoryAccess:
    """One generated reference from one integer, so traces stay cheap to draw.

    Region bases are 64 KB apart: line k of every region maps to the same
    set of every cache above, so the six regions fight over the same ways.
    Zero is region 0's first line, read, no gap: what shrinking aims for.
    """
    region, code = code % 6, code // 6
    line, code = code % 12, code // 12
    byte, code = (0, 8, 31)[code % 3], code // 3
    write, code = bool(code & 1), code >> 1
    instruction, code = bool(code & 1), code >> 1
    return MemoryAccess(region * 0x10000 + line * LINE + byte, write, instruction, code % 13)


accesses = st.integers(0, 6 * 12 * 3 * 4 * 13 - 1).map(decode_access)


def assert_filters_agree(trace, config, flush=None):
    assert collect_miss_trace(
        trace, hierarchy_config=config, flush_interval_instructions=flush
    ) == reference_miss_trace(trace, config, flush)


@given(
    trace=st.lists(accesses, min_size=80, max_size=300),
    config=geometries,
    flush=st.sampled_from([None, 16, 40, 150]),
)
@settings(max_examples=200, deadline=None)
def test_flat_filter_matches_memory_hierarchy(trace, config, flush):
    assert_filters_agree(trace, config, flush)


def test_compact_trace_and_access_list_filter_alike():
    trace = [MemoryAccess(i * 0x2000 + 32, i % 3 == 0, False, 5) for i in range(40)]
    config = geometry(1, 2, 2, 2, 4)
    assert collect_miss_trace(
        AccessTrace.from_accesses(trace), hierarchy_config=config
    ) == collect_miss_trace(trace, hierarchy_config=config)


class TestPinnedCases:
    """Hand-pinned corners of the hierarchy the generated traces reach."""

    def test_dirty_instruction_line_folds_into_l2_after_a_flush(self):
        # A written instruction line keeps its L1I dirty bit across the
        # flush (only L1D is flushed), so its later L1I eviction marks the
        # L2 copy dirty again and the L2 eviction writes it back.
        config = geometry(1, 1, 1, 1, 1)
        trace = [
            MemoryAccess(0x0, is_write=True, is_instruction=True, gap_instructions=5),
            MemoryAccess(0x10000, gap_instructions=5),
            MemoryAccess(0x20000, is_instruction=True, gap_instructions=5),
            MemoryAccess(0x30000, gap_instructions=5),
        ]
        assert_filters_agree(trace, config, flush=8)

    def test_dirty_l1d_copy_makes_a_clean_l2_victim_a_writeback(self):
        config = geometry(2, 1, 1, 1, 1)
        trace = [
            MemoryAccess(0x0, gap_instructions=1),
            MemoryAccess(0x0, is_write=True, gap_instructions=1),
            MemoryAccess(0x0, is_instruction=True, gap_instructions=1),
            MemoryAccess(0x10000, is_instruction=True, gap_instructions=1),
        ]
        reference = reference_miss_trace(trace, config)
        assert any(event.writeback_addresses == (0x0,) for event in reference.events)
        assert_filters_agree(trace, config)

    def test_flush_walks_sets_in_order_and_each_set_in_insertion_order(self):
        config = geometry(1, 1, 1, 4, 2)
        # Set 1 fills before set 0; within set 0, 0x20000 is used last
        # (most recently) but was inserted first.
        trace = [
            MemoryAccess(0x20, is_write=True, gap_instructions=1),
            MemoryAccess(0x20000, is_write=True, gap_instructions=1),
            MemoryAccess(0x10000, is_write=True, gap_instructions=1),
            MemoryAccess(0x20000, is_write=True, gap_instructions=1),
            MemoryAccess(0x30020, gap_instructions=100),
        ]
        reference = reference_miss_trace(trace, config, 100)
        flushed = [e for e in reference.events if not e.fetch_addresses]
        assert flushed[0].writeback_addresses == (0x20000, 0x10000, 0x20)
        assert_filters_agree(trace, config, flush=100)

    def test_flush_counts_once_per_check_even_after_a_long_gap(self):
        config = geometry(1, 2, 2, 2, 2)
        trace = [
            MemoryAccess(0x40, is_write=True, gap_instructions=1),
            MemoryAccess(0x80, is_write=True, gap_instructions=500),
            MemoryAccess(0xC0, is_write=True, gap_instructions=1),
            MemoryAccess(0x100, gap_instructions=1),
        ]
        assert_filters_agree(trace, config, flush=10)

    def test_gaps_beyond_32_bits_filter_like_any_other(self):
        # Trace files store gaps as unbounded varints; the gap column is
        # 64-bit, so a four-billion-instruction gap filters as before.
        config = geometry(1, 2, 2, 2, 2)
        trace = [
            MemoryAccess(0x40, is_write=True, gap_instructions=2**32),
            MemoryAccess(0x80, is_write=True, gap_instructions=2**40 + 3),
            MemoryAccess(0x100, gap_instructions=1),
        ]
        assert_filters_agree(trace, config, flush=400_000)
