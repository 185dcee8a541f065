"""Full-system simulation: miss traces, replay, functional end-to-end."""

import pytest

from repro.cpu.core import CoreConfig
from repro.cpu.system import (
    FunctionalMismatchError,
    SecureSystem,
    collect_miss_trace,
    replay_miss_trace,
)
from repro.cpu.trace import MemoryAccess
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.secure.controller import SecureMemoryController


def tiny_config():
    return HierarchyConfig(
        l1i_size=512, l1d_size=512, l1_associativity=1,
        l2_size=4 * 1024, l2_associativity=4,
    )


def linear_trace(lines, gap=10, write=False):
    return [
        MemoryAccess(i * 32, is_write=write, gap_instructions=gap)
        for i in range(lines)
    ]


class TestCollectMissTrace:
    def test_cold_misses_recorded(self):
        trace = linear_trace(10)
        miss_trace = collect_miss_trace(trace, hierarchy_config=tiny_config())
        assert miss_trace.l2_misses == 10
        assert miss_trace.total_references == 10
        assert miss_trace.total_instructions == 100
        fetched = [a for e in miss_trace.events for a in e.fetch_addresses]
        assert fetched == [i * 32 for i in range(10)]

    def test_hits_not_recorded_as_events(self):
        trace = linear_trace(4) + linear_trace(4)
        miss_trace = collect_miss_trace(trace, hierarchy_config=tiny_config())
        assert miss_trace.l2_misses == 4
        assert miss_trace.l1_hits == 4

    def test_l2_hit_gap_counting(self):
        trace = linear_trace(17)  # fill L1 (16 lines) and one more
        trace += [MemoryAccess(0, gap_instructions=10)]  # L1 victim, L2 hit
        trace += [MemoryAccess(33 * 32, gap_instructions=10)]  # new miss
        miss_trace = collect_miss_trace(trace, hierarchy_config=tiny_config())
        assert miss_trace.l2_hits == 1
        assert miss_trace.events[-1].gap_l2_hits == 1

    def test_writebacks_attached_to_events(self):
        config = tiny_config()
        sets = config.l2_size // (config.line_bytes * config.l2_associativity)
        stride = sets * 32
        trace = [MemoryAccess(w * stride, is_write=True) for w in range(5)]
        miss_trace = collect_miss_trace(trace, hierarchy_config=config)
        writebacks = [a for e in miss_trace.events for a in e.writeback_addresses]
        assert writebacks == [0]

    def test_flush_events(self):
        trace = [MemoryAccess(i * 32, is_write=True, gap_instructions=100) for i in range(20)]
        miss_trace = collect_miss_trace(
            trace,
            hierarchy_config=tiny_config(),
            flush_interval_instructions=1000,
        )
        flush_events = [e for e in miss_trace.events if not e.fetch_addresses]
        assert flush_events
        assert all(e.writeback_addresses for e in flush_events)

    def test_miss_rate_properties(self):
        miss_trace = collect_miss_trace(
            linear_trace(10), hierarchy_config=tiny_config()
        )
        assert miss_trace.miss_rate == 1.0
        assert miss_trace.misses_per_kilo_instruction == pytest.approx(100.0)


class TestReplay:
    def test_replay_produces_cycles_and_stats(self):
        miss_trace = collect_miss_trace(
            linear_trace(20), hierarchy_config=tiny_config()
        )
        controller = SecureMemoryController()
        metrics = replay_miss_trace(miss_trace, controller, scheme="baseline")
        assert metrics.scheme == "baseline"
        assert metrics.cycles > 0
        assert metrics.fetches == 20
        assert metrics.instructions == miss_trace.total_instructions

    def test_replay_is_deterministic(self):
        miss_trace = collect_miss_trace(
            linear_trace(20), hierarchy_config=tiny_config()
        )
        a = replay_miss_trace(miss_trace, SecureMemoryController())
        b = replay_miss_trace(miss_trace, SecureMemoryController())
        assert a.cycles == b.cycles

    def test_oracle_faster_than_baseline(self):
        miss_trace = collect_miss_trace(
            linear_trace(50), hierarchy_config=tiny_config()
        )
        baseline = replay_miss_trace(miss_trace, SecureMemoryController())
        oracle = replay_miss_trace(miss_trace, SecureMemoryController(oracle=True))
        assert oracle.cycles < baseline.cycles

    def test_overlap_reduces_stall(self):
        miss_trace = collect_miss_trace(
            linear_trace(50), hierarchy_config=tiny_config()
        )
        blocking = replay_miss_trace(
            miss_trace, SecureMemoryController(), core=CoreConfig(miss_overlap=0.0)
        )
        overlapped = replay_miss_trace(
            miss_trace, SecureMemoryController(), core=CoreConfig(miss_overlap=0.5)
        )
        assert overlapped.cycles < blocking.cycles


class TestSecureSystemFunctional:
    def test_end_to_end_crypto_with_cache_dynamics(self, key256):
        # Writes mutate the shadow image; evictions encrypt it; re-fetches
        # must decrypt to exactly the image.  Small caches force heavy
        # eviction traffic through the whole crypto path.
        system = SecureSystem(
            controller=SecureMemoryController(key=key256, integrity=True),
            hierarchy=MemoryHierarchy(tiny_config()),
        )
        # Interleave writes over a footprint 4x the L2.
        for round_index in range(3):
            for i in range(512):
                system.access(MemoryAccess(i * 32, is_write=(i % 2 == 0)))
        assert system.controller.stats.fetches > 512
        assert system.controller.auditor.clean

    def test_flush_pushes_dirty_lines(self, key256):
        system = SecureSystem(functional_key=key256)
        system.access(MemoryAccess(0x1000, is_write=True))
        flushed = system.flush()
        assert flushed == 1
        assert system.controller.stats.writebacks == 1

    def test_tamper_surfaces_as_mismatch(self, key256):
        system = SecureSystem(
            controller=SecureMemoryController(key=key256, integrity=False),
            hierarchy=MemoryHierarchy(tiny_config()),
        )
        system.access(MemoryAccess(0x1000, is_write=True))
        system.flush()
        system.controller.backing.tamper_line(0x1000, b"\xff")
        # Evict 0x1000 from the caches, then refetch.
        for i in range(1024):
            system.access(MemoryAccess(0x40000 + i * 32))
        with pytest.raises(FunctionalMismatchError):
            system.access(MemoryAccess(0x1000))

    def test_timing_only_mode_has_no_plaintext(self):
        system = SecureSystem()
        assert not system.functional
        system.access(MemoryAccess(0x1000, is_write=True))
        system.flush()  # must not require plaintext

    def test_run_returns_self(self, key256):
        system = SecureSystem(functional_key=key256)
        assert system.run(linear_trace(5)) is system
