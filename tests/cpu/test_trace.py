"""Trace records and summaries."""

import pytest

from repro.cpu.trace import AccessTrace, MemoryAccess, summarize_trace


class TestMemoryAccess:
    def test_defaults(self):
        access = MemoryAccess(address=0x100)
        assert not access.is_write
        assert not access.is_instruction
        assert access.gap_instructions == 8

    def test_rejects_negative_address(self):
        with pytest.raises(ValueError):
            MemoryAccess(address=-1)

    def test_rejects_negative_gap(self):
        with pytest.raises(ValueError):
            MemoryAccess(address=0, gap_instructions=-1)

    def test_frozen(self):
        access = MemoryAccess(address=0)
        with pytest.raises(AttributeError):
            access.address = 1


class TestAccessTrace:
    def test_gaps_hold_64_bit_values(self):
        accesses = [MemoryAccess(2**64 - 32, gap_instructions=2**32), MemoryAccess(0)]
        trace = AccessTrace.from_accesses(accesses)
        assert trace == accesses
        assert trace[0].gap_instructions == 2**32

    @pytest.mark.parametrize("field", ["address", "gap_instructions"])
    def test_values_beyond_64_bits_are_a_value_error(self, field):
        with pytest.raises(ValueError, match=r"2\*\*64"):
            AccessTrace.from_accesses([MemoryAccess(**{"address": 0, field: 2**64})])


class TestSummary:
    def test_empty_trace(self):
        summary = summarize_trace([])
        assert summary.references == 0
        assert summary.write_fraction == 0.0
        assert summary.references_per_kilo_instruction == 0.0

    def test_counts(self):
        trace = [
            MemoryAccess(0, is_write=True, gap_instructions=10),
            MemoryAccess(16, gap_instructions=10),     # same line as 0
            MemoryAccess(32, gap_instructions=10),     # next line
            MemoryAccess(4096, gap_instructions=10),   # next page
        ]
        summary = summarize_trace(trace)
        assert summary.references == 4
        assert summary.instructions == 40
        assert summary.writes == 1
        assert summary.unique_lines == 3
        assert summary.unique_pages == 2
        assert summary.footprint_bytes == 96
        assert summary.write_fraction == 0.25
        assert summary.references_per_kilo_instruction == pytest.approx(100.0)
