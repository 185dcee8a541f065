"""Memory-access trace representation.

A *trace* is the interface between workloads and the simulator: a
sequence of references, each carrying the byte address, the access kind,
and the number of instructions the core executed since the previous
record (so the timing model can interleave computation with memory events
without simulating every instruction).

Workloads produce an :class:`AccessTrace`: four flat typed columns, about
18 bytes a reference, which the L1/L2 filter reads directly.  Indexing or
iterating one yields :class:`MemoryAccess` records, the form tests, trace
files and hand-built traces use.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = ["MemoryAccess", "AccessTrace", "TraceSummary", "summarize_trace"]


@dataclass(frozen=True)
class MemoryAccess:
    """One memory reference emitted by a workload."""

    address: int
    is_write: bool = False
    is_instruction: bool = False
    gap_instructions: int = 8

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError(f"address must be non-negative, got {self.address}")
        if self.gap_instructions < 0:
            raise ValueError(
                f"gap_instructions must be non-negative, got {self.gap_instructions}"
            )


class AccessTrace:
    """A trace as flat columns: address, write flag, instruction flag, gap.

    ``addresses`` and ``gaps`` are unsigned 64-bit arrays, so both lie in
    ``[0, 2**64)``, and the two flag columns are bytearrays of 0/1.
    Generators append to the columns directly; ``len()``, indexing and
    iteration (both giving :class:`MemoryAccess` records) make it a
    drop-in sequence of accesses.
    """

    __slots__ = ("addresses", "writes", "instructions", "gaps")

    def __init__(
        self,
        addresses: Iterable[int] = (),
        writes: Iterable[int] = (),
        instructions: Iterable[int] = (),
        gaps: Iterable[int] = (),
    ):
        try:
            self.addresses = array("Q", addresses)
            self.gaps = array("Q", gaps)
        except OverflowError:
            raise ValueError("trace addresses and gaps must be in [0, 2**64)") from None
        self.writes = bytearray(writes)
        self.instructions = bytearray(instructions)
        if not (
            len(self.addresses) == len(self.writes)
            == len(self.instructions) == len(self.gaps)
        ):
            raise ValueError("trace columns differ in length")

    @classmethod
    def from_accesses(cls, accesses: Iterable[MemoryAccess]) -> "AccessTrace":
        """Columns of an iterable of :class:`MemoryAccess` records."""
        if isinstance(accesses, cls):
            return accesses
        accesses = list(accesses)
        return cls(
            [a.address for a in accesses],
            [a.is_write for a in accesses],
            [a.is_instruction for a in accesses],
            [a.gap_instructions for a in accesses],
        )

    def __len__(self) -> int:
        return len(self.addresses)

    def __getitem__(self, index: int) -> MemoryAccess:
        return MemoryAccess(
            self.addresses[index],
            bool(self.writes[index]),
            bool(self.instructions[index]),
            self.gaps[index],
        )

    def __iter__(self) -> Iterator[MemoryAccess]:
        for address, write, instruction, gap in zip(
            self.addresses, self.writes, self.instructions, self.gaps
        ):
            yield MemoryAccess(address, bool(write), bool(instruction), gap)

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        if not isinstance(other, AccessTrace):
            return NotImplemented
        return (
            self.addresses == other.addresses
            and self.writes == other.writes
            and self.instructions == other.instructions
            and self.gaps == other.gaps
        )

    def __repr__(self) -> str:
        return f"AccessTrace({len(self)} references)"


@dataclass(frozen=True)
class TraceSummary:
    """Aggregate shape of a trace (for tests and workload calibration)."""

    references: int
    instructions: int
    writes: int
    unique_lines: int
    unique_pages: int
    footprint_bytes: int

    @property
    def write_fraction(self) -> float:
        return self.writes / self.references if self.references else 0.0

    @property
    def references_per_kilo_instruction(self) -> float:
        if not self.instructions:
            return 0.0
        return 1000.0 * self.references / self.instructions


def summarize_trace(
    trace: AccessTrace | list[MemoryAccess], line_bytes: int = 32, page_bytes: int = 4096
) -> TraceSummary:
    """Compute the aggregate statistics of ``trace``."""
    lines = set()
    pages = set()
    writes = 0
    instructions = 0
    for access in trace:
        lines.add(access.address // line_bytes)
        pages.add(access.address // page_bytes)
        writes += access.is_write
        instructions += access.gap_instructions
    return TraceSummary(
        references=len(trace),
        instructions=instructions,
        writes=writes,
        unique_lines=len(lines),
        unique_pages=len(pages),
        footprint_bytes=len(lines) * line_bytes,
    )
