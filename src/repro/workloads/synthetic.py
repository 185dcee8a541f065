"""Synthetic memory-reference stream primitives.

The paper's mechanisms key off three properties of a program's L2-miss
stream (DESIGN.md Section 2): how often lines miss, how many times each
line has been written back since its page was mapped (its *sequence-number
distance*), and how those distances cluster in time and space.  The
primitives here expose exactly those knobs:

* :class:`IterativeSweep` — repeated passes over an array (the FP-loop
  idiom: swim/mgrid/applu).  Uniform per-page distances that grow one per
  written pass; sweep order can be permuted per pass, which destroys the
  spatial counter locality a sequence-number cache would otherwise enjoy
  while leaving update counts untouched.
* :class:`TiledSweep` — passes over one tile of a much larger array at a
  time (blocked numeric kernels, mcf's bucket scans).
* :class:`ZipfStream` — skewed random line popularity (pointer codes:
  twolf/vpr/parser/mcf).  Hot lines accumulate large, line-specific
  distances — the hard case for regular prediction.
* :class:`StaticStream` — read-only touches (code, rarely-written globals):
  distance stays 0, the easy case the paper's profiling found dominant.
* :class:`HotStream` — a cache-resident region that generates L1/L2 hits
  and no off-chip traffic (keeps instructions flowing between misses).

Every stream is deterministic (seeded :class:`~repro.crypto.rng.HardwareRng`)
and can *pre-seed* per-line sequence distances, standing in for the paper's
4-billion-instruction fast-forward that warms the profiled memory state
before measurement (Section 5.1).

Streams generate in *blocks*: :meth:`AccessStream.emit` writes a burst of
references straight into an :class:`~repro.cpu.trace.AccessTrace`'s
columns, taking raw 64-bit draws from a
:class:`~repro.crypto.rng.DrawBuffer` in exactly the order the scalar
``next_float``/``next_below`` calls would make them (rejection sampling
included).  ``next_access`` and :func:`interleave` are views over that one
path.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, chain, repeat

from repro.cpu.trace import AccessTrace, MemoryAccess
from repro.crypto.rng import DrawBuffer, HardwareRng

__all__ = [
    "LINE_BYTES",
    "PAGE_BYTES",
    "AccessStream",
    "IterativeSweep",
    "StridedSweep",
    "TiledSweep",
    "ZipfStream",
    "StaticStream",
    "HotStream",
    "update_band",
    "interleave",
]

LINE_BYTES = 32
PAGE_BYTES = 4096
_LINES_PER_PAGE = PAGE_BYTES // LINE_BYTES
#: ``HardwareRng.next_float()`` is ``(draw >> 11) / 2**53``.
_FLOAT_SCALE = 1 << 53


def _float_threshold(probability: float) -> float:
    """``t`` with ``next_float() < probability`` iff ``draw >> 11 < t``.

    Scaling by a power of two is exact, and int/float comparison is exact,
    so the integer test decides every draw the way the float one does.
    """
    return probability * _FLOAT_SCALE


def _below_shift(bound: int) -> int:
    """Shift turning a draw into ``HardwareRng.next_below(bound)``'s candidate."""
    if bound <= 0:
        raise ValueError(f"bound must be positive, got {bound}")
    return 64 - min(bound.bit_length(), 64)


def _below(draw, bound: int, shift: int) -> int:
    """``HardwareRng.next_below(bound)`` from draws: reject candidates >= bound."""
    value = draw() >> shift
    while value >= bound:
        value = draw() >> shift
    return value


def _paged_preseed(base: int, num_lines: int, phases: list[int]) -> dict[int, int]:
    """Line address -> distance for ``num_lines`` lines from ``base``,
    ``phases[i]`` for every line of the i-th 4 KB page."""
    distances = chain.from_iterable(repeat(phase, _LINES_PER_PAGE) for phase in phases)
    return dict(zip(range(base, base + num_lines * LINE_BYTES, LINE_BYTES), distances))


def _gap_params(mean_gap: int) -> tuple[int, int, int]:
    """``(low, bound, shift)`` of the jittered gap ``low + next_below(bound)``.

    Gaps carry +-50% uniform jitter around the mean; a mean of at most 1
    is used as is (``bound`` 0: no draw).
    """
    if mean_gap <= 1:
        return max(mean_gap, 0), 0, 0
    return mean_gap // 2, mean_gap, _below_shift(mean_gap)


class AccessStream:
    """Interface: an endless source of references with a warm-up state.

    A stream implements :meth:`emit`, which appends ``count`` references
    to a trace's columns; everything else is built on it.
    """

    is_instruction = False

    def emit(self, draw, count: int, trace: AccessTrace) -> None:
        """Append the next ``count`` references to ``trace``'s columns.

        ``draw`` returns successive ``HardwareRng.next_u64()`` values
        (``rng.next_u64`` itself, or a
        :class:`~repro.crypto.rng.DrawBuffer`).  The instruction column is
        the caller's: every reference of a stream has the same kind.
        """
        raise NotImplementedError

    def next_access(self, rng: HardwareRng) -> MemoryAccess:
        """The next reference alone: a one-reference block."""
        trace = AccessTrace()
        self.emit(rng.next_u64, 1, trace)
        trace.instructions.append(self.is_instruction)
        return trace[0]

    def preseed(self, rng: HardwareRng) -> dict[int, int]:
        """Map line address -> initial sequence distance (fast-forward)."""
        return {}

    def touched_lines(self) -> list[int]:
        """All line addresses this stream can emit (for footprint checks)."""
        raise NotImplementedError


@dataclass
class IterativeSweep(AccessStream):
    """Repeated passes over ``num_lines`` lines starting at ``base``.

    Parameters
    ----------
    write_prob:
        Probability a touched line is written this pass (written passes
        advance the line's sequence distance by one on eviction).
    permuted:
        Visit lines in a fresh pseudo-random order each pass; sequential
        order otherwise.
    phase_spread:
        Pre-seeded per-page distance is uniform in ``[0, phase_spread]``,
        modeling pages at different phases of the update cycle after
        fast-forward.
    """

    base: int
    num_lines: int
    mean_gap: int = 10
    write_prob: float = 0.5
    permuted: bool = True
    phase_spread: int = 8

    def __post_init__(self) -> None:
        if self.num_lines <= 0:
            raise ValueError(f"num_lines must be positive, got {self.num_lines}")
        self._cursor = 0
        self._perm_state = 0x243F6A8885A308D3  # per-pass permutation salt
        self._refresh_permutation()

    def _refresh_permutation(self) -> None:
        """Pick this pass's affine permutation (stride coprime to n)."""
        stride = (self._perm_state % self.num_lines) | 1
        while math.gcd(stride, self.num_lines) != 1:
            stride += 2
        self._stride = stride
        self._offset = (self._perm_state >> 32) % self.num_lines

    def emit(self, draw, count: int, trace: AccessTrace) -> None:
        base, lines, permuted = self.base, self.num_lines, self.permuted
        write_at = _float_threshold(self.write_prob)
        low, bound, shift = _gap_params(self.mean_gap)
        add_address = trace.addresses.append
        add_write = trace.writes.append
        add_gap = trace.gaps.append
        for _ in range(count):
            index = self._cursor
            if permuted:
                index = (index * self._stride + self._offset) % lines
            add_address(base + index * LINE_BYTES)
            self._cursor += 1
            if self._cursor >= lines:
                self._cursor = 0
                self._perm_state = (
                    self._perm_state * 6364136223846793005 + 1442695040888963407
                ) & ((1 << 64) - 1)
                self._refresh_permutation()
            add_write(draw() >> 11 < write_at)
            add_gap(low + _below(draw, bound, shift) if bound else low)

    def preseed(self, rng: HardwareRng) -> dict[int, int]:
        pages = -(-self.num_lines // _LINES_PER_PAGE)
        phases = [rng.next_below(self.phase_spread + 1) for _ in range(pages)]
        return _paged_preseed(self.base, self.num_lines, phases)

    def touched_lines(self) -> list[int]:
        return [self.base + i * LINE_BYTES for i in range(self.num_lines)]


@dataclass
class StridedSweep(AccessStream):
    """Strided passes over an array, in ascending (page-clustered) order.

    Models the column-order sweeps of Fortran FP codes (swim/mgrid/applu):
    pass *k* visits lines ``k % stride_lines, k % stride_lines + stride_lines, ...``
    so that

    * successive misses land in successive *pages* (bursts that train the
      two-level range table and keep the context LOR stable),
    * no two misses of a pass share a 32-byte sequence-number-cache line
      (``stride_lines >= 4``), reproducing the poor spatial counter
      locality the paper observed, and
    * every line's update count advances once per ``stride_lines`` passes,
      keeping distances uniform across the region (iteration-aligned).

    ``phase_spread`` pre-seeds one distance for the whole region (iterative
    codes update entire arrays together), drawn uniformly from
    ``[0, phase_spread]``.
    """

    base: int
    num_lines: int
    stride_lines: int = 4
    mean_gap: int = 10
    write_prob: float = 0.6
    phase_spread: int = 3
    phase_base_range: tuple[int, int] = (0, 2)

    def __post_init__(self) -> None:
        if self.num_lines <= 0:
            raise ValueError(f"num_lines must be positive, got {self.num_lines}")
        if self.stride_lines < 1:
            raise ValueError(f"stride_lines must be >= 1, got {self.stride_lines}")
        self._offset = 0
        self._cursor = 0

    def emit(self, draw, count: int, trace: AccessTrace) -> None:
        base, lines, stride = self.base, self.num_lines, self.stride_lines
        offset, cursor = self._offset, self._cursor
        write_at = _float_threshold(self.write_prob)
        low, bound, shift = _gap_params(self.mean_gap)
        add_address = trace.addresses.append
        add_write = trace.writes.append
        add_gap = trace.gaps.append
        for _ in range(count):
            index = offset + cursor * stride
            if index >= lines:
                offset = (offset + 1) % stride
                cursor = 0
                index = offset
            add_address(base + index * LINE_BYTES)
            cursor += 1
            add_write(draw() >> 11 < write_at)
            add_gap(low + _below(draw, bound, shift) if bound else low)
        self._offset, self._cursor = offset, cursor

    def preseed(self, rng: HardwareRng) -> dict[int, int]:
        """Iteration-aligned distances: a region-wide base phase plus a
        spatially smooth jitter — blocks of 8 neighbouring pages share a
        phase, because a sweep front crosses adjacent pages together.  The
        smoothness is what the context predictor's LOR exploits.
        """
        low, high = self.phase_base_range
        region_phase = low + rng.next_below(high - low + 1)
        pages = -(-self.num_lines // _LINES_PER_PAGE)
        blocks = [
            region_phase + rng.next_below(self.phase_spread + 1)
            for _ in range(-(-pages // 8))
        ]
        phases = [blocks[page // 8] for page in range(pages)]
        return _paged_preseed(self.base, self.num_lines, phases)

    def touched_lines(self) -> list[int]:
        return [self.base + i * LINE_BYTES for i in range(self.num_lines)]


@dataclass
class TiledSweep(AccessStream):
    """Sweep one tile of a large array per pass, then advance tiles."""

    base: int
    total_lines: int
    tile_lines: int
    mean_gap: int = 10
    write_prob: float = 0.5
    passes_per_tile: int = 2
    phase_spread: int = 3

    def __post_init__(self) -> None:
        if self.total_lines <= 0 or self.tile_lines <= 0:
            raise ValueError("total_lines and tile_lines must be positive")
        if self.tile_lines > self.total_lines:
            raise ValueError("tile_lines cannot exceed total_lines")
        self._tile = 0
        self._cursor = 0
        self._tile_pass = 0
        self._num_tiles = -(-self.total_lines // self.tile_lines)
        self._salt = 0xB7E151628AED2A6A
        self._refresh_stride()

    def _tile_size(self) -> int:
        tile_start = self._tile * self.tile_lines
        return min(self.tile_lines, self.total_lines - tile_start)

    def _refresh_stride(self) -> None:
        tile_size = self._tile_size()
        stride = (self._salt % tile_size) | 1
        while math.gcd(stride, tile_size) != 1:
            stride += 2
        self._stride = stride

    def emit(self, draw, count: int, trace: AccessTrace) -> None:
        base = self.base
        write_at = _float_threshold(self.write_prob)
        low, bound, shift = _gap_params(self.mean_gap)
        add_address = trace.addresses.append
        add_write = trace.writes.append
        add_gap = trace.gaps.append
        tile_start = self._tile * self.tile_lines
        tile_size = self._tile_size()
        cursor, stride = self._cursor, self._stride
        for _ in range(count):
            add_address(base + (tile_start + cursor * stride % tile_size) * LINE_BYTES)
            cursor += 1
            if cursor >= tile_size:
                cursor = 0
                self._tile_pass += 1
                self._salt = (
                    self._salt * 2862933555777941757 + 3037000493
                ) & ((1 << 64) - 1)
                if self._tile_pass >= self.passes_per_tile:
                    self._tile_pass = 0
                    self._tile = (self._tile + 1) % self._num_tiles
                self._refresh_stride()
                tile_start = self._tile * self.tile_lines
                tile_size = self._tile_size()
                stride = self._stride
            add_write(draw() >> 11 < write_at)
            add_gap(low + _below(draw, bound, shift) if bound else low)
        self._cursor = cursor

    def preseed(self, rng: HardwareRng) -> dict[int, int]:
        region_phase = rng.next_below(3)
        pages = -(-self.total_lines // _LINES_PER_PAGE)
        phases = [
            region_phase + rng.next_below(self.phase_spread + 1) for _ in range(pages)
        ]
        return _paged_preseed(self.base, self.total_lines, phases)

    def touched_lines(self) -> list[int]:
        return [self.base + i * LINE_BYTES for i in range(self.total_lines)]


@dataclass
class ZipfStream(AccessStream):
    """Zipf-popularity random line references (pointer-chasing codes)."""

    base: int
    num_lines: int
    alpha: float = 0.8
    mean_gap: int = 12
    write_prob: float = 0.4
    max_preseed_distance: int = 40

    def __post_init__(self) -> None:
        if self.num_lines <= 0:
            raise ValueError(f"num_lines must be positive, got {self.num_lines}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        weights = [1.0 / (rank ** self.alpha) for rank in range(1, self.num_lines + 1)]
        total = sum(weights)
        self._cdf = list(accumulate(weight / total for weight in weights))
        # Popular ranks are scattered over the region so hot lines do not
        # all share a page.
        self._shuffle_stride = (self.num_lines // 2) * 2 + 1
        while math.gcd(self._shuffle_stride, self.num_lines) != 1:
            self._shuffle_stride += 2

    def emit(self, draw, count: int, trace: AccessTrace) -> None:
        # A rank is the first CDF entry >= a uniform float, clamped to the
        # last rank when rounding leaves the CDF's tail below 1.0.
        cdf, base, lines = self._cdf, self.base, self.num_lines
        last, spread = lines - 1, self._shuffle_stride
        write_at = _float_threshold(self.write_prob)
        low, bound, shift = _gap_params(self.mean_gap)
        add_address = trace.addresses.append
        add_write = trace.writes.append
        add_gap = trace.gaps.append
        for _ in range(count):
            rank = bisect_left(cdf, (draw() >> 11) / _FLOAT_SCALE, 0, last)
            add_address(base + rank * spread % lines * LINE_BYTES)
            add_write(draw() >> 11 < write_at)
            add_gap(low + _below(draw, bound, shift) if bound else low)

    def preseed(self, rng: HardwareRng) -> dict[int, int]:
        """Tail lines share a small base phase; the hottest few percent —
        which mostly live in the L2 and rarely miss — carry large,
        line-specific distances from their heavy update history."""
        base_phase = rng.next_below(4)
        lines, spread = self.num_lines, self._shuffle_stride
        hot = [base_phase + 6 + rng.next_below(25) for _ in range(max(1, lines // 120))]
        addresses = (self.base + rank * spread % lines * LINE_BYTES for rank in range(lines))
        return dict(zip(addresses, chain(hot, repeat(base_phase))))

    def touched_lines(self) -> list[int]:
        return [self.base + i * LINE_BYTES for i in range(self.num_lines)]


@dataclass
class StaticStream(AccessStream):
    """Read-only references over a region (code / constant data)."""

    base: int
    num_lines: int
    mean_gap: int = 12
    locality: float = 0.7    # probability the next reference stays nearby
    is_instruction: bool = False

    def __post_init__(self) -> None:
        if self.num_lines <= 0:
            raise ValueError(f"num_lines must be positive, got {self.num_lines}")
        self._cursor = 0

    def emit(self, draw, count: int, trace: AccessTrace) -> None:
        base, lines, cursor = self.base, self.num_lines, self._cursor
        stay_at = _float_threshold(self.locality)
        jump_shift = _below_shift(lines)
        low, bound, shift = _gap_params(self.mean_gap)
        add_address = trace.addresses.append
        add_gap = trace.gaps.append
        for _ in range(count):
            if draw() >> 11 < stay_at:
                cursor = (cursor + 1) % lines
            else:
                cursor = _below(draw, lines, jump_shift)
            add_address(base + cursor * LINE_BYTES)
            add_gap(low + _below(draw, bound, shift) if bound else low)
        trace.writes.extend(bytes(count))
        self._cursor = cursor

    def touched_lines(self) -> list[int]:
        return [self.base + i * LINE_BYTES for i in range(self.num_lines)]


@dataclass
class HotStream(AccessStream):
    """Cache-resident working set: generates hits, not misses."""

    base: int
    num_lines: int = 64
    mean_gap: int = 6
    write_prob: float = 0.3

    def __post_init__(self) -> None:
        if self.num_lines <= 0:
            raise ValueError(f"num_lines must be positive, got {self.num_lines}")

    def emit(self, draw, count: int, trace: AccessTrace) -> None:
        # A random line, then a random 8-byte word within it.
        base, lines = self.base, self.num_lines
        line_shift = _below_shift(lines)
        words = LINE_BYTES // 8
        word_shift = _below_shift(words)
        write_at = _float_threshold(self.write_prob)
        low, bound, shift = _gap_params(self.mean_gap)
        add_address = trace.addresses.append
        add_write = trace.writes.append
        add_gap = trace.gaps.append
        for _ in range(count):
            line = _below(draw, lines, line_shift)
            add_address(base + line * LINE_BYTES + _below(draw, words, word_shift) * 8)
            add_write(draw() >> 11 < write_at)
            add_gap(low + _below(draw, bound, shift) if bound else low)

    def touched_lines(self) -> list[int]:
        return [self.base + i * LINE_BYTES for i in range(self.num_lines)]


def update_band(
    base: int,
    num_lines: int,
    mean_gap: int = 10,
    write_prob: float = 0.75,
    phase_range: tuple[int, int] = (10, 26),
    deep: bool = False,
) -> StridedSweep:
    """A contiguous, frequently-updated structure (twolf's cell array, mcf's
    node buckets): every line already carries a large, band-clustered
    sequence distance after fast-forward.

    This is the population regular prediction cannot reach (distance far
    beyond the depth), while the two-level range table and the context LOR
    track it — the exact separation Figures 12/13 measure.

    ``deep=True`` moves the band beyond the reach of a 4-bit range table
    (bucket saturates at 15, i.e. distance 95 with depth 5): hammered
    structures whose update counts only the unbounded context LOR can
    follow.
    """
    if deep:
        phase_range = (110, 170)
    return StridedSweep(
        base,
        num_lines,
        stride_lines=4,
        mean_gap=mean_gap,
        write_prob=write_prob,
        phase_spread=3,
        phase_base_range=phase_range,
    )


def interleave(
    streams: list[tuple[float, AccessStream]],
    references: int,
    rng: HardwareRng,
    burst_mean: int = 6,
) -> AccessTrace:
    """Mix streams by weight into one deterministic trace.

    Streams are visited in *bursts* (mean length ``burst_mean``): programs
    work in phases, so consecutive references — and therefore consecutive
    L2 misses — tend to come from one structure.  Burstiness is what makes
    the context predictor's single LOR register effective (Section 7.4).

    Each burst is one :meth:`AccessStream.emit` block; ``rng`` ends
    advanced by exactly the draws the trace consumed.
    """
    if references < 0:
        raise ValueError(f"references must be non-negative, got {references}")
    if not streams:
        raise ValueError("at least one stream is required")
    if burst_mean < 1:
        raise ValueError(f"burst_mean must be >= 1, got {burst_mean}")
    total_weight = sum(weight for weight, _ in streams)
    if total_weight <= 0:
        raise ValueError("stream weights must sum to a positive value")
    boundaries = []
    acc = 0.0
    for weight, stream in streams:
        acc += weight / total_weight
        boundaries.append((acc, stream))
    last = boundaries[-1][1]
    run_bound = 2 * burst_mean - 1
    run_shift = _below_shift(run_bound)

    trace = AccessTrace()
    draws = DrawBuffer(rng)
    draw = draws.draw
    made = 0
    while made < references:
        # The first stream whose boundary is >= u; the last one when
        # rounding leaves every boundary below u.
        u = (draw() >> 11) / _FLOAT_SCALE
        stream = next((s for boundary, s in boundaries if u <= boundary), last)
        count = min(1 + _below(draw, run_bound, run_shift), references - made)
        stream.emit(draw, count, trace)
        trace.instructions.extend((b"\x01" if stream.is_instruction else b"\x00") * count)
        made += count
    draws.close()
    return trace
