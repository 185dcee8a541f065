"""Deterministic model of the processor's hardware random number generator.

The architecture assigns a fresh random *root sequence number* to every
virtual page when it is mapped (and again whenever the adaptive predictor
resets a page).  The real design uses a hardware RNG; for reproducible
simulation we substitute a seeded xoshiro256** generator, which has the same
distributional properties that matter to the mechanism (uniform, independent
64-bit values) while making every experiment replayable.

The substitution is recorded in DESIGN.md Section 2.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import length_hint

__all__ = ["HardwareRng", "DrawBuffer"]

_MASK64 = (1 << 64) - 1


def _rotl(value: int, amount: int) -> int:
    return ((value << amount) | (value >> (64 - amount))) & _MASK64


def _splitmix64(state: int) -> tuple[int, int]:
    """One step of splitmix64; returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


class HardwareRng:
    """xoshiro256** seeded from splitmix64, mirroring the reference code."""

    def __init__(self, seed: int = 0x5EC0_12005):
        state = seed & _MASK64
        self._s = []
        for _ in range(4):
            state, word = _splitmix64(state)
            self._s.append(word)

    def next_u64(self) -> int:
        """Return the next uniform 64-bit value."""
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def next_u64s(self, count: int) -> list[int]:
        """Return the next ``count`` values of :meth:`next_u64` in one loop.

        The same values, and the same final state, as ``count`` calls;
        the state lives in locals for the whole loop.
        """
        s0, s1, s2, s3 = self._s
        values: list[int] = []
        append = values.append
        for _ in repeat(None, count):
            x = s1 * 5 & _MASK64
            append((x << 7 | x >> 57) * 9 & _MASK64)
            t = s1 << 17 & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = (s3 << 45 | s3 >> 19) & _MASK64
        self._s = [s0, s1, s2, s3]
        return values

    def next_bits(self, bits: int) -> int:
        """Return a uniform value in ``[0, 2**bits)`` for ``1 <= bits <= 64``."""
        if not 1 <= bits <= 64:
            raise ValueError(f"bits must be in [1, 64], got {bits}")
        return self.next_u64() >> (64 - bits)

    def next_below(self, bound: int) -> int:
        """Return a uniform value in ``[0, bound)`` via rejection sampling."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        bits = bound.bit_length()
        while True:
            candidate = self.next_bits(min(bits, 64))
            if candidate < bound:
                return candidate

    def next_bytes(self, count: int) -> bytes:
        """Return ``count`` uniform random bytes."""
        chunks = []
        remaining = count
        while remaining > 0:
            chunk = self.next_u64().to_bytes(8, "big")
            chunks.append(chunk[:remaining])
            remaining -= 8
        return b"".join(chunks)

    def next_float(self) -> float:
        """Return a uniform float in [0, 1) with 53 bits of precision."""
        return self.next_bits(53) / (1 << 53)


#: Values :class:`DrawBuffer` draws per :meth:`HardwareRng.next_u64s` call.
_DRAW_BLOCK = 2048


class DrawBuffer:
    """Successive :meth:`HardwareRng.next_u64` values, drawn a block at a time.

    ``draw()`` returns the next value: a C-level call that refills from
    :meth:`HardwareRng.next_u64s` when a block runs out.  :meth:`close`
    settles the generator: it is left exactly where as many ``next_u64()``
    calls as values drawn would have left it.
    """

    def __init__(self, rng: HardwareRng):
        self._rng = rng
        self._mark = rng._s       # state before the block being consumed
        self._current = None      # iterator over that block
        self.draw = chain.from_iterable(self._blocks()).__next__

    def _blocks(self):
        rng = self._rng
        while True:
            self._mark = rng._s
            self._current = iter(rng.next_u64s(_DRAW_BLOCK))
            yield self._current

    def close(self) -> None:
        """Rewind the generator to just after the last value drawn."""
        if self._current is not None:
            self._rng._s = self._mark
            self._rng.next_u64s(_DRAW_BLOCK - length_hint(self._current))
