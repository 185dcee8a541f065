"""Functional backing store: the unprotected RAM of Figure 2.

Holds, per cache-line-sized block: the (encrypted) data bytes and the
associated sequence number, exactly as the paper lays physical memory out
("Encrypted RAM Block (32 bytes) | counter").  The integrity substrate can
additionally attach a MAC per line.

Everything here is *outside* the protected domain — tests in
:mod:`repro.secure.threat` treat this object as the adversary's view.
"""

from __future__ import annotations

from repro.memory.address import AddressMap, DEFAULT_ADDRESS_MAP

__all__ = ["BackingStore"]


class BackingStore:
    """Sparse line-granular memory with co-located sequence numbers."""

    def __init__(self, address_map: AddressMap = DEFAULT_ADDRESS_MAP):
        self.address_map = address_map
        self._data: dict[int, bytes] = {}
        self._seqnums: dict[int, int] = {}
        self._macs: dict[int, bytes] = {}

    # -- data ---------------------------------------------------------------

    def read_line(self, address: int) -> bytes:
        """Read the (encrypted) bytes of the line containing ``address``."""
        line = self.address_map.line_address(address)
        blank = bytes(self.address_map.line_bytes)
        return self._data.get(line, blank)

    def has_line(self, address: int) -> bool:
        """True if the line containing ``address`` was ever written."""
        return self.address_map.line_address(address) in self._data

    def write_line(self, address: int, data: bytes) -> None:
        """Store line bytes (must be exactly one line long)."""
        if len(data) != self.address_map.line_bytes:
            raise ValueError(
                f"line must be {self.address_map.line_bytes} bytes, got {len(data)}"
            )
        self._data[self.address_map.line_address(address)] = bytes(data)

    # -- sequence numbers -----------------------------------------------------

    def read_seqnum(self, address: int) -> int | None:
        """Sequence number stored next to the line.

        Returns ``None`` for a line whose counter was never written, so the
        secure controller can substitute the page's mapping-time root (the
        value the counter array conceptually holds after page setup).
        """
        return self._seqnums.get(self.address_map.line_address(address))

    def write_seqnum(self, address: int, seqnum: int) -> None:
        """Store the line's counter (the write-back path's update)."""
        if seqnum < 0:
            raise ValueError(f"seqnum must be non-negative, got {seqnum}")
        self._seqnums[self.address_map.line_address(address)] = seqnum

    def write_seqnums(self, seqnums: dict[int, int]) -> None:
        """Store many lines' counters at once, in ``seqnums``' order.

        The same as :meth:`write_seqnum` per item for line-aligned
        addresses and non-negative counters, which the caller guarantees
        (the fast-forward preseed install).
        """
        self._seqnums.update(seqnums)

    # -- MACs -----------------------------------------------------------------

    def read_mac(self, address: int) -> bytes | None:
        """The line's stored MAC, or None."""
        return self._macs.get(self.address_map.line_address(address))

    def write_mac(self, address: int, mac: bytes) -> None:
        """Store the line's MAC."""
        self._macs[self.address_map.line_address(address)] = bytes(mac)

    # -- adversary / diagnostics ----------------------------------------------

    def tamper_line(self, address: int, flip_mask: bytes) -> None:
        """Adversarially XOR ``flip_mask`` into a stored line (threat model)."""
        line = self.address_map.line_address(address)
        current = bytearray(self.read_line(line))
        for i, flip in enumerate(flip_mask[: len(current)]):
            current[i] ^= flip
        self._data[line] = bytes(current)

    def stored_lines(self) -> list[int]:
        """Addresses of all lines ever written (adversary's observable set)."""
        return sorted(self._data)

    def seqnum_lines(self) -> list[int]:
        """Addresses of all lines with a stored counter.

        In timing-only mode the counter array is populated while the data
        array stays empty, so this set can be wider than
        :meth:`stored_lines`; the page re-encryption path walks it to reach
        every counter-bearing line of a page.
        """
        return sorted(self._seqnums)

    def __len__(self) -> int:
        return len(self._data)
