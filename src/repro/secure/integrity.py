"""Integrity substrate: per-line MACs under a Merkle hash tree.

Counter mode provides privacy but no integrity (Section 2.1): "an additional
measure such as message authentication code (MAC) should be used", and the
architecture assumes a Hash/MAC tree [21] alongside encryption
(Section 2.2's assumption list).  This module supplies that assumed
substrate so the reproduced system is complete:

* each cache line gets a MAC over ``(address, seqnum, ciphertext)``;
* MACs are leaves of an arity-``k`` Merkle tree whose interior nodes live in
  *untrusted* memory, with only the root digest held on-chip;
* verification walks the stored (untrusted) path from the line's leaf to
  the trusted root, then recomputes the leaf from the fetched data — any
  tampering with data, counters, MACs or interior nodes diverges from the
  trusted root.  A line RAM holds no data for must sit on the empty leaf,
  so whether a line was ever sealed is the tree's call.

Node digests and the leaf MACs come from the standard library's SHA-256 and
HMAC (through :func:`repro.crypto.sha256.sha256` and
:class:`~repro.crypto.mac.HmacSha256`).  Verification is functional-only; the
paper's timing evaluation models encryption latency and treats integrity as
an orthogonal cost.
"""

from __future__ import annotations

from repro.crypto.mac import HmacSha256
from repro.crypto.sha256 import sha256
from repro.memory.address import AddressMap, DEFAULT_ADDRESS_MAP
from repro.secure.errors import (
    IntegrityError,
    ReplayDetectedError,
    TamperDetectedError,
)

__all__ = [
    "IntegrityError",
    "TamperDetectedError",
    "ReplayDetectedError",
    "IntegrityTree",
    "FlatMacStore",
]


class FlatMacStore:
    """Per-line MACs *without* a tree — the cheaper, weaker alternative.

    A flat MAC over ``(address, seqnum, ciphertext)`` authenticates data
    and binds it to its location and counter, but because the MACs
    themselves live in untrusted memory, an adversary can replay a
    *consistent old triple* (old ciphertext + old counter + old MAC) and
    pass verification.  Only a tree rooted on-chip (:class:`IntegrityTree`)
    stops that — the distinction the threat tests demonstrate.
    """

    def __init__(self, key: bytes, address_map: AddressMap = DEFAULT_ADDRESS_MAP):
        self.address_map = address_map
        self._mac = HmacSha256(key)
        self.macs: dict[int, bytes] = {}  # untrusted storage
        self.verifications = 0
        self.updates = 0

    def _tag(self, line_address: int, seqnum: int, ciphertext: bytes) -> bytes:
        message = (
            line_address.to_bytes(8, "big")
            + seqnum.to_bytes(8, "big")
            + ciphertext
        )
        return self._mac.tag(message)

    def update(self, line_address: int, seqnum: int, ciphertext: bytes) -> None:
        """Refresh the line's MAC after a write-back."""
        self.updates += 1
        line = self.address_map.line_address(line_address)
        self.macs[line] = self._tag(line, seqnum, ciphertext)

    def verify(self, line_address: int, seqnum: int, ciphertext: bytes) -> None:
        """Check the stored MAC; raises :class:`IntegrityError` on mismatch."""
        self.verifications += 1
        line = self.address_map.line_address(line_address)
        stored = self.macs.get(line)
        if stored is None or stored != self._tag(line, seqnum, ciphertext):
            raise TamperDetectedError(
                f"MAC mismatch for line {line:#x} (seqnum {seqnum})",
                line_address=line,
                seqnum=seqnum,
            )


class IntegrityTree:
    """Sparse Merkle tree over per-line MACs.

    Parameters
    ----------
    key:
        MAC key (held in the protected domain).
    address_bits:
        Width of the byte-address space covered (tree height derives from
        it; 32 bits and 32-byte lines give 27 leaf bits -> 14 levels at
        arity 4).
    arity:
        Children per interior node (power of two).
    """

    def __init__(
        self,
        key: bytes,
        address_bits: int = 32,
        arity: int = 4,
        address_map: AddressMap = DEFAULT_ADDRESS_MAP,
    ):
        if arity < 2 or arity & (arity - 1):
            raise ValueError(f"arity must be a power of two >= 2, got {arity}")
        self.address_map = address_map
        self.arity = arity
        self._mac = HmacSha256(key)
        leaf_bits = address_bits - address_map.line_shift
        arity_bits = arity.bit_length() - 1
        self.levels = max(1, -(-leaf_bits // arity_bits))
        self._arity_bits = arity_bits
        # Untrusted storage: {(level, index): digest}.  Level 0 = leaves.
        self.nodes: dict[tuple[int, int], bytes] = {}
        self._empty = [sha256(b"repro-empty-leaf")]
        for level in range(1, self.levels + 1):
            self._empty.append(sha256(self._empty[-1] * arity))
        self._root = self._empty[self.levels]
        self.verifications = 0
        self.updates = 0

    @property
    def root(self) -> bytes:
        """The on-chip (trusted) root digest."""
        return self._root

    def _leaf_value(
        self, line_address: int, seqnum: int, ciphertext: bytes | None
    ) -> bytes:
        if ciphertext is None:
            return self._empty[0]
        message = (
            line_address.to_bytes(8, "big")
            + seqnum.to_bytes(8, "big")
            + ciphertext
        )
        return self._mac.tag(message)

    def _node(self, level: int, index: int) -> bytes:
        return self.nodes.get((level, index), self._empty[level])

    def _parent_digest(self, level: int, parent_index: int) -> bytes:
        first_child = parent_index << self._arity_bits
        payload = b"".join(
            self._node(level, first_child + i) for i in range(self.arity)
        )
        return sha256(payload)

    def update(self, line_address: int, seqnum: int, ciphertext: bytes) -> None:
        """Write-back path: refresh the line's leaf and the path to the root."""
        self.updates += 1
        index = self.address_map.line_index(line_address)
        self.nodes[(0, index)] = self._leaf_value(line_address, seqnum, ciphertext)
        for level in range(1, self.levels + 1):
            index >>= self._arity_bits
            self.nodes[(level, index)] = self._parent_digest(level - 1, index)
        self._root = self.nodes[(self.levels, 0)]

    def verify(
        self, line_address: int, seqnum: int, ciphertext: bytes | None
    ) -> None:
        """Authenticate what untrusted RAM holds for a line against the root.

        ``ciphertext`` is the line's data in RAM, or ``None`` when RAM holds
        none: the leaf must then be the empty leaf of a line never sealed.
        The stored path is authenticated first, hashing from the stored
        leaf up through the stored (untrusted) siblings; then the leaf
        recomputed from the fetched data must equal the stored one.  A
        subclass of :class:`IntegrityError` is raised on failure:

        * :class:`TamperDetectedError` at ``level`` >= 1 — a stored node
          does not hash from its children;
        * :class:`ReplayDetectedError` — the stored path is internally
          consistent but no longer reaches the on-chip root: every
          untrusted byte was rolled back together;
        * :class:`TamperDetectedError` at ``level`` 0 — the stored path is
          authentic, and only the line's own (counter, ciphertext) in RAM
          disagree with its leaf.
        """
        self.verifications += 1
        leaf_index = index = self.address_map.line_index(line_address)
        digest = self._node(0, index)
        for level in range(1, self.levels + 1):
            index >>= self._arity_bits
            digest = self._parent_digest(level - 1, index)
            if digest != self._node(level, index):
                raise TamperDetectedError(
                    f"hash-tree mismatch at level {level} for line {line_address:#x}",
                    line_address=line_address,
                    seqnum=seqnum,
                    level=level,
                )
        if digest != self._root:
            raise ReplayDetectedError(
                f"root mismatch for line {line_address:#x}: a consistent stale "
                f"state was replayed",
                line_address=line_address,
                seqnum=seqnum,
                level=self.levels,
            )
        if self._leaf_value(line_address, seqnum, ciphertext) != self._node(0, leaf_index):
            raise TamperDetectedError(
                f"leaf MAC mismatch for line {line_address:#x} (seqnum {seqnum})",
                line_address=line_address,
                seqnum=seqnum,
            )

    def tamper_node(self, level: int, index: int, new_digest: bytes) -> None:
        """Adversarially overwrite an interior node (threat-model tests)."""
        self.nodes[(level, index)] = bytes(new_digest)
