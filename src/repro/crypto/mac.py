"""Message authentication codes for the integrity substrate.

Counter mode by itself is malleable and provides no integrity (Section 2.1 of
the paper); a MAC must be layered on top.  Two constructions are provided:

* :class:`CbcMac` — AES-CBC-MAC with length prepending, matching the kind of
  block-cipher-based MAC a hardware crypto engine would share silicon with.
* :class:`HmacSha256` — HMAC-SHA256 (FIPS 198) from the standard library's
  :mod:`hmac`, used by the hash-tree integrity substrate.
"""

from __future__ import annotations

import hmac

from repro.crypto.aes import AES, BLOCK_SIZE
from repro.crypto.sha256 import sha256

__all__ = ["CbcMac", "HmacSha256", "constant_time_equal"]


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without early exit on first mismatch."""
    return hmac.compare_digest(a, b)


class CbcMac:
    """AES-CBC-MAC with the message length bound into the first block.

    Prepending the length makes the construction secure for variable-length
    messages (plain CBC-MAC is only secure for fixed-length input).
    """

    def __init__(self, key: bytes):
        self._cipher = AES(key)

    def tag(self, message: bytes) -> bytes:
        """Compute the 16-byte tag of ``message``."""
        header = len(message).to_bytes(8, "big").rjust(BLOCK_SIZE, b"\x00")
        padded = message + b"\x00" * (-len(message) % BLOCK_SIZE)
        state = self._cipher.encrypt_block(header)
        for start in range(0, len(padded), BLOCK_SIZE):
            block = padded[start: start + BLOCK_SIZE]
            state = self._cipher.encrypt_block(
                bytes(s ^ m for s, m in zip(state, block))
            )
        return state

    def verify(self, message: bytes, tag: bytes) -> bool:
        """Constant-time check that ``tag`` authenticates ``message``."""
        return constant_time_equal(self.tag(message), tag)


class HmacSha256:
    """HMAC-SHA256 (FIPS 198) under one fixed key."""

    _BLOCK = 64

    def __init__(self, key: bytes):
        # FIPS 198: a key longer than the hash's block is hashed first.
        self._key = sha256(key) if len(key) > self._BLOCK else bytes(key)

    def tag(self, message: bytes) -> bytes:
        """Compute the 32-byte HMAC tag of ``message``."""
        return hmac.digest(self._key, message, "sha256")

    def verify(self, message: bytes, tag: bytes) -> bool:
        """Constant-time check that ``tag`` authenticates ``message``."""
        return constant_time_equal(self.tag(message), tag)
