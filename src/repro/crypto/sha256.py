"""SHA-256 (FIPS 180-4) for the integrity substrate, from :mod:`hashlib`.

Used by the integrity substrate (:mod:`repro.secure.integrity`) for hash-tree
nodes and by :mod:`repro.crypto.mac` for HMAC.  The paper assumes a Hash/MAC
tree exists alongside counter-mode encryption and models only AES timing, so
the hash comes from the standard library; AES stays from scratch
(:mod:`repro.crypto.aes`).
"""

from __future__ import annotations

import hashlib

__all__ = ["sha256"]


def sha256(data: bytes) -> bytes:
    """One-shot SHA-256 of ``data``."""
    return hashlib.sha256(data).digest()
