"""Cryptographic substrate: AES, SHA-256, MACs, CTR mode, RNG, engine model.

AES, CTR mode, CBC-MAC and the RNG are implemented from scratch (no external
crypto libraries), because AES timing is what the paper models.  SHA-256
and HMAC-SHA256, which only the integrity tree uses, come from the standard
library's :mod:`hashlib` and :mod:`hmac`.  The functional primitives
(:class:`~repro.crypto.aes.AES`, :class:`~repro.crypto.ctr.CtrMode`, the
MACs) encrypt real bytes; the :class:`~repro.crypto.engine.CryptoEngine`
models *when* a pipelined hardware implementation would deliver those
results.
"""

from repro.crypto.aes import AES, BLOCK_SIZE, KEY_SIZES, set_vectorized, vectorized_enabled
from repro.crypto.ctr import CtrMode, make_counter_block, xor_bytes
from repro.crypto.engine import (
    CryptoEngine,
    CryptoEngineConfig,
    CryptoEngineStats,
    PadCache,
    PadCacheStats,
)
from repro.crypto.mac import CbcMac, HmacSha256, constant_time_equal
from repro.crypto.rng import HardwareRng
from repro.crypto.sha256 import sha256

__all__ = [
    "AES",
    "BLOCK_SIZE",
    "KEY_SIZES",
    "set_vectorized",
    "vectorized_enabled",
    "CtrMode",
    "make_counter_block",
    "xor_bytes",
    "CryptoEngine",
    "CryptoEngineConfig",
    "CryptoEngineStats",
    "PadCache",
    "PadCacheStats",
    "CbcMac",
    "HmacSha256",
    "constant_time_equal",
    "HardwareRng",
    "sha256",
]
