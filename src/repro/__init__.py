"""repro — Counter-mode secure memory with OTP prediction and precomputation.

A full-system reproduction of *"High Efficiency Counter Mode Security
Architecture via Prediction and Precomputation"* (ISCA 2005): from-scratch
AES, cache/DRAM substrates, the secure memory controller with every
prediction scheme the paper evaluates, SPEC2000-like workload models, and a
harness regenerating each table and figure.

Quick tour::

    from repro.secure import SecureMemory
    mem = SecureMemory(key=bytes(32))
    mem.store(0x1000, b"attack at dawn".ljust(32, b"\\x00"))
    mem.load(0x1000, 32)

    from repro.experiments import run_scheme
    metrics = run_scheme("swim", "pred_context")
    print(metrics.prediction_rate)
"""

from repro.secure import (
    ContextOtpPredictor,
    RegularOtpPredictor,
    SecureMemory,
    SecureMemoryController,
    SequenceNumberCache,
    TwoLevelOtpPredictor,
)

__version__ = "1.0.0"

__all__ = [
    "SecureMemory",
    "SecureMemoryController",
    "SequenceNumberCache",
    "RegularOtpPredictor",
    "TwoLevelOtpPredictor",
    "ContextOtpPredictor",
    "__version__",
]
