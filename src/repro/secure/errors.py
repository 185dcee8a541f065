"""Structured error taxonomy for the secure memory pipeline.

Section 2.2 assumes an integrity substrate that *detects* tampering; a
production controller additionally has to say *what* it detected so the
layers above can choose a response: retry a transient corruption, quarantine
a persistently tampered line, re-encrypt a page whose counter saturated.
A bare ``ValueError`` or a generic ``IntegrityError`` cannot carry that
decision, so every error the hot paths can raise derives from
:class:`SecureMemoryError` and carries the context a
:class:`~repro.secure.controller.RecoveryPolicy` (or an experiment sweep)
needs to classify it.

Hierarchy::

    SecureMemoryError
    ├── IntegrityError            authentication failed (what, we don't know)
    │   ├── TamperDetectedError   fetched bytes diverge from the MAC/tree
    │   └── ReplayDetectedError   a *consistent* stale state was presented
    ├── CounterOverflowError      a sequence number would wrap (pad-reuse hazard)
    └── FetchFailedError          a fetch gave up (dropped responses, retries
                                  exhausted, quarantined line)

``IntegrityError`` keeps its historical home in
:mod:`repro.secure.integrity` (re-exported from there), so existing callers
and tests that catch it keep working unchanged.
"""

from __future__ import annotations

__all__ = [
    "SecureMemoryError",
    "IntegrityError",
    "TamperDetectedError",
    "ReplayDetectedError",
    "CounterOverflowError",
    "FetchFailedError",
]


class SecureMemoryError(Exception):
    """Base class for every error the secure memory pipeline raises."""


class IntegrityError(SecureMemoryError):
    """Raised when a fetched line fails authentication."""


class TamperDetectedError(IntegrityError):
    """Fetched (ciphertext, counter) bytes diverge from their MAC or tree leaf.

    The classic malleability/corruption case: what came back from untrusted
    memory does not match what the substrate recorded for it.
    """

    def __init__(self, message: str, *, line_address: int, seqnum: int, level: int = 0):
        super().__init__(message)
        self.line_address = line_address
        self.seqnum = seqnum
        #: Tree level at which verification diverged.  0 means the stored
        #: path is authentic and only the line's own (counter, ciphertext)
        #: disagree with its leaf; flat MACs always report 0.
        self.level = level


class ReplayDetectedError(IntegrityError):
    """A *self-consistent* stale (ciphertext, counter, MAC) state was replayed.

    The stored path hashes consistently from leaf to top — the adversary
    rolled back every untrusted byte together — but no longer reaches the
    on-chip root.  Only a tree rooted in the protected domain can make this
    distinction; a flat MAC store accepts such a rollback silently.
    """

    def __init__(self, message: str, *, line_address: int, seqnum: int, level: int):
        super().__init__(message)
        self.line_address = line_address
        self.seqnum = seqnum
        #: First tree level whose recomputed digest diverged from storage.
        self.level = level


class CounterOverflowError(SecureMemoryError):
    """A line's 64-bit sequence number is saturated and cannot advance.

    Incrementing past 2^64 - 1 would wrap the counter to a previously used
    value and reuse a one-time pad — the catastrophic failure counter-mode
    designs must never allow.  The write-back path raises this instead of
    wrapping silently; a recovery policy turns it into a page re-encryption
    under a fresh root.
    """

    def __init__(self, message: str, *, line_address: int, page: int, seqnum: int):
        super().__init__(message)
        self.line_address = line_address
        self.page = page
        self.seqnum = seqnum


class FetchFailedError(SecureMemoryError):
    """A line fetch could not be completed.

    Carries the full fetch context so campaign runners and sweeps can report
    the cell instead of dying: the address, how many attempts were made,
    whether the line is now quarantined, and the last underlying error (a
    dropped DRAM response, an integrity failure that survived every retry,
    ...).
    """

    def __init__(
        self,
        message: str,
        *,
        line_address: int,
        attempts: int = 1,
        quarantined: bool = False,
        cause: Exception | None = None,
    ):
        super().__init__(message)
        self.line_address = line_address
        self.attempts = attempts
        self.quarantined = quarantined
        self.cause = cause
