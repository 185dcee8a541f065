"""sealed_memory: functional sealed memory with the MAC tree on.

A seeded mix of line loads and stores of random data through
``repro.secure.SecureMemory`` over lines spread across many pages, with
three adversary probes per round.  This is the only path where real
AES-CTR and the integrity tree run and no simulation layer does.

Probes, in this order at fixed points of every round:

(a) flip one ciphertext bit in untrusted RAM; the next load must raise
    ``IntegrityError``; the bit is then restored;
(b) roll a line's counter back by one; the next load must raise
    ``IntegrityError``; the rollback is then undone;
(c) on a line no seeded operation touches, with fixed data:
    ``store(x)``, note the counter, ``store(y)``, put the noted counter
    back, ``store(z)``.  It succeeds if ``z`` is sealed under a counter
    never used before and reads back, or if ``store(z)`` raises
    ``IntegrityError`` with counter, ciphertext and tree left as the
    adversary set them.  Anything else is a failed operation.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from dataclasses import dataclass

from harness.common import (
    Measurement, RunContext, peak_rss_mb, rounds_for,
)
from harness.tracing import SEALED_LAYERS

LAYERS = SEALED_LAYERS
NOMINAL_ROUND_S = 1.0
LAP_OPS = 10        # sealed loads and stores per lap of the clock

KEY = bytes(range(16))
LINE = 32
PAGE_SHIFT = 12
PROBE_LINE = 0xFFFFF000             # page 0xFFFFF is never in the seeded pool
PROBE_DATA = (b"\x11" * LINE, b"\x22" * LINE, b"\x33" * LINE)
PROBES = 3

#: FIPS-197 Appendix C.1 (AES-128).
AES128_KEY = bytes(range(16))
AES128_PLAIN = bytes.fromhex("00112233445566778899aabbccddeeff")
AES128_CIPHER = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")


@dataclass(frozen=True)
class Size:
    pages: int
    lines_per_page: int
    stores: int      # per round
    loads: int       # per round


FULL = Size(pages=64, lines_per_page=4, stores=30, loads=60)
SMOKE = Size(pages=4, lines_per_page=2, stores=6, loads=12)


def line_pool(rng: random.Random, size: Size) -> list[int]:
    pages = rng.sample(range(1, 0xFFFFF), size.pages)
    return [
        (page << PAGE_SHIFT) | (line * LINE)
        for page in pages
        for line in sorted(rng.sample(range(4096 // LINE), size.lines_per_page))
    ]


def round_plan(rng: random.Random, size: Size, first: bool) -> list[str]:
    """Loads and stores in seeded order; a run opens with a store."""
    ops = ["store"] * size.stores + ["load"] * size.loads
    rng.shuffle(ops)
    if first and ops[0] == "load":
        swap = ops.index("store")
        ops[0], ops[swap] = ops[swap], ops[0]
    return ops


class SealedRecord:
    """The harness's own account of what was stored and sealed."""

    def __init__(self):
        self.expected: dict[int, bytes] = {}
        self.stored: list[int] = []
        self.sealed: set[tuple[int, int]] = set()

    def check_store(self, line: int, data: bytes, counter: int, ciphertext: bytes) -> list[str]:
        problems = []
        if (line, counter) in self.sealed:
            problems.append(f"line {line:#x} sealed twice under counter {counter}")
        if ciphertext == data:
            problems.append(f"line {line:#x} sits in RAM as plaintext")
        self.sealed.add((line, counter))
        if line not in self.expected:
            self.stored.append(line)
        self.expected[line] = data
        return problems

    def check_load(self, line: int, data: bytes) -> list[str]:
        if data != self.expected[line]:
            return [f"line {line:#x} loaded {data.hex()}, stored {self.expected[line].hex()}"]
        return []


def check_crypto(messages: list[bytes]) -> list[str]:
    """AES-128 against FIPS-197 C.1; SHA-256 and HMAC against hashlib."""
    from repro.crypto.aes import AES
    from repro.crypto.mac import HmacSha256
    from repro.crypto.sha256 import sha256

    problems = []
    cipher = AES(AES128_KEY)
    if cipher.encrypt_block(AES128_PLAIN) != AES128_CIPHER:
        problems.append("AES-128 encrypt_block misses the FIPS-197 C.1 vector")
    if cipher.encrypt_blocks(AES128_PLAIN * 64) != AES128_CIPHER * 64:
        problems.append("AES-128 encrypt_blocks misses the FIPS-197 C.1 vector")
    mac = HmacSha256(KEY)
    for message in messages:
        if sha256(message) != hashlib.sha256(message).digest():
            problems.append(f"SHA-256 differs from hashlib on {message.hex()}")
        if mac.tag(message) != hmac.new(KEY, message, hashlib.sha256).digest():
            problems.append(f"HMAC-SHA256 differs from hmac on {message.hex()}")
    return problems


def _expect_integrity_error(memory, line: int) -> bool:
    from repro.secure.integrity import IntegrityError

    try:
        memory.load(line, LINE)
    except IntegrityError:
        return True
    return False


def probe_tamper(memory, record: SealedRecord, rng: random.Random) -> list[str]:
    """(a) one flipped ciphertext bit must fail the next load; then restore."""
    backing = memory.controller.backing
    line = rng.choice(record.stored)
    original = backing.read_line(line)
    flipped = bytearray(original)
    flipped[rng.randrange(LINE)] ^= 1 << rng.randrange(8)
    backing.write_line(line, bytes(flipped))
    try:
        detected = _expect_integrity_error(memory, line)
    finally:
        backing.write_line(line, original)
    problems = [] if detected else [f"flipped bit in line {line:#x} went undetected"]
    return problems + record.check_load(line, memory.load(line, LINE))


def probe_rollback(memory, record: SealedRecord, rng: random.Random) -> list[str]:
    """(b) a counter rolled back by one must fail the next load; then undo."""
    backing = memory.controller.backing
    line = rng.choice(record.stored)
    counter = backing.read_seqnum(line)
    backing.write_seqnum(line, (counter - 1) % 2**64)
    try:
        detected = _expect_integrity_error(memory, line)
    finally:
        backing.write_seqnum(line, counter)
    problems = [] if detected else [f"rolled-back counter of line {line:#x} went undetected"]
    if backing.read_seqnum(line) != counter:
        problems.append(f"rollback of line {line:#x} was not undone")
    return problems + record.check_load(line, memory.load(line, LINE))


def probe_rollback_store(memory, record: SealedRecord) -> tuple[bool, list[str]]:
    """(c) store after a counter rollback; returns (succeeded, problems)."""
    from repro.secure.errors import SecureMemoryError
    from repro.secure.integrity import IntegrityError

    backing = memory.controller.backing
    tree = memory.controller.integrity_tree
    first, second, third = PROBE_DATA
    problems = []
    memory.store(PROBE_LINE, first)
    counter = backing.read_seqnum(PROBE_LINE)
    problems += record.check_store(PROBE_LINE, first, counter, backing.read_line(PROBE_LINE))
    memory.store(PROBE_LINE, second)
    problems += record.check_store(
        PROBE_LINE, second, backing.read_seqnum(PROBE_LINE), backing.read_line(PROBE_LINE)
    )
    backing.write_seqnum(PROBE_LINE, counter)
    ciphertext, root = backing.read_line(PROBE_LINE), tree.root
    try:
        memory.store(PROBE_LINE, third)
    except IntegrityError:
        untouched = (
            backing.read_seqnum(PROBE_LINE) == counter
            and backing.read_line(PROBE_LINE) == ciphertext
            and tree.root == root
        )
        return untouched, problems
    except SecureMemoryError:
        return False, problems
    sealed_under = backing.read_seqnum(PROBE_LINE)
    fresh = (PROBE_LINE, sealed_under) not in record.sealed
    problems += record.check_store(PROBE_LINE, third, sealed_under, backing.read_line(PROBE_LINE))
    return fresh and memory.load(PROBE_LINE, LINE) == third, problems


def run(ctx: RunContext, size: Size = FULL) -> Measurement:
    from repro.secure import SecureMemory

    rng = random.Random(ctx.seed)
    pool = line_pool(rng, size)
    record = SealedRecord()
    measurement = Measurement()
    memory = SecureMemory(KEY, integrity=True)
    backing = memory.controller.backing
    clock = ctx.clock
    measurement.setup_s = clock.setup()
    for index in range(rounds_for(ctx.seconds, NOMINAL_ROUND_S)):
        ops = round_plan(rng, size, first=index == 0)
        marks = {len(ops) // 3: "a", 2 * len(ops) // 3: "b", len(ops): "c"}
        clock.lap()  # the round starts here
        round_s = 0.0
        for position in range(len(ops) + 1):
            probe = marks.get(position)
            if probe == "a":
                with ctx.operation("sealed.probe_tamper"):
                    measurement.expect(probe_tamper(memory, record, rng))
            elif probe == "b":
                with ctx.operation("sealed.probe_rollback"):
                    measurement.expect(probe_rollback(memory, record, rng))
            elif probe == "c":
                with ctx.operation("sealed.probe_rollback_store"):
                    succeeded, problems = probe_rollback_store(memory, record)
                measurement.expect(problems)
                measurement.failed += not succeeded
            if position == len(ops):
                break
            if ops[position] == "store":
                line, data = rng.choice(pool), rng.randbytes(LINE)
                with clock.operation(), ctx.operation("sealed.store"):
                    memory.store(line, data)
                measurement.expect(record.check_store(
                    line, data, backing.read_seqnum(line), backing.read_line(line)
                ))
            else:
                line = rng.choice(record.stored)
                with clock.operation(), ctx.operation("sealed.load"):
                    data = memory.load(line, LINE)
                measurement.expect(record.check_load(line, data))
            if (position + 1) % LAP_OPS == 0:
                round_s += clock.lap()
        measurement.round_s.append(round_s + clock.lap())
        measurement.attempted += len(ops) + PROBES
    measurement.op_s = clock.op_s

    measurement.peak_rss_mb = peak_rss_mb()
    ctx.end_timed_phase()
    messages = [
        line.to_bytes(8, "big") + backing.read_seqnum(line).to_bytes(8, "big")
        + backing.read_line(line)
        for line in record.stored
    ]
    measurement.expect(check_crypto(messages))
    return measurement
