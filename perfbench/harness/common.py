"""Plumbing shared by every workload: run context, clocks, memory, results.

Nothing here imports the program; workloads import ``repro`` themselves,
after :func:`bind_program` has put the checkout's ``src/`` first on the
path.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

_IMPORTED = time.perf_counter()


class HarnessError(Exception):
    """The harness cannot measure this checkout (not a program fault)."""


def bind_program(root: Path) -> None:
    """Import ``repro`` from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise HarnessError(f"no program sources under {src}")
    sys.path.insert(0, str(src))
    # The program reads its settings from REPRO_* variables: clear them all
    # so every run sees the shipped defaults (run.py then sets only the
    # private cache directory).
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        os.environ.pop(name)
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise HarnessError(f"repro imported from {repro.__file__}, not {src}")


def process_age_s() -> float:
    """Seconds since this process was started, per the kernel's start time."""
    try:
        stat = Path("/proc/self/stat").read_text()
        start_ticks = int(stat.rsplit(")", 1)[1].split()[19])
        started = start_ticks / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - _IMPORTED


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child.

    Linux folds each reaped descendant's peak into its parent's
    ``RUSAGE_CHILDREN`` maximum, so a server that waited for its cell
    workers, once waited for itself, is covered too.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


#: One calibration pass: its iterations, and the seconds a warm pass takes
#: at the reference speed (its time outside the host's fast bursts on a
#: 2.1 GHz Xeon vCPU under Python 3.11).
PASS_ITERATIONS = 200
REFERENCE_PASS_S = 0.00017
#: How often the clock samples the host's speed.
SAMPLE_PERIOD_S = 0.02

_TABLE = list(range(256))
_TALLY = dict.fromkeys(range(256), 0)


def _rotate(value: int) -> int:
    return ((value >> 7) | (value << 25)) & 0xFFFFFFFF


def calibration_pass() -> float:
    """Seconds one fixed pass of pure-Python work takes now.

    Integer arithmetic, a function call, list and dict updates: the mix
    the program's Python spends its time on.  Every stored value stays
    within 32 bits, so each pass does the same work, and it makes no
    container, so the cyclic garbage collector never runs inside it.
    """
    table, tally = _TABLE, _TALLY
    x = 0x9E3779B9
    started = time.perf_counter()
    for _ in range(PASS_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        r = _rotate(x)
        j = r & 255
        table[j] = (table[j] + r) & 0xFFFFFFFF
        tally[j] ^= table[(j + 1) & 255]
    return time.perf_counter() - started


class ReferenceClock:
    """Times work in seconds at a fixed reference speed of the host.

    A shared host changes the speed it gives a process from one 50 ms
    window to the next, in CPU time as much as in wall time: on a 2-vCPU
    VM with no steal time, a pure-Python loop ran up to 1.9x faster in
    bursts of 50 ms to a few seconds, so the raw seconds of a run tell
    how long the host's bursts lasted as much as how fast the program is.
    From its start until :meth:`stop` the clock samples the speed every
    ``SAMPLE_PERIOD_S`` in a ``SIGALRM`` handler, by timing a warm
    calibration pass, and scales each lap's raw seconds, and those of its
    operations, by the lap's mean speed: the mean over its samples of
    ``REFERENCE_PASS_S`` over the pass's time.  The sampler's own time is
    left out of every lap and operation; the blocking calls its signal
    interrupts are resumed (PEP 475).
    """

    def __init__(self):
        self._speeds: list[float] = []
        self._spent = 0.0             # seconds the sampler has taken
        self._ops: list[float] = []
        self.op_s: list[float] = []   # every operation so far, scaled
        self._mark = 0.0
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def _sample(self, *_) -> None:
        begun = time.perf_counter()
        # Only the second pass is timed: a first pass right after other work,
        # or after idling, ran 17-40% slower, by how much depending on the work.
        calibration_pass()
        self._speeds.append(REFERENCE_PASS_S / calibration_pass())
        self._spent += time.perf_counter() - begun

    def _now(self) -> float:
        """Seconds on a clock that stands still while the sampler runs."""
        return time.perf_counter() - self._spent

    def _close(self, raw_s: float) -> float:
        """Scale a lap that ends now, and its operations; the next lap starts."""
        # The lap's last sample also opens the next lap, which is never empty.
        speeds, self._speeds = self._speeds, self._speeds[-1:]
        scale = statistics.fmean(speeds)
        self.op_s.extend(seconds * scale for seconds in self._ops)
        self._ops = []
        self._mark = self._now()
        return raw_s * scale

    def setup(self) -> float:
        """Scaled seconds from the process's start until now."""
        return self._close(process_age_s() - self._spent)

    def lap(self) -> float:
        """Scaled seconds since the previous lap; its operations join ``op_s``."""
        return self._close(self._now() - self._mark)

    @contextlib.contextmanager
    def operation(self):
        """Time one operation of the current lap."""
        begun = self._now()
        yield
        self._ops.append(self._now() - begun)

    def stop(self) -> None:
        """Stop sampling; laps and operations taken so far keep their scale."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def median(values: list[float]) -> float:
    return statistics.median(values)


def p90(values: list[float]) -> float:
    """90th percentile (inclusive interpolation; one value is its own p90)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def rounds_for(seconds: float, nominal_round_s: float) -> int:
    """Whole rounds a run of ``seconds`` makes.

    Fixed by the requested length alone, never by measured speed, so every
    run of one workload attempts exactly the same operations and a slower
    program shows as longer rounds rather than as fewer of them.
    """
    return max(1, round(seconds / nominal_round_s))


@dataclass
class RunContext:
    """What one invocation asks for."""

    seed: int
    seconds: float
    out_dir: Path          # private per-run directory inside the checkout
    clock: ReferenceClock  # started before the program was imported
    tracer: object = None  # a tracing.Tracer in traced runs, else None

    def end_timed_phase(self) -> None:
        """The checks that follow are neither timed nor traced."""
        self.clock.stop()
        if self.tracer is not None:
            self.tracer.uninstall()

    def operation(self, name: str):
        """A span opening a new operation in traced runs; nothing otherwise."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, op=self.tracer.new_op(name))


@dataclass
class Measurement:
    """What a workload measured and checked."""

    setup_s: float = 0.0
    round_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    median_op_s: list[float] | None = None  # the median's own times, if not op_s
    peak_rss_mb: float = 0.0  # taken when the timed phase ends, before any check
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def expect(self, problems: list[str]) -> None:
        self.problems.extend(problems)

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        return {
            "setup_s": (self.setup_s, "s"),
            "wall_s": (median(self.round_s), "s"),
            "op_p50_s": (median(self.median_op_s or self.op_s), "s"),
            "op_p90_s": (p90(self.op_s), "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }


def result_line(
    correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]
) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
