"""Golden digests of the per-trace front end: workload, L1/L2 filter, preseed.

Every figure is a replay of a miss trace over a fast-forward preseed, so
these digests pin the whole scheme-independent front end byte for byte:

* one sha256 per (model, machine, references, seed) trace over each
  event in order (gap, L2-hit gap, fetch tuple, write-back tuple), the
  trace totals and the preseed items in iteration order (the order
  decides which page draws which root);
* the same over the direct-mapped DL1 size axis (512 B to 32 KB, 32 B
  lines) on three models;
* one sha256 per (model, seed) over the controller state after
  ``apply_preseed``: backing counters in order, page-table roots in
  order, and the page-table RNG state.

The digests in ``front_end_golden.json`` were captured from the
object-per-access generator and the ``MemoryHierarchy`` filter loop.
Regenerate them (only for a deliberate change of the front end's output)
with::

    PYTHONPATH=src python tests/workloads/test_front_end_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from array import array
from pathlib import Path

import pytest

from repro.cpu.system import collect_miss_trace
from repro.experiments.config import TABLE1_1M, TABLE1_256K
from repro.experiments.runner import SCHEMES, apply_preseed, make_controller
from repro.workloads.spec import KNOWN_BENCHMARKS, build_workload

GOLDEN = Path(__file__).with_name("front_end_golden.json")

MACHINES = (TABLE1_256K, TABLE1_1M)
SHORT_REFS = 3_000
SHORT_SEEDS = (1, 2)
#: Long enough to cross the 400 000-instruction periodic flush.
LONG_REFS = 60_000
LONG_MODELS = ("bzip2", "twolf", "gzip")
#: The direct-mapped DL1 axis: 16, 64, 256 and 1024 sets of 32 B lines.
DL1_SIZES = (512, 2 * 1024, 8 * 1024, 32 * 1024)
DL1_MODELS = ("mcf", "art", "vortex")
DL1_REFS = 20_000


def _preseed_digest(preseed: dict[int, int]) -> bytes:
    digest = hashlib.sha256()
    digest.update(array("Q", preseed.keys()).tobytes())
    digest.update(array("Q", preseed.values()).tobytes())
    return digest.digest()


def trace_digest(miss_trace, preseed_digest: bytes) -> str:
    """sha256 over a miss trace's events and totals plus its preseed."""
    digest = hashlib.sha256()
    for event in miss_trace.events:
        digest.update(
            repr(
                (
                    event.gap_instructions,
                    event.gap_l2_hits,
                    event.fetch_addresses,
                    event.writeback_addresses,
                )
            ).encode()
        )
    digest.update(
        repr(
            (
                miss_trace.total_instructions,
                miss_trace.total_references,
                miss_trace.l1_hits,
                miss_trace.l2_hits,
                miss_trace.l2_misses,
            )
        ).encode()
    )
    digest.update(preseed_digest)
    return digest.hexdigest()


def controller_digest(preseed: dict[int, int], seed: int) -> str:
    """sha256 over a baseline controller's state after ``apply_preseed``."""
    controller = make_controller(SCHEMES["baseline"], TABLE1_256K, seed)
    apply_preseed(controller, preseed)
    table = controller.page_table
    seqnums = controller.backing._seqnums
    pages = table._pages
    digest = hashlib.sha256()
    digest.update(array("Q", seqnums.keys()).tobytes())
    digest.update(array("Q", seqnums.values()).tobytes())
    digest.update(array("Q", pages.keys()).tobytes())
    digest.update(array("Q", (state.root for state in pages.values())).tobytes())
    digest.update(array("Q", (state.mapping_root for state in pages.values())).tobytes())
    digest.update(array("Q", table.rng._s).tobytes())
    return digest.hexdigest()


def _filter(workload, machine, hierarchy_config=None) -> object:
    return collect_miss_trace(
        workload.trace,
        hierarchy_config=hierarchy_config or machine.hierarchy,
        flush_interval_instructions=machine.flush_interval_instructions,
    )


def compute_short() -> tuple[dict[str, str], dict[str, str]]:
    traces, controllers = {}, {}
    for model in KNOWN_BENCHMARKS:
        for seed in SHORT_SEEDS:
            workload = build_workload(model, SHORT_REFS, seed=seed)
            preseed = _preseed_digest(workload.preseed)
            for machine in MACHINES:
                key = f"{model}/{machine.name}/{SHORT_REFS}/{seed}"
                traces[key] = trace_digest(_filter(workload, machine), preseed)
            controllers[f"{model}/{seed}"] = controller_digest(workload.preseed, seed)
    return traces, controllers


def compute_long() -> tuple[dict[str, str], dict[str, int]]:
    traces, flushes = {}, {}
    for model in LONG_MODELS:
        workload = build_workload(model, LONG_REFS, seed=1)
        preseed = _preseed_digest(workload.preseed)
        for machine in MACHINES:
            key = f"{model}/{machine.name}/{LONG_REFS}/1"
            miss_trace = _filter(workload, machine)
            traces[key] = trace_digest(miss_trace, preseed)
            flushes[key] = sum(1 for e in miss_trace.events if not e.fetch_addresses)
    return traces, flushes


def compute_dl1_axis() -> dict[str, str]:
    traces = {}
    machine = TABLE1_256K
    for model in DL1_MODELS:
        workload = build_workload(model, DL1_REFS, seed=1)
        preseed = _preseed_digest(workload.preseed)
        for size in DL1_SIZES:
            config = dataclasses.replace(machine.hierarchy, l1d_size=size)
            key = f"{model}/dl1-{size}/{DL1_REFS}/1"
            traces[key] = trace_digest(_filter(workload, machine, config), preseed)
    return traces


def compute_all() -> dict[str, dict[str, str]]:
    short, controllers = compute_short()
    return {
        "traces": {**short, **compute_long()[0], **compute_dl1_axis()},
        "controllers": controllers,
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN.read_text())


def _mismatches(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    assert set(actual) <= set(expected), sorted(set(actual) - set(expected))
    return sorted(key for key in actual if actual[key] != expected[key])


def test_short_traces_and_preseeded_controllers_match(golden):
    traces, controllers = compute_short()
    assert len(traces) == len(KNOWN_BENCHMARKS) * len(SHORT_SEEDS) * len(MACHINES)
    assert _mismatches(golden["traces"], traces) == []
    assert _mismatches(golden["controllers"], controllers) == []


def test_long_traces_cross_the_flush_and_match(golden):
    traces, flushes = compute_long()
    assert all(flushes.values()), flushes
    assert _mismatches(golden["traces"], traces) == []


def test_direct_mapped_dl1_axis_matches(golden):
    assert _mismatches(golden["traces"], compute_dl1_axis()) == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
