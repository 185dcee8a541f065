"""Golden digests of replay: every speculating scheme, cell by cell.

Figures 9 to 16 are replays of miss traces through predicting
controllers, so these digests pin the replay of each predictor
configuration byte for byte: one sha256 per (model, machine, references,
seed, scheme) cell over its ``RunMetrics`` fields in order and its
telemetry snapshot's values and kinds.

Cells: the six schemes below x every ``KNOWN_BENCHMARKS`` model x both
Table-1 machines x seeds 1-2 at 3 000 refs, plus ``twolf`` (the model
that resets roots most often) and ``swim`` at 20 000 refs on both
machines.  The replay backend is the one the environment selects, so a
run of the suite under each backend checks each against the same digests.

The digests in ``replay_golden.json`` were captured from the replay core
that ran the regular predictor in closed form and every other predictor
through its ``predict``/``record``/``observe_fetch`` methods.
Regenerate them (only for a deliberate change of replay's output) with::

    PYTHONPATH=src python tests/cpu/test_replay_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.cpu.system import collect_miss_trace, replay_miss_trace
from repro.experiments.config import TABLE1_1M, TABLE1_256K
from repro.experiments.runner import (
    SCHEMES,
    apply_preseed,
    collect_cell_snapshot,
    make_controller,
)
from repro.workloads.spec import KNOWN_BENCHMARKS, build_workload

GOLDEN = Path(__file__).with_name("replay_golden.json")

GOLDEN_SCHEMES = (
    "pred_regular",
    "pred_regular_static",
    "pred_regular_history",
    "pred_two_level",
    "pred_context",
    "pred_plus_cache_32k",
)
MACHINES = (TABLE1_256K, TABLE1_1M)
SHORT_REFS = 3_000
SHORT_SEEDS = (1, 2)
LONG_REFS = 20_000
LONG_MODELS = ("twolf", "swim")


def cell_digest(metrics, snapshot) -> str:
    """sha256 over a cell's metrics fields and snapshot values and kinds."""
    digest = hashlib.sha256()
    digest.update(repr(dataclasses.astuple(metrics)).encode())
    digest.update(repr(sorted(snapshot.values.items())).encode())
    digest.update(repr(sorted(snapshot.kinds.items())).encode())
    return digest.hexdigest()


def _cells(model: str, references: int, seed: int) -> dict[str, str]:
    workload = build_workload(model, references, seed=seed)
    digests = {}
    for machine in MACHINES:
        miss_trace = collect_miss_trace(
            workload.trace,
            hierarchy_config=machine.hierarchy,
            flush_interval_instructions=machine.flush_interval_instructions,
        )
        for scheme in GOLDEN_SCHEMES:
            controller = make_controller(SCHEMES[scheme], machine, seed)
            apply_preseed(controller, workload.preseed)
            metrics = replay_miss_trace(
                miss_trace, controller, core=machine.core, scheme=scheme
            )
            snapshot = collect_cell_snapshot(controller, miss_trace)
            key = f"{model}/{machine.name}/{references}/{seed}/{scheme}"
            digests[key] = cell_digest(metrics, snapshot)
    return digests


def compute_short() -> dict[str, str]:
    digests = {}
    for model in KNOWN_BENCHMARKS:
        for seed in SHORT_SEEDS:
            digests.update(_cells(model, SHORT_REFS, seed))
    return digests


def compute_long() -> dict[str, str]:
    digests = {}
    for model in LONG_MODELS:
        digests.update(_cells(model, LONG_REFS, 1))
    return digests


def _mismatches(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    assert set(actual) <= set(expected), sorted(set(actual) - set(expected))
    return sorted(key for key in actual if actual[key] != expected[key])


def test_short_cells_match():
    golden = json.loads(GOLDEN.read_text())
    digests = compute_short()
    assert len(digests) == (
        len(KNOWN_BENCHMARKS) * len(SHORT_SEEDS) * len(MACHINES)
        * len(GOLDEN_SCHEMES)
    )
    assert _mismatches(golden, digests) == []


def test_long_cells_match():
    golden = json.loads(GOLDEN.read_text())
    digests = compute_long()
    assert len(digests) == len(LONG_MODELS) * len(MACHINES) * len(GOLDEN_SCHEMES)
    assert _mismatches(golden, digests) == []


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({**compute_short(), **compute_long()}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {GOLDEN}")
