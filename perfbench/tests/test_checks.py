"""Each check fails on a deliberately wrong input."""

from __future__ import annotations

import dataclasses
import importlib
from types import SimpleNamespace

import pytest

from harness import cold_cells, figure_grid, sealed_memory, service_jobs

REFS = 1_500


@pytest.fixture(scope="module")
def cell():
    from repro.experiments import runner

    metrics = runner.run_cell("gzip", "pred_plus_cache_32k", references=REFS).metrics
    trace, _ = runner.get_miss_trace("gzip", references=REFS)
    return metrics, trace


# -- cold_cells ----------------------------------------------------------------


def test_cell_checks_pass_on_a_real_cell(cell):
    metrics, trace = cell
    assert cold_cells.check_cell(metrics, trace, REFS) == []


def test_cell_check_catches_a_missing_fetch(cell):
    metrics, trace = cell
    wrong = dataclasses.replace(
        metrics, fetches=metrics.fetches - 1, class_neither=metrics.class_neither - 1
    )
    assert cold_cells.check_cell(wrong, trace, REFS)


def test_cell_check_catches_a_missing_writeback(cell):
    metrics, trace = cell
    wrong = dataclasses.replace(metrics, writebacks=metrics.writebacks + 1)
    assert cold_cells.check_cell(wrong, trace, REFS)


def test_cell_check_catches_unbalanced_fetch_classes(cell):
    metrics, trace = cell
    wrong = dataclasses.replace(metrics, class_both=metrics.class_both + 1)
    assert cold_cells.check_cell(wrong, trace, REFS)


def test_cell_check_catches_lost_references(cell):
    metrics, trace = cell
    assert cold_cells.check_cell(metrics, trace, REFS + 1)


def test_oracle_check_catches_a_cell_faster_than_the_oracle(cell):
    metrics, _ = cell
    assert cold_cells.check_against_oracle(metrics, metrics) == []
    faster = dataclasses.replace(metrics, cycles=metrics.cycles - 1)
    assert cold_cells.check_against_oracle(faster, metrics)


def test_reference_check_catches_any_difference(cell):
    metrics, _ = cell
    assert cold_cells.check_reference_replay(metrics, metrics) == []
    other = dataclasses.replace(metrics, seqcache_hits=metrics.seqcache_hits + 1)
    assert cold_cells.check_reference_replay(metrics, other)


# -- figure_grid ---------------------------------------------------------------

BENCHMARKS = [f"b{i}" for i in range(figure_grid.BENCHMARKS)]


def _series(value: float) -> dict[str, float]:
    return {b: value for b in BENCHMARKS}


def good_figures() -> dict:
    def fig(**series):
        return SimpleNamespace(series={name: _series(v) for name, v in series.items()})

    return {
        "Figure 7": fig(**{"128K_cache": 0.2, "512K_cache": 0.3, "Pred": 0.8}),
        "Figure 8": fig(**{"128K_cache": 0.2, "512K_cache": 0.3, "Pred": 0.79}),
        "Figure 10": fig(
            Seq_Cache_4K=0.6, Seq_Cache_128K=0.7, Seq_Cache_512K=0.75, Pred=0.9
        ),
        "Figure 12": fig(Regular=0.8, Two_Level=0.93, Context=0.97),
        "Figure 13": fig(Regular=0.79, Two_Level=0.93, Context=0.97),
        "Figure 14": fig(L2_256K=100.0, L2_1M=90.0),
    }


def all_figure_problems(figures) -> list[str]:
    return (
        figure_grid.check_claims(figures)
        + figure_grid.check_averages(figures)
        + figure_grid.check_bounds(figures)
    )


def test_figure_checks_pass_on_good_figures():
    assert all_figure_problems(good_figures()) == []


@pytest.mark.parametrize(
    "figure_id, series, value",
    [
        ("Figure 7", "Pred", 0.25),            # 6.1: prediction loses to the caches
        ("Figure 10", "Pred", 0.72),           # 6.2: loses to 512K on average
        ("Figure 12", "Context", 0.90),        # 8: context loses to two-level
        ("Figure 14", "L2_1M", 120.0),         # 8: 1MB makes more predictions
        ("Figure 13", "Two_Level", 0.80),      # 15 points below the paper
        ("Figure 7", "512K_cache", 0.1),       # LRU inclusion broken
    ],
)
def test_figure_checks_catch_a_wrong_series(figure_id, series, value):
    figures = good_figures()
    figures[figure_id].series[series] = _series(value)
    assert all_figure_problems(figures)


def test_figure_checks_catch_one_wrong_benchmark():
    for figure_id, series, value in [
        ("Figure 10", "Pred", 0.65),           # below the 128K cache once
        ("Figure 10", "Seq_Cache_4K", 1.01),   # normalized IPC above 1
        ("Figure 12", "Regular", -0.01),       # a rate below 0
    ]:
        figures = good_figures()
        figures[figure_id].series[series]["b3"] = value
        assert all_figure_problems(figures), (figure_id, series)


def test_figure_checks_catch_a_missing_benchmark():
    figures = good_figures()
    del figures["Figure 8"].series["Pred"]["b0"]
    assert all_figure_problems(figures)


# -- service_jobs ----------------------------------------------------------------


def _job(kind: str, hits: int, body: bytes = b"{}", state: str = "done") -> dict:
    return {
        "tenant": "tenant-a",
        "grid": service_jobs.Grid("gzip", 1),
        "kind": kind,
        "state": state,
        "detail": {"complete": True, "cells_total": 2, "cache_hits": hits},
        "body": body,
    }


def test_job_checks_pass_on_a_fresh_then_warm_grid():
    assert service_jobs.check_jobs([_job("fresh", 0), _job("warm", 2)]) == []


@pytest.mark.parametrize(
    "jobs",
    [
        [_job("fresh", 1)],                         # first job already had hits
        [_job("fresh", 0), _job("warm", 1)],        # finished grid recomputed
        [_job("fresh", 0, state="failed")],
        [_job("fresh", 0), _job("warm", 2, body=b'{"x": 1}')],
    ],
)
def test_job_checks_catch_wrong_jobs(jobs):
    assert service_jobs.check_jobs(jobs)


def test_result_check_catches_changed_bytes():
    from repro.experiments.sweep import run_grid

    size = service_jobs.SMOKE
    body = run_grid(
        ["gzip"], list(service_jobs.SCHEMES), references=size.references, seed=1
    ).canonical_json().encode("utf-8")
    job = _job("fresh", 0, body=body)
    assert service_jobs.check_results([job], size) == []
    job["body"] = body.replace(b"1", b"2", 1)
    assert service_jobs.check_results([job], size)


# -- sealed_memory ---------------------------------------------------------------

LINE = 0x1000


def test_record_catches_a_changed_byte():
    record = sealed_memory.SealedRecord()
    data = bytes(range(32))
    assert record.check_store(LINE, data, 7, b"\xff" * 32) == []
    assert record.check_load(LINE, data) == []
    assert record.check_load(LINE, data[:-1] + b"\x00")


def test_record_catches_plaintext_in_ram_and_counter_reuse():
    record = sealed_memory.SealedRecord()
    data = bytes(32)
    assert record.check_store(LINE, data, 7, data)
    assert record.check_store(LINE, b"\x01" * 32, 7, b"\xff" * 32)


def test_crypto_check_passes_and_catches_a_broken_digest(monkeypatch):
    sha_module = importlib.import_module("repro.crypto.sha256")
    messages = [b"", b"abc", bytes(range(48))]
    assert sealed_memory.check_crypto(messages) == []
    monkeypatch.setattr(sha_module, "sha256", lambda data: bytes(32))
    assert sealed_memory.check_crypto(messages)


def test_crypto_check_catches_a_broken_cipher(monkeypatch):
    from repro.crypto.aes import AES

    monkeypatch.setattr(AES, "encrypt_block", lambda self, block: bytes(16))
    assert sealed_memory.check_crypto([])


def _memory(integrity: bool, record):
    import random

    from repro.secure import SecureMemory

    memory = SecureMemory(sealed_memory.KEY, integrity=integrity)
    rng = random.Random(5)
    for line in (LINE, LINE + 32, LINE + 4096):
        data = rng.randbytes(32)
        memory.store(line, data)
        backing = memory.controller.backing
        record.check_store(line, data, backing.read_seqnum(line), backing.read_line(line))
    return memory, rng


@pytest.mark.parametrize(
    "probe", [sealed_memory.probe_tamper, sealed_memory.probe_rollback]
)
def test_probes_pass_with_the_tree_and_fail_without(probe):
    record = sealed_memory.SealedRecord()
    memory, rng = _memory(True, record)
    assert probe(memory, record, rng) == []
    record = sealed_memory.SealedRecord()
    memory, rng = _memory(False, record)
    assert probe(memory, record, rng)


def test_rollback_store_probe_accepts_only_the_two_safe_endings(monkeypatch):
    from repro.secure.controller import SecureMemoryController
    from repro.secure.integrity import IntegrityError

    record = sealed_memory.SealedRecord()
    memory, _ = _memory(True, record)
    _, problems = sealed_memory.probe_rollback_store(memory, record)
    assert problems == []
    # Refusing the store while leaving the adversary's state alone is safe.
    original = SecureMemoryController.writeback_line

    def refuse_rolled_back(self, now, address, plaintext=None):
        if plaintext == sealed_memory.PROBE_DATA[2]:
            raise IntegrityError("counter rolled back")
        return original(self, now, address, plaintext)

    monkeypatch.setattr(SecureMemoryController, "writeback_line", refuse_rolled_back)
    record = sealed_memory.SealedRecord()
    memory, _ = _memory(True, record)
    assert sealed_memory.probe_rollback_store(memory, record) == (True, [])

    # Refusing it after moving the counter is not.
    def refuse_after_mutating(self, now, address, plaintext=None):
        if plaintext == sealed_memory.PROBE_DATA[2]:
            self.backing.write_seqnum(address, 0)
            raise IntegrityError("counter rolled back")
        return original(self, now, address, plaintext)

    monkeypatch.setattr(SecureMemoryController, "writeback_line", refuse_after_mutating)
    record = sealed_memory.SealedRecord()
    memory, _ = _memory(True, record)
    assert sealed_memory.probe_rollback_store(memory, record) == (False, [])
