"""Put the harness and the program on the path; give each test a private cache.

Run with ``python3 -m pytest perfbench/tests`` from the checkout root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))

from harness import common  # noqa: E402

common.bind_program(ROOT)


@pytest.fixture
def ctx(tmp_path, monkeypatch):
    """An untraced one-round context over a private, empty result cache."""
    from repro.experiments import cache as result_cache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    result_cache.reset_default_cache()
    ctx = common.RunContext(
        seed=3, seconds=0.1, out_dir=tmp_path, clock=common.ReferenceClock()
    )
    yield ctx
    ctx.end_timed_phase()
    result_cache.reset_default_cache()
