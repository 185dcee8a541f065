"""The reference clock scales laps and operations by the sampled speed."""

from __future__ import annotations

import time

from harness import common


def test_a_host_at_half_the_reference_speed_halves_the_seconds(monkeypatch):
    # Every pass takes twice its reference time, as on a host at half speed.
    monkeypatch.setattr(common, "calibration_pass", lambda: 2 * common.REFERENCE_PASS_S)
    clock = common.ReferenceClock()
    try:
        clock.lap()
        with clock.operation():
            time.sleep(0.05)  # outlasts two samples; the sleep resumes after each
        lap = clock.lap()
    finally:
        clock.stop()
    [op] = clock.op_s
    assert 0.025 <= op <= lap < 0.05

