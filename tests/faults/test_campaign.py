"""FaultCampaign: the detection/recovery matrix and its acceptance bars."""

import dataclasses
import json

import pytest

from repro.faults import FaultCampaign, FaultType, run_smoke_campaign


class TestSmokeCampaign:
    @pytest.fixture(scope="class")
    def report(self):
        return run_smoke_campaign()

    def test_covers_the_full_grid(self, report):
        assert len(report.cells) == 7 * 3
        assert {cell.fault_type for cell in report.cells} == set(FaultType)

    def test_every_integrity_fault_is_detected(self, report):
        assert report.all_detected
        for cell in report.cells:
            if cell.fault_type.integrity_violating:
                assert cell.undetected == 0
                assert cell.detection_rate == 1.0

    def test_retry_recovery_and_degradation_demonstrated(self, report):
        assert report.retry_recovery_demonstrated
        assert report.degradation_demonstrated
        assert report.degradation["post_degradation_speculative_blocks"] == 0

    def test_forced_saturation_is_pad_reuse_free(self, report):
        assert report.pad_reuse_free
        assert report.overflow["overflows"] >= 1
        assert report.overflow["pages_reencrypted"] >= 1
        assert report.overflow["roundtrip_ok"]

    def test_store_after_rollback_is_sealed_under_a_fresh_counter(self, report):
        assert report.rollback["integrity_faults"] == 1
        assert report.rollback["rebased"]
        assert report.rollback["fresh_counter"]
        assert report.rollback["auditor_clean"]
        assert report.rollback["roundtrip_ok"]

    def test_replay_before_first_seal_is_detected_by_load_and_store(self, report):
        assert report.replay["load_detected"]
        assert report.replay["store_detected"]
        assert report.replay["state_untouched"]
        assert report.replay["auditor_clean"]

    @pytest.mark.parametrize(
        "demo, key",
        [
            ("overflow", "auditor_clean"),
            ("rollback", "fresh_counter"),
            ("rollback", "roundtrip_ok"),
            ("replay", "load_detected"),
            ("replay", "store_detected"),
        ],
    )
    def test_pad_reuse_free_needs_every_demo(self, report, demo, key):
        broken = dataclasses.replace(report, **{demo: {**getattr(report, demo), key: False}})
        assert not broken.pad_reuse_free

    def test_delay_has_no_detection_rate(self, report):
        for cell in report.cells:
            if cell.fault_type is FaultType.DELAY:
                assert cell.detection_rate is None

    def test_report_is_machine_readable(self, report):
        data = json.loads(json.dumps(report.to_dict()))
        assert data["all_detected"] is True
        assert data["pad_reuse_free"] is True
        assert len(data["cells"]) == len(report.cells)

    def test_render_contains_verdict(self, report):
        text = report.render()
        assert "verdict:" in text
        assert "all_detected=True" in text
        assert "counter rollback: fresh_counter=True" in text
        assert "replay before first seal: load_detected=True store_detected=True" in text


class TestDeterminism:
    def test_same_seed_same_report(self):
        def run():
            return FaultCampaign(
                fault_types=(FaultType.BIT_FLIP, FaultType.REPLAY),
                rates=(0.3,),
                operations=15,
                seed=5,
                working_set_lines=8,
            ).run()

        assert run().to_dict() == run().to_dict()


class TestValidation:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            FaultCampaign(fault_types=())
        with pytest.raises(ValueError):
            FaultCampaign(rates=())

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            FaultCampaign(rates=(0.0,))
        with pytest.raises(ValueError):
            FaultCampaign(rates=(1.5,))

    def test_rejects_bad_operations(self):
        with pytest.raises(ValueError):
            FaultCampaign(operations=0)
