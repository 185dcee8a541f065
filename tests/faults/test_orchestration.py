"""Orchestration chaos: seeded injectors and the sweep and fabric soaks."""

import pytest

from repro.faults.orchestration import (
    ChaosSpec,
    SweepChaos,
    render_soak_report,
    run_sweep_soak,
)
from repro.experiments.supervisor import SupervisorPolicy

KEY_A = "ab" * 32
KEY_B = "cd" * 32


class TestChaosSpec:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            ChaosSpec(kill_rate=1.5)
        with pytest.raises(ValueError):
            ChaosSpec(kill_rate=-0.1)

    def test_rates_must_sum_to_at_most_one(self):
        with pytest.raises(ValueError):
            ChaosSpec(kill_rate=0.6, hang_rate=0.6)
        ChaosSpec(kill_rate=0.5, hang_rate=0.5)  # exactly 1 is fine


class TestSweepChaos:
    def test_decisions_are_deterministic(self):
        spec = ChaosSpec(kill_rate=0.4, corrupt_rate=0.4, seed=7)
        first = SweepChaos(spec)
        second = SweepChaos(spec)
        keys = [KEY_A, KEY_B]
        assert [first.action_for(k, 0) for k in keys] == [
            second.action_for(k, 0) for k in keys
        ]

    def test_decisions_vary_with_seed_and_key(self):
        keys = [f"{i:02x}" * 32 for i in range(64)]
        a = [SweepChaos(ChaosSpec(kill_rate=0.5, seed=1)).action_for(k, 0)
             for k in keys]
        b = [SweepChaos(ChaosSpec(kill_rate=0.5, seed=2)).action_for(k, 0)
             for k in keys]
        assert a != b

    def test_first_attempt_only_by_default(self):
        chaos = SweepChaos(ChaosSpec(kill_rate=1.0))
        assert chaos.action_for(KEY_A, 0) == ("kill", 0.0)
        assert chaos.action_for(KEY_A, 1) is None
        assert chaos.action_for(KEY_A, 2) is None

    def test_every_attempt_when_configured(self):
        chaos = SweepChaos(ChaosSpec(kill_rate=1.0, first_attempt_only=False))
        assert chaos.action_for(KEY_A, 0) == ("kill", 0.0)
        assert chaos.action_for(KEY_A, 3) == ("kill", 0.0)

    def test_planned_actions_are_recorded(self):
        chaos = SweepChaos(ChaosSpec(corrupt_rate=1.0))
        chaos.action_for(KEY_A, 0)
        chaos.action_for(KEY_B, 0)
        assert chaos.planned == [
            (KEY_A, 0, "corrupt"),
            (KEY_B, 0, "corrupt"),
        ]

    def test_hang_and_slow_carry_their_durations(self):
        hang = SweepChaos(ChaosSpec(hang_rate=1.0, hang_seconds=9.0))
        assert hang.action_for(KEY_A, 0) == ("hang", 9.0)
        slow = SweepChaos(ChaosSpec(slow_rate=1.0, slow_seconds=0.25))
        assert slow.action_for(KEY_A, 0) == ("slow", 0.25)


class TestSoak:
    def test_soak_recovers_to_serial_results(self, tmp_path):
        soak_cache = tmp_path / "soak-cache"
        report = run_sweep_soak(
            benchmarks=("gzip",),
            schemes=("oracle", "pred_regular"),
            references=900,
            jobs=2,
            chaos_spec=ChaosSpec(
                kill_rate=0.5, corrupt_rate=0.5, first_attempt_only=True
            ),
            policy=SupervisorPolicy(
                cell_timeout_seconds=30.0,
                max_retries=2,
                backoff_base_seconds=0.01,
                backoff_cap_seconds=0.05,
            ),
            corrupt_cells=1,
            cache_dir=str(soak_cache),
        )
        assert report["supervised_identical_to_serial"]
        assert report["resumed_identical_to_serial"]
        assert report["resume_recomputed_only_poisoned"]
        assert report["ok"]
        assert report["poisoned_entries"] >= 1
        rendered = render_soak_report(report)
        assert "verdict: OK" in rendered
        assert "supervised == serial: True" in rendered
        # An explicit cache_dir keeps the soak's evidence on disk: cached
        # results, the sweep manifests, and the quarantine tier with the
        # poisoned entries.
        assert (soak_cache / "results").is_dir()
        assert list(soak_cache.glob("manifest-*.jsonl"))
        assert (soak_cache / "quarantine").is_dir()


class TestFabricChaos:
    def test_rates_validated(self):
        from repro.faults.orchestration import FabricChaosSpec

        with pytest.raises(ValueError):
            FabricChaosSpec(kill_rate=1.5)
        with pytest.raises(ValueError):
            FabricChaosSpec(kill_rate=0.6, stall_rate=0.6)
        with pytest.raises(ValueError):
            FabricChaosSpec(clock_skew_seconds=-1.0)

    def test_decisions_are_deterministic_and_fire_once(self):
        from repro.faults.orchestration import FabricChaos, FabricChaosSpec

        spec = FabricChaosSpec(
            kill_rate=0.25, stall_rate=0.25, torn_rate=0.25, dup_rate=0.25
        )
        first = FabricChaos(spec)
        second = FabricChaos(spec)
        plans = [first.action_for("w1", key) for key in (KEY_A, KEY_B)]
        assert plans == [
            second.action_for("w1", key) for key in (KEY_A, KEY_B)
        ]
        assert any(plan is not None for plan in plans)
        # Replays of a sabotaged claim run clean: chaos fires at most
        # once per (owner, cell), or takeover loops would never converge.
        assert first.action_for("w1", KEY_A) is None
        assert first.action_for("w1", KEY_B) is None

    def test_immune_owner_gets_no_chaos(self):
        from repro.faults.orchestration import FabricChaos, FabricChaosSpec

        chaos = FabricChaos(
            FabricChaosSpec(
                kill_rate=1.0, clock_skew_seconds=5.0, immune_owners=("c0",)
            )
        )
        assert chaos.action_for("c0", KEY_A) is None
        assert chaos.clock_skew_for("c0") == 0.0
        assert chaos.action_for("c1", KEY_A) == ("kill", 0.0)

    def test_clock_skew_is_seeded_and_bounded(self):
        from repro.faults.orchestration import FabricChaos, FabricChaosSpec

        spec = FabricChaosSpec(clock_skew_seconds=3.0)
        skew = FabricChaos(spec).clock_skew_for("w7")
        assert FabricChaos(spec).clock_skew_for("w7") == skew
        assert -3.0 <= skew <= 3.0
        assert FabricChaos(spec).clock_skew_for("w8") != skew


class TestFabricSoak:
    def test_fabric_soak_converges_to_serial(self, tmp_path):
        from repro.faults.orchestration import (
            render_fabric_soak_report,
            run_fabric_soak,
        )

        soak_cache = tmp_path / "fabric-cache"
        report = run_fabric_soak(
            benchmarks=("gzip",),
            schemes=("oracle", "pred_regular"),
            references=900,
            ttl_seconds=1.5,
            cache_dir=str(soak_cache),
        )
        assert report["duo"]["identical_to_serial"]
        assert report["chaos_drain"]["identical_to_serial"]
        assert report["chaos_drain"]["unique_store_tokens"]
        assert report["takeover"]["identical_to_serial"]
        assert report["takeover"]["takeovers"] >= 1
        assert report["takeover"]["kill_exit_seen"]
        assert report["ok"]
        rendered = render_fabric_soak_report(report)
        assert "verdict: OK" in rendered
        assert "takeover drain == serial: True" in rendered
        # Phase caches (leases, manifests, journals) are kept as evidence.
        for phase in ("serial", "duo", "chaos", "takeover"):
            assert (soak_cache / phase).is_dir()
        assert list((soak_cache / "chaos" / "leases").glob("*/stores.jsonl"))

    def test_takeover_waits_for_a_late_forked_host(self, tmp_path, monkeypatch):
        # Hold the forked host "t1" back 1.5 s before it drains: the
        # in-process "t0" must still wait for t1's claim instead of
        # draining both cells alone, so the takeover phase still sees t1
        # die holding a lease and t0 take it over.
        import time

        from repro.faults import orchestration

        drain_host = orchestration._drain_host

        def late_host(spec_payload, owner, *args):
            if owner == "t1":
                time.sleep(1.5)
            drain_host(spec_payload, owner, *args)

        monkeypatch.setattr(orchestration, "_drain_host", late_host)
        report = orchestration.run_fabric_soak(
            benchmarks=("gzip",),
            schemes=("oracle", "pred_regular"),
            references=900,
            ttl_seconds=1.5,
            cache_dir=str(tmp_path / "fabric-cache"),
        )
        assert report["takeover"]["takeovers"] >= 1
        assert report["takeover"]["kill_exit_seen"]
        assert report["ok"]
