"""Secure memory controller: timing paths, counters, functional crypto."""

import contextlib

import pytest

from repro.crypto.engine import CryptoEngine
from repro.crypto.rng import HardwareRng
from repro.faults import FaultInjector
from repro.memory.dram import Dram
from repro.secure.controller import FetchClass, SecureMemoryController
from repro.secure.integrity import IntegrityError, ReplayDetectedError
from repro.secure.predictors import (
    ContextOtpPredictor,
    NullPredictor,
    RegularOtpPredictor,
    TwoLevelOtpPredictor,
)
from repro.secure.seqcache import SequenceNumberCache
from repro.secure.seqnum import PageSecurityTable
from repro.secure.threat import PadReuseError

LINE = 0x1000


def build_controller(**kwargs):
    table = kwargs.pop("page_table", None) or PageSecurityTable(rng=HardwareRng(7))
    predictor_factory = kwargs.pop("predictor_factory", None)
    predictor = predictor_factory(table) if predictor_factory else None
    return SecureMemoryController(page_table=table, predictor=predictor, **kwargs)


class TestConstruction:
    def test_defaults(self):
        controller = SecureMemoryController()
        assert isinstance(controller.predictor, NullPredictor)
        assert not controller.functional

    def test_foreign_page_table_rejected(self):
        table_a = PageSecurityTable()
        table_b = PageSecurityTable()
        with pytest.raises(ValueError, match="share"):
            SecureMemoryController(
                page_table=table_a, predictor=NullPredictor(table_b)
            )

    def test_pad_buffer_must_hold_one_line(self):
        with pytest.raises(ValueError, match="pad buffer"):
            SecureMemoryController(pad_buffer_entries=1)

    def test_integrity_requires_key(self):
        with pytest.raises(ValueError, match="functional"):
            SecureMemoryController(integrity=True)


class TestBaselineTiming:
    def test_pad_generation_serialized_after_seqnum(self):
        controller = build_controller()
        result = controller.fetch_line(0, LINE)
        # Figure 4(a): demand pad can only start once the seqnum returned.
        assert result.pad_ready >= result.seqnum_ready + controller.engine.latency
        assert result.data_ready == result.pad_ready

    def test_exposed_latency_accounts_from_issue(self):
        controller = build_controller()
        result = controller.fetch_line(100, LINE)
        assert result.exposed_latency == result.data_ready - 100


class TestOracleTiming:
    def test_pad_overlaps_fetch(self):
        controller = build_controller(oracle=True)
        result = controller.fetch_line(0, LINE)
        # Two pipelined blocks issued at t=0: last completes at latency + 1.
        assert result.pad_ready == controller.engine.latency + 1
        assert result.data_ready == max(result.line_ready, result.pad_ready)

    def test_oracle_beats_baseline(self):
        oracle = build_controller(oracle=True)
        baseline = build_controller()
        assert (
            oracle.fetch_line(0, LINE).data_ready
            < baseline.fetch_line(0, LINE).data_ready
        )


class TestSeqcachePath:
    def test_miss_then_hit(self):
        controller = build_controller(seqcache=SequenceNumberCache(4096))
        first = controller.fetch_line(0, LINE)
        assert not first.seqcache_hit
        second = controller.fetch_line(10_000, LINE)
        assert second.seqcache_hit
        assert second.data_ready - 10_000 < first.data_ready - 0

    def test_writeback_installs_counter(self):
        controller = build_controller(seqcache=SequenceNumberCache(4096))
        controller.writeback_line(0, LINE)
        result = controller.fetch_line(10_000, LINE)
        assert result.seqcache_hit


class TestPredictionPath:
    def test_fresh_line_predicted(self):
        controller = build_controller(
            predictor_factory=lambda t: RegularOtpPredictor(t, depth=5)
        )
        result = controller.fetch_line(0, LINE)
        assert result.predicted
        assert result.fetch_class is FetchClass.PRED_ONLY
        # Speculative pads were ready long before the demand path would be.
        assert result.pad_ready < result.seqnum_ready + controller.engine.latency

    def test_prediction_hides_latency_vs_baseline(self):
        pred = build_controller(
            predictor_factory=lambda t: RegularOtpPredictor(t, depth=5)
        )
        base = build_controller()
        assert (
            pred.fetch_line(0, LINE).data_ready
            < base.fetch_line(0, LINE).data_ready
        )

    def test_out_of_depth_seqnum_mispredicts(self):
        controller = build_controller(
            predictor_factory=lambda t: RegularOtpPredictor(t, depth=5)
        )
        page = controller.address_map.page_number(LINE)
        root = controller.page_table.state(page).mapping_root
        controller.backing.write_seqnum(LINE, root + 50)
        result = controller.fetch_line(0, LINE)
        assert not result.predicted
        assert result.fetch_class is FetchClass.NEITHER
        # Fell back to the demand path.
        assert result.pad_ready >= result.seqnum_ready + controller.engine.latency

    def test_context_predictor_covers_drifted_lines(self):
        controller = build_controller(
            predictor_factory=lambda t: ContextOtpPredictor(t, depth=5, swing=3)
        )
        page = controller.address_map.page_number(LINE)
        root = controller.page_table.state(page).mapping_root
        controller.backing.write_seqnum(LINE, root + 20)
        controller.backing.write_seqnum(LINE + 32, root + 21)
        first = controller.fetch_line(0, LINE)          # trains the LOR
        second = controller.fetch_line(10_000, LINE + 32)
        assert not first.predicted
        assert second.predicted

    def test_guess_list_capped_by_pad_buffer(self):
        controller = build_controller(
            predictor_factory=lambda t: RegularOtpPredictor(t, depth=63),
            pad_buffer_entries=8,  # 4 guesses of 2 blocks
        )
        controller.fetch_line(0, LINE)
        assert controller.engine.stats.speculative_blocks == 8

    def test_speculation_charged_to_engine(self):
        controller = build_controller(
            predictor_factory=lambda t: RegularOtpPredictor(t, depth=5)
        )
        controller.fetch_line(0, LINE)
        assert controller.engine.stats.speculative_blocks == 12  # 6 guesses x 2


class TestClassification:
    def test_both_hit(self):
        controller = build_controller(
            predictor_factory=lambda t: RegularOtpPredictor(t, depth=5),
            seqcache=SequenceNumberCache(4096),
        )
        controller.fetch_line(0, LINE)
        result = controller.fetch_line(10_000, LINE)
        assert result.fetch_class is FetchClass.BOTH
        assert controller.stats.class_counts[FetchClass.BOTH] == 1

    def test_cache_only(self):
        controller = build_controller(
            predictor_factory=lambda t: RegularOtpPredictor(t, depth=5),
            seqcache=SequenceNumberCache(4096),
        )
        page = controller.address_map.page_number(LINE)
        root = controller.page_table.state(page).mapping_root
        controller.backing.write_seqnum(LINE, root + 50)
        controller.fetch_line(0, LINE)
        result = controller.fetch_line(10_000, LINE)
        assert result.fetch_class is FetchClass.CACHE_ONLY


class TestWriteback:
    def test_counter_increments(self):
        controller = build_controller()
        before = controller.current_seqnum(LINE)
        result = controller.writeback_line(0, LINE)
        assert result.seqnum == before + 1
        assert controller.current_seqnum(LINE) == before + 1
        assert not result.rebased

    def test_repeated_writebacks_keep_incrementing(self):
        controller = build_controller()
        first = controller.writeback_line(0, LINE).seqnum
        second = controller.writeback_line(100, LINE).seqnum
        assert second == first + 1

    def test_rebase_after_root_reset(self):
        controller = build_controller()
        page = controller.address_map.page_number(LINE)
        controller.writeback_line(0, LINE)
        controller.page_table.reset_root(page)
        result = controller.writeback_line(100, LINE)
        assert result.rebased
        assert result.seqnum == controller.page_table.root(page)
        assert controller.stats.rebased_writebacks == 1

    def test_writeback_uses_engine_and_dram(self):
        controller = build_controller()
        result = controller.writeback_line(0, LINE)
        assert controller.engine.stats.demand_blocks == 2
        assert controller.dram.stats.writes == 1
        assert result.completion_time > controller.engine.latency


class TestFunctionalMode:
    def test_roundtrip_through_untrusted_memory(self, key256):
        controller = build_controller(key=key256)
        plaintext = bytes(range(32))
        controller.writeback_line(0, LINE, plaintext)
        # The backing store never sees the plaintext.
        assert controller.backing.read_line(LINE) != plaintext
        result = controller.fetch_line(1000, LINE)
        assert result.plaintext == plaintext

    def test_unwritten_line_reads_zero(self, key256):
        controller = build_controller(key=key256)
        assert controller.fetch_line(0, LINE).plaintext == bytes(32)

    def test_writeback_requires_plaintext(self, key256):
        controller = build_controller(key=key256)
        with pytest.raises(ValueError, match="plaintext"):
            controller.writeback_line(0, LINE)

    def test_wrong_length_plaintext_rejected(self, key256):
        controller = build_controller(key=key256)
        with pytest.raises(ValueError):
            controller.writeback_line(0, LINE, bytes(16))

    def test_pad_reuse_audited(self, key256):
        controller = build_controller(key=key256)
        for i in range(20):
            controller.writeback_line(i * 100, LINE, bytes(32))
        assert controller.auditor.clean
        assert controller.auditor.seals == 20

    def test_integrity_detects_tampering(self, key256):
        controller = build_controller(key=key256, integrity=True)
        controller.writeback_line(0, LINE, bytes(32))
        controller.backing.tamper_line(LINE, b"\x01")
        with pytest.raises(IntegrityError):
            controller.fetch_line(1000, LINE)

    def test_integrity_passes_untampered(self, key256):
        controller = build_controller(key=key256, integrity=True)
        controller.writeback_line(0, LINE, bytes(range(32)))
        assert controller.fetch_line(1000, LINE).plaintext == bytes(range(32))

    def test_integrity_detects_counter_replay(self, key256):
        # Adversary rolls the stored counter back to an old value (with the
        # matching old ciphertext withheld — just the counter here).
        controller = build_controller(key=key256, integrity=True)
        controller.writeback_line(0, LINE, bytes(32))
        old_counter = controller.backing.read_seqnum(LINE)
        controller.writeback_line(100, LINE, bytes(range(32)))
        controller.backing.write_seqnum(LINE, old_counter)
        with pytest.raises(IntegrityError):
            controller.fetch_line(1000, LINE)


class TestVerifyBeforeWriteback:
    """A write-back trusts no counter the tree has not vouched for."""

    X, Y, Z = b"\x11" * 32, b"\x22" * 32, b"\x33" * 32

    def _rolled_back(self, controller):
        """Store x, note the counter, store y, write the counter back."""
        controller.writeback_line(0, LINE, self.X)
        noted = controller.backing.read_seqnum(LINE)
        controller.writeback_line(100, LINE, self.Y)
        used = {noted, controller.backing.read_seqnum(LINE)}
        controller.backing.write_seqnum(LINE, noted)
        return noted, used

    def test_store_after_counter_rollback_seals_under_a_fresh_counter(self, key256):
        controller = build_controller(key=key256, integrity=True)
        _, used = self._rolled_back(controller)
        result = controller.writeback_line(200, LINE, self.Z)
        assert result.rebased
        assert result.seqnum not in used
        assert controller.backing.read_seqnum(LINE) == result.seqnum
        assert controller.auditor.clean
        assert controller.resilience.integrity_faults == 1
        assert controller.fetch_line(300, LINE).plaintext == self.Z

    def test_store_after_lost_line_data_seals_under_a_fresh_counter(self, key256):
        # RAM drops a sealed line's data: its counter still reads as the
        # page's mapping root, which the first seal counted from.
        controller = build_controller(key=key256, integrity=True)
        first = controller.writeback_line(0, LINE, self.X).seqnum
        del controller.backing._data[LINE]
        del controller.backing._seqnums[LINE]
        with pytest.raises(IntegrityError):
            controller.fetch_line(100, LINE)
        result = controller.writeback_line(200, LINE, self.Y)
        assert result.seqnum != first
        assert controller.auditor.clean
        assert controller.fetch_line(300, LINE).plaintext == self.Y

    def test_replay_to_before_first_seal_is_detected(self, key256):
        controller = build_controller(key=key256, integrity=True)
        injector = FaultInjector(controller)
        injector.snapshot()
        controller.writeback_line(0, LINE, self.X)
        root = controller.integrity_tree.root
        injector.inject_replay(LINE)
        # RAM holds nothing for the line, but the tree says it was sealed.
        with pytest.raises(IntegrityError):
            controller.fetch_line(100, LINE)
        # The replayed tree does not reach the on-chip root, so the store
        # is refused before any counter moves: no pad is reused.
        with pytest.raises(ReplayDetectedError):
            controller.writeback_line(200, LINE, self.Y)
        assert controller.backing.read_seqnum(LINE) is None
        assert not controller.backing.has_line(LINE)
        assert controller.integrity_tree.root == root
        assert controller.auditor.clean
        injector.repair_all()
        controller.writeback_line(300, LINE, self.Y)
        assert controller.fetch_line(400, LINE).plaintext == self.Y
        assert controller.auditor.clean

    def test_store_after_whole_image_replay_keeps_other_lines_stale(self, key256):
        # Rebuilding a path from replayed siblings would re-anchor the root
        # on them and let every other line's stale value load silently.
        other = LINE + 0x10000
        controller = build_controller(key=key256, integrity=True)
        injector = FaultInjector(controller)
        controller.writeback_line(0, LINE, self.X)
        controller.writeback_line(0, other, self.X)
        injector.snapshot()
        controller.writeback_line(100, LINE, self.Y)
        controller.writeback_line(100, other, self.Y)
        injector.inject_replay(LINE)
        with contextlib.suppress(IntegrityError):
            controller.writeback_line(200, LINE, self.Z)
        with pytest.raises(IntegrityError):
            controller.fetch_line(300, other)
        assert controller.auditor.clean

    def test_without_a_tree_pad_reuse_raises_before_any_state_moves(self, key256):
        controller = build_controller(
            key=key256,
            seqcache=SequenceNumberCache(4096),
            predictor_factory=lambda t: TwoLevelOtpPredictor(t),
        )
        noted, _ = self._rolled_back(controller)
        ciphertext = controller.backing.read_line(LINE)
        seqcache_stats = dict(vars(controller.seqcache.stats))
        observed = []
        controller.predictor.observe_writeback = (
            lambda *args: observed.append(args)
        )
        with pytest.raises(PadReuseError):
            controller.writeback_line(200, LINE, self.Z)
        assert controller.backing.read_seqnum(LINE) == noted
        assert controller.backing.read_line(LINE) == ciphertext
        assert dict(vars(controller.seqcache.stats)) == seqcache_stats
        assert observed == []
        assert controller.stats.writebacks == 2


class TestStats:
    def test_fetch_counters(self):
        controller = build_controller()
        controller.fetch_line(0, LINE)
        controller.fetch_line(500, LINE + 32)
        assert controller.stats.fetches == 2
        assert controller.stats.mean_exposed_latency > 0

    def test_coverage_oracle_is_high(self):
        controller = build_controller(oracle=True)
        for i in range(5):
            controller.fetch_line(i * 1000, LINE + i * 32)
        assert controller.stats.coverage == 1.0
