"""Lease protocol: claims, takeover, fencing tokens, torn files."""

import dataclasses
import json

import pytest

from repro.fabric.lease import Lease, LeaseLost, LeaseManager

KEY = "a" * 64
KEY2 = "b" * 64


class FakeClock:
    def __init__(self, now: float = 1_000_000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


def manager(tmp_path, clock, owner: str, ttl: float = 10.0) -> LeaseManager:
    return LeaseManager(tmp_path / "leases", owner=owner, ttl_seconds=ttl,
                        clock=clock)


class TestClaim:
    def test_fresh_claim_wins_with_token_one(self, tmp_path, clock):
        mgr = manager(tmp_path, clock, "a:1")
        lease = mgr.try_acquire(KEY)
        assert lease is not None
        assert (lease.owner, lease.token, lease.state) == ("a:1", 1, "held")
        assert mgr.stats.acquired == 1
        assert mgr._lease_path(KEY).exists()

    def test_live_lease_contends(self, tmp_path, clock):
        manager(tmp_path, clock, "a:1").try_acquire(KEY)
        other = manager(tmp_path, clock, "b:2")
        assert other.try_acquire(KEY) is None
        assert other.stats.contended == 1

    def test_contended_counts_cells_not_polls(self, tmp_path, clock):
        holder = manager(tmp_path, clock, "a:1")
        holder.try_acquire(KEY)
        other = manager(tmp_path, clock, "b:2")
        assert other.try_acquire(KEY) is None
        assert other.try_acquire(KEY) is None
        assert other.stats.contended == 1
        holder.try_acquire(KEY2)
        assert other.try_acquire(KEY2) is None
        assert other.stats.contended == 2

    def test_reclaim_by_owner_is_idempotent(self, tmp_path, clock):
        mgr = manager(tmp_path, clock, "a:1")
        first = mgr.try_acquire(KEY)
        again = mgr.try_acquire(KEY)
        assert again is not None
        assert again.token == first.token
        assert mgr.stats.acquired == 1

    def test_invalid_ttl_rejected(self, tmp_path, clock):
        with pytest.raises(ValueError):
            manager(tmp_path, clock, "a:1", ttl=0.0)


class TestTakeover:
    def test_expired_lease_taken_over_with_higher_token(self, tmp_path, clock):
        stale = manager(tmp_path, clock, "a:1")
        old = stale.try_acquire(KEY)
        clock.advance(11.0)
        fresh = manager(tmp_path, clock, "b:2")
        taken = fresh.try_acquire(KEY)
        assert taken is not None
        assert taken.token == old.token + 1
        assert fresh.stats.taken_over == 1

    def test_stale_owner_renewal_raises_lease_lost(self, tmp_path, clock):
        stale = manager(tmp_path, clock, "a:1")
        old = stale.try_acquire(KEY)
        clock.advance(11.0)
        manager(tmp_path, clock, "b:2").try_acquire(KEY)
        with pytest.raises(LeaseLost):
            stale.renew(old)
        assert stale.stats.lost == 1

    def test_released_lease_reissued_with_higher_token(self, tmp_path, clock):
        first = manager(tmp_path, clock, "a:1")
        lease = first.try_acquire(KEY)
        first.release(lease)
        assert first.stats.released == 1
        second = manager(tmp_path, clock, "b:2")
        reissued = second.try_acquire(KEY)
        assert reissued is not None
        assert reissued.token == lease.token + 1

    def test_release_of_stolen_lease_is_a_noop(self, tmp_path, clock):
        stale = manager(tmp_path, clock, "a:1")
        old = stale.try_acquire(KEY)
        clock.advance(11.0)
        fresh = manager(tmp_path, clock, "b:2")
        fresh.try_acquire(KEY)
        stale.release(old)
        current = fresh.read(KEY)
        assert current.owner == "b:2"
        assert current.state == "held"

    def test_takeover_lost_race_detected_by_verify_read(self, tmp_path, clock):
        # The loser's os.replace lands first; the winner's rename then
        # overwrites it before the loser's verify read — which must see
        # the foreign owner and walk away.
        stale = manager(tmp_path, clock, "a:1")
        stale.try_acquire(KEY)
        clock.advance(11.0)

        rival = manager(tmp_path, clock, "rival:9")
        loser = manager(tmp_path, clock, "b:2")
        original_write = LeaseManager._write_lease
        raced = []

        def write_then_lose(self, lease):
            original_write(self, lease)
            if not raced:
                raced.append(True)
                original_write(
                    rival,
                    dataclasses.replace(lease, owner="rival:9"),
                )

        loser._write_lease = write_then_lose.__get__(loser)
        assert loser.try_acquire(KEY) is None
        assert loser.stats.lost_races == 1
        assert loser.read(KEY).owner == "rival:9"


class TestTornLeases:
    def tear(self, mgr: LeaseManager, key: str) -> None:
        path = mgr._lease_path(key)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])

    def test_torn_lease_reads_as_none_and_counts(self, tmp_path, clock):
        mgr = manager(tmp_path, clock, "a:1")
        mgr.try_acquire(KEY)
        self.tear(mgr, KEY)
        assert mgr.read(KEY) is None
        assert mgr.stats.corrupt_leases == 1

    def test_torn_lease_taken_over_immediately(self, tmp_path, clock):
        mgr = manager(tmp_path, clock, "a:1")
        mgr.try_acquire(KEY)
        self.tear(mgr, KEY)
        other = manager(tmp_path, clock, "b:2")
        taken = other.try_acquire(KEY)
        assert taken is not None
        assert other.stats.taken_over == 1

    def test_token_floor_survives_torn_payload(self, tmp_path, clock):
        # Claim -> release -> claim pushes the high-water file to 2; a
        # torn lease payload must not let the next claim reuse token <= 2.
        first = manager(tmp_path, clock, "a:1")
        lease = first.try_acquire(KEY)
        first.release(lease)
        second = manager(tmp_path, clock, "b:2")
        second_lease = second.try_acquire(KEY)
        assert second_lease.token == 2
        self.tear(second, KEY)
        third = manager(tmp_path, clock, "c:3")
        third_lease = third.try_acquire(KEY)
        assert third_lease.token == 3


class TestHeartbeat:
    def test_renewal_refreshes_heartbeat(self, tmp_path, clock):
        mgr = manager(tmp_path, clock, "a:1")
        lease = mgr.try_acquire(KEY)
        clock.advance(6.0)
        renewed = mgr.renew(lease)
        assert renewed.heartbeat == clock()
        clock.advance(6.0)  # 12s since claim, 6s since renewal
        assert not mgr.expired(renewed)
        assert mgr.stats.renewals == 1


class TestFencing:
    def test_store_after_takeover_is_fenced_out(self, tmp_path, clock):
        stale = manager(tmp_path, clock, "a:1")
        old = stale.try_acquire(KEY)
        clock.advance(11.0)
        manager(tmp_path, clock, "b:2").try_acquire(KEY)
        assert not stale.fence_ok(old)
        assert stale.stats.fenced_rejects == 1
        assert stale.fence(old)() is False

    def test_expired_but_untaken_lease_still_passes(self, tmp_path, clock):
        mgr = manager(tmp_path, clock, "a:1")
        lease = mgr.try_acquire(KEY)
        clock.advance(60.0)
        assert mgr.fence_ok(lease)

    def test_same_token_different_owner_is_rejected(self, tmp_path, clock):
        mgr = manager(tmp_path, clock, "a:1")
        lease = mgr.try_acquire(KEY)
        forged = dataclasses.replace(lease, owner="z:9")
        assert not mgr.fence_ok(forged)


class TestJournal:
    def test_stored_tokens_round_trip(self, tmp_path, clock):
        mgr = manager(tmp_path, clock, "a:1")
        lease_a = mgr.try_acquire(KEY)
        lease_b = mgr.try_acquire(KEY2)
        mgr.journal_store(lease_a)
        mgr.journal_store(lease_b)
        assert mgr.stored_tokens() == [
            (KEY, 1, "a:1"),
            (KEY2, 1, "a:1"),
        ]

    def test_torn_journal_tail_is_skipped(self, tmp_path, clock):
        mgr = manager(tmp_path, clock, "a:1")
        mgr.journal_store(mgr.try_acquire(KEY))
        with mgr._store_journal.open("a") as handle:
            handle.write('{"key": "trunc')
        assert mgr.stored_tokens() == [(KEY, 1, "a:1")]


class TestSnapshot:
    def test_snapshot_shows_held_and_torn(self, tmp_path, clock):
        mgr = manager(tmp_path, clock, "a:1")
        mgr.try_acquire(KEY)
        mgr.try_acquire(KEY2)
        path = mgr._lease_path(KEY2)
        path.write_bytes(path.read_bytes()[:10])
        rows = {row["key"]: row for row in mgr.snapshot()}
        assert rows[KEY]["state"] == "held"
        assert rows[KEY]["owner"] == "a:1"
        assert rows[KEY]["heartbeat_age"] == 0.0
        assert rows[KEY2]["state"] == "torn"
        assert rows[KEY2]["expired"]

    def test_payload_digest_is_verified(self, tmp_path, clock):
        mgr = manager(tmp_path, clock, "a:1")
        mgr.try_acquire(KEY)
        path = mgr._lease_path(KEY)
        body = json.loads(path.read_text())
        body["owner"] = "evil:1"  # digest now stale
        path.write_text(json.dumps(body))
        assert mgr.read(KEY) is None
        assert mgr.stats.corrupt_leases == 1
