"""Property-based integration tests: the security and consistency
invariants must hold under arbitrary access patterns."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.system import SecureSystem
from repro.cpu.trace import MemoryAccess
from repro.faults import FaultInjector
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.secure.controller import SecureMemoryController
from repro.secure.integrity import IntegrityError
from repro.secure.predictors import ContextOtpPredictor, RegularOtpPredictor
from repro.secure.seqnum import PageSecurityTable

KEY = bytes(range(32))

# Accesses confined to a small region so tiny caches see heavy reuse
# *and* eviction churn.
access_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=255),  # line index (8KB region)
        st.booleans(),
    ),
    min_size=1,
    max_size=300,
)

# Sealed operations interleaved with the adversary's moves, over lines
# spread across two pages.  A store picks any of these lines; a load or a
# rollback mostly picks one already stored.
ADVERSARY_LINES = [page * 4096 + slot * 32 for page in (1, 2) for slot in range(3)]
adversarial_strategy = st.lists(
    st.tuples(
        st.sampled_from(
            ("store", "store", "load", "load", "rollback", "snapshot", "replay", "repair")
        ),
        st.integers(min_value=0, max_value=2 * len(ADVERSARY_LINES) - 1),
        st.integers(min_value=0, max_value=255),
    ),
    min_size=8,
    max_size=60,
)


def tiny_system(key=None, predictor_factory=None):
    table = PageSecurityTable()
    predictor = predictor_factory(table) if predictor_factory else None
    controller = SecureMemoryController(
        page_table=table, predictor=predictor, key=key, integrity=bool(key)
    )
    hierarchy = MemoryHierarchy(
        HierarchyConfig(
            l1i_size=256, l1d_size=256, l1_associativity=1,
            l2_size=2048, l2_associativity=2,
        )
    )
    return SecureSystem(controller=controller, hierarchy=hierarchy)


class TestFunctionalConsistency:
    @given(ops=access_strategy)
    @settings(max_examples=100, deadline=None)
    def test_decryption_always_matches_image(self, ops):
        # SecureSystem.access raises FunctionalMismatchError internally if
        # any fetched line decrypts to the wrong bytes; IntegrityError if
        # the MAC tree disagrees.  Surviving the whole run IS the property.
        system = tiny_system(key=KEY)
        for line_index, is_write in ops:
            system.access(MemoryAccess(line_index * 32, is_write=is_write))
        system.flush()

    @given(ops=access_strategy)
    @settings(max_examples=100, deadline=None)
    def test_no_pad_is_ever_reused(self, ops):
        system = tiny_system(
            key=KEY, predictor_factory=lambda t: RegularOtpPredictor(t, depth=5)
        )
        for line_index, is_write in ops:
            system.access(MemoryAccess(line_index * 32, is_write=is_write))
        system.flush()
        assert system.controller.auditor.clean

    @given(ops=adversarial_strategy)
    @settings(max_examples=100, deadline=None)
    def test_no_pad_is_ever_reused_under_rollback_and_replay(self, ops):
        # Between sealed operations the adversary rolls a stored line's
        # counter back to one it was sealed under, or replays a whole-state
        # snapshot.  A rolled-back line, and every line while a replay
        # stands, must fail to load; a store to a rolled-back line reseals
        # it under a fresh counter; every other load reads the shadow image.
        table = PageSecurityTable()
        controller = SecureMemoryController(
            page_table=table, predictor=RegularOtpPredictor(table, depth=5),
            key=KEY, integrity=True,
        )
        injector = FaultInjector(controller)
        backing, tree = controller.backing, controller.integrity_tree
        shadow: dict[int, bytes] = {}
        sealed: dict[int, list[int]] = {}  # counters each line was sealed under
        genuine_nodes: dict = {}  # the tree as the last store left it
        snapshotted = False
        for step, (kind, index, value) in enumerate(ops):
            now = step * 1000
            # A replay, or a repair that restores a state older than the
            # last store, leaves tree nodes the on-chip root never saw.
            replayed = tree.nodes != genuine_nodes
            if kind == "store" or index >= len(ADVERSARY_LINES) or not sealed:
                line = ADVERSARY_LINES[index % len(ADVERSARY_LINES)]
            else:
                line = list(sealed)[index % len(sealed)]
            if kind == "rollback" and line in sealed:
                counters = sealed[line]
                backing.write_seqnum(
                    line, counters[-2] if len(counters) > 1 else counters[-1] - 1
                )
            elif kind == "snapshot":
                injector.snapshot()
                snapshotted = True
            elif kind == "replay" and snapshotted:
                injector.inject_replay(line)
            elif kind == "repair":
                injector.repair_all()
            elif kind == "store" and replayed:
                with pytest.raises(IntegrityError):
                    controller.writeback_line(now, line, bytes([value]) * 32)
            elif kind == "store":
                shadow[line] = bytes([value]) * 32
                result = controller.writeback_line(now, line, shadow[line])
                sealed.setdefault(line, []).append(result.seqnum)
                genuine_nodes = dict(tree.nodes)
            elif kind == "load" and (
                replayed
                or (line in sealed and backing.read_seqnum(line) != sealed[line][-1])
            ):
                with pytest.raises(IntegrityError):
                    controller.fetch_line(now, line)
            elif kind == "load":
                result = controller.fetch_line(now, line)
                assert result.plaintext == shadow.get(line, bytes(32))
        assert controller.auditor.clean

    @given(ops=access_strategy)
    @settings(max_examples=100, deadline=None)
    def test_prediction_never_changes_decrypted_data(self, ops):
        # A predicted pad is only used after the true sequence number
        # matched, so predicted and unpredicted systems must read back the
        # same plaintexts (here: both must match their shadow images).
        plain = tiny_system(key=KEY)
        predicted = tiny_system(
            key=KEY, predictor_factory=lambda t: ContextOtpPredictor(t)
        )
        for line_index, is_write in ops:
            access = MemoryAccess(line_index * 32, is_write=is_write)
            plain.access(access)
            predicted.access(access)


class TestTimingSanity:
    @given(ops=access_strategy)
    @settings(max_examples=10, deadline=None)
    def test_cycles_monotonically_increase(self, ops):
        system = tiny_system()
        previous = system.cycle
        for line_index, is_write in ops:
            system.access(MemoryAccess(line_index * 32, is_write=is_write))
            assert system.cycle >= previous
            previous = system.cycle

    @given(ops=access_strategy)
    @settings(max_examples=10, deadline=None)
    def test_fetch_results_are_causal(self, ops):
        system = tiny_system()
        for line_index, is_write in ops:
            system.access(MemoryAccess(line_index * 32, is_write=is_write))
        stats = system.controller.stats
        assert stats.total_exposed_latency >= 0
        assert stats.total_decryption_overhead >= 0


class TestCounterInvariants:
    @given(ops=access_strategy)
    @settings(max_examples=100, deadline=None)
    def test_stored_counters_stay_fresh(self, ops):
        # Every write-back must strictly advance the line's counter or
        # rebase it onto a brand-new random root: replaying the run, the
        # (line, counter) pairs used for sealing never repeat.
        system = tiny_system(key=KEY)
        seen = set()
        controller = system.controller
        original = controller.writeback_line

        def spy(now, address, plaintext=None):
            result = original(now, address, plaintext)
            pair = (result.address, result.seqnum)
            assert pair not in seen
            seen.add(pair)
            return result

        controller.writeback_line = spy
        for line_index, is_write in ops:
            system.access(MemoryAccess(line_index * 32, is_write=is_write))
        system.flush()
