"""Closed-form prediction in the batched core against the predictor classes.

The batched replay core computes each stock predictor's guess list as
integer arithmetic on ``(actual - root) mod 2**64`` and trains the PHV,
range table and LOR inline.  The reference loop calls the predictor
classes themselves, so comparing the two backends checks the closed forms
against their definition.  Generated configurations make every corner
likely: depths 0-8 and swings 0-6, range tables of 1-8 entries (so the
LRU evicts) with 1-4 bit buckets, PHVs short enough to reset roots every
few fetches, root history on regular prediction, pad buffers small enough
that ``max_guesses`` cuts the list, tiny counter caches and the oracle.
Traces are synthetic: a few pages, six lines each, preseeded distances on
both sides of every bucket and of the distance window, and write-backs
that advance or rebase the counters.

Each run compares the metrics, the telemetry snapshot and the full
predictor, page-table, RNG, backing, engine and DRAM state at the end,
plus the predictor state at every sampled ``on_fetch`` call.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import engine
from repro.cpu.core import CoreConfig
from repro.cpu.system import MissEvent, MissTrace, replay_miss_trace
from repro.crypto.rng import HardwareRng
from repro.experiments.runner import apply_preseed, collect_cell_snapshot
from repro.secure.controller import SecureMemoryController
from repro.secure.otp import blocks_per_line
from repro.secure.predictors import (
    ContextOtpPredictor,
    RangePredictionTable,
    RegularOtpPredictor,
    TwoLevelOtpPredictor,
)
from repro.secure.seqcache import SequenceNumberCache
from repro.secure.seqnum import DISTANCE_WINDOW, PageSecurityTable

_MASK64 = (1 << 64) - 1
LINE = 32
PAGE = 4096
BLOCKS = blocks_per_line(LINE)
BASE = 0x40_0000
#: Line slots used in every page: both ends and a few in between.
SLOTS = (0, 1, 2, 5, 64, 127)
PAGES = 6


@dataclasses.dataclass(frozen=True)
class Config:
    kind: str = "regular"
    depth: int = 5
    swing: int = 3
    range_bits: int = 4
    range_entries: int = 64
    phv_bits: int = 16
    phv_threshold: int = 12
    adaptive: bool = True
    history_depth: int = 0
    use_root_history: bool = False
    max_guesses: int = 32
    seqcache_bytes: int | None = None
    oracle: bool = False
    seed: int = 1


def build_controller(config: Config) -> SecureMemoryController:
    table = PageSecurityTable(
        rng=HardwareRng(config.seed),
        phv_bits=config.phv_bits,
        phv_threshold=config.phv_threshold,
        history_depth=config.history_depth,
    )
    if config.kind == "regular":
        predictor = RegularOtpPredictor(
            table, depth=config.depth, adaptive=config.adaptive,
            use_root_history=config.use_root_history,
        )
    elif config.kind == "two_level":
        predictor = TwoLevelOtpPredictor(
            table, depth=config.depth, adaptive=config.adaptive,
            range_table=RangePredictionTable(
                entries=config.range_entries, range_bits=config.range_bits,
            ),
        )
    else:
        predictor = ContextOtpPredictor(
            table, depth=config.depth, swing=config.swing,
            adaptive=config.adaptive,
        )
    seqcache = (
        SequenceNumberCache(config.seqcache_bytes, associativity=2)
        if config.seqcache_bytes else None
    )
    controller = SecureMemoryController(
        page_table=table,
        predictor=predictor,
        seqcache=seqcache,
        oracle=config.oracle,
        pad_buffer_entries=BLOCKS * config.max_guesses,
    )
    assert controller.batched_replay_supported()
    return controller


def predictor_state(controller) -> tuple:
    """Everything prediction reads or trains, in iteration order."""
    predictor = controller.predictor
    table = controller.page_table
    range_table = getattr(predictor, "range_table", None)
    return (
        dataclasses.astuple(predictor.stats),
        getattr(predictor, "latest_offset", None),
        None if range_table is None else (
            [(page, list(slots)) for page, slots in range_table._table.items()],
            range_table.lookups,
            range_table.misses,
        ),
        [(page, dataclasses.astuple(state)) for page, state in table._pages.items()],
        table.total_resets,
        list(table.rng._s),
    )


def run(backend, config, miss_trace, preseed=None, setup=None, hook=0):
    """Replay on one backend; returns the whole observable outcome."""
    controller = build_controller(config)
    apply_preseed(controller, preseed or {})
    if setup is not None:
        setup(controller)
    samples = []

    def on_fetch(fetches):
        if hook and fetches % hook == 0:
            samples.append((fetches, predictor_state(controller)))

    metrics = replay_miss_trace(
        miss_trace, controller, core=CoreConfig(), scheme=config.kind,
        backend=backend, on_fetch=on_fetch if hook else None,
        hook_interval=hook,
    )
    snapshot = collect_cell_snapshot(controller, miss_trace)
    return {
        "metrics": dataclasses.asdict(metrics),
        "snapshot": (snapshot.values, snapshot.kinds),
        "predictor": predictor_state(controller),
        "samples": samples,
        "backing": list(controller.backing._seqnums.items()),
        "engine": (
            controller.engine._port_free_at,
            dataclasses.asdict(controller.engine.stats),
        ),
        "dram": (
            list(controller.dram._bank_free_at),
            list(controller.dram._open_rows),
        ),
    }


def assert_backends_agree(config, miss_trace, preseed=None, setup=None, hook=0):
    reference = run("reference", config, miss_trace, preseed, setup, hook)
    batched = run("batched", config, miss_trace, preseed, setup, hook)
    for key in reference:
        assert batched[key] == reference[key], key
    return reference


def make_trace(events) -> MissTrace:
    events = tuple(events)
    return MissTrace(
        events=events,
        total_instructions=sum(event.gap_instructions for event in events),
        total_references=sum(len(event.fetch_addresses) for event in events),
        l1_hits=0,
        l2_hits=sum(event.gap_l2_hits for event in events),
        l2_misses=sum(len(event.fetch_addresses) for event in events),
    )


def line_address(index: int) -> int:
    page, slot = divmod(index, len(SLOTS))
    return BASE + page * PAGE + SLOTS[slot] * LINE


lines = st.integers(0, PAGES * len(SLOTS) - 1).map(line_address)
events = st.builds(
    MissEvent,
    gap_instructions=st.integers(0, 300),
    gap_l2_hits=st.integers(0, 3),
    fetch_addresses=st.sampled_from([1, 1, 1, 1, 0, 2]).flatmap(
        lambda n: st.lists(lines, min_size=n, max_size=n).map(tuple)
    ),
    writeback_addresses=st.lists(lines, max_size=3).map(tuple),
).filter(lambda event: event.fetch_addresses or event.writeback_addresses)
distances = st.one_of(
    st.integers(0, 40),
    st.sampled_from([DISTANCE_WINDOW - 1, DISTANCE_WINDOW, 1 << 63]),
)
configs = st.builds(
    Config,
    kind=st.sampled_from(["regular", "two_level", "context"]),
    depth=st.integers(0, 8),
    swing=st.integers(0, 6),
    range_bits=st.integers(1, 4),
    range_entries=st.integers(1, 8),
    phv_bits=st.integers(1, 6),
    phv_threshold=st.integers(1, 6),
    adaptive=st.booleans(),
    history_depth=st.integers(0, 2),
    use_root_history=st.booleans(),
    max_guesses=st.integers(1, 12),
    seqcache_bytes=st.sampled_from([None, None, 256]),
    oracle=st.sampled_from([False, False, False, True]),
    seed=st.integers(1, 4),
).map(
    lambda config: dataclasses.replace(
        config,
        phv_threshold=min(config.phv_threshold, config.phv_bits),
        # Two-level and context prediction with root history replay on
        # the reference loop; the closed forms cover them without it.
        use_root_history=config.use_root_history and config.kind == "regular",
    )
)


@given(
    config=configs,
    trace_events=st.lists(events, min_size=40, max_size=200),
    preseed=st.dictionaries(lines, distances, max_size=24),
    hook=st.sampled_from([0, 1, 7]),
    epoch=st.sampled_from([engine.EPOCH_EVENTS, 5]),
)
@settings(max_examples=60, deadline=None)
def test_closed_forms_match_the_predictor_classes(
    config, trace_events, preseed, hook, epoch
):
    saved = engine.EPOCH_EVENTS
    engine.EPOCH_EVENTS = epoch
    try:
        assert_backends_agree(config, make_trace(trace_events), preseed, hook=hook)
    finally:
        engine.EPOCH_EVENTS = saved


def _fetches(*addresses):
    return make_trace(
        MissEvent(100, 0, (address,), ()) for address in addresses
    )


def _counters_from_root(offsets):
    """Setup: map the first page and store ``root + offset`` per line."""

    def setup(controller):
        page = controller.address_map.page_number(BASE)
        root = controller.page_table.state(page).root
        for index, offset in enumerate(offsets):
            controller.backing.write_seqnum(
                line_address(index), (root + offset) & _MASK64
            )

    return setup


class TestPinnedCases:
    def test_open_rows_after_a_replay(self):
        # The generated test's one counterexample, shrunk: the batched core
        # left the DRAM's open rows unset on its statically classified path.
        config = Config(
            depth=0, swing=0, range_bits=1, range_entries=1, phv_bits=1,
            phv_threshold=1, adaptive=False, max_guesses=1,
        )
        outcome = assert_backends_agree(config, _fetches(*[BASE] * 40))
        assert any(row is not None for row in outcome["dram"][1])

    def test_old_root_within_depth_of_the_current_root(self):
        # Windows from root (offsets 0-5), root+3 (adds 6-8) and root-2
        # (adds -2, -1): eleven guesses, cut to ten, so -1 is dropped.
        config = Config(
            depth=5, adaptive=False, history_depth=2, use_root_history=True,
            max_guesses=10,
        )
        offsets = (0, 4, 7, 8, -2, -1)
        counters = _counters_from_root(offsets)

        def setup(controller):
            counters(controller)
            state = controller.page_table.state(
                controller.address_map.page_number(BASE)
            )
            state.old_roots = (
                (state.root + 3) & _MASK64, (state.root - 2) & _MASK64,
            )

        trace = _fetches(*(line_address(i) for i in range(len(offsets))))
        outcome = assert_backends_agree(config, trace, setup=setup)
        lookups, hits, guesses, _ = outcome["predictor"][0]
        assert (lookups, hits, guesses) == (6, 5, 60)

    @pytest.mark.parametrize("max_guesses, hits", [(7, 1), (6, 0)])
    def test_two_level_root_fallback_cut_by_max_guesses(self, max_guesses, hits):
        # Line 0 at root+8 trains a fresh entry to bucket 1 in every slot;
        # line 1 sits at the root, so its list is offsets 6-11 and then
        # the root fallback at index 6, which six guesses cut off.
        config = Config(
            kind="two_level", depth=5, adaptive=False, max_guesses=max_guesses,
        )
        trace = _fetches(line_address(0), line_address(1))
        outcome = assert_backends_agree(
            config, trace, setup=_counters_from_root((8, 0))
        )
        lookups, got_hits, guesses, _ = outcome["predictor"][0]
        assert (lookups, got_hits) == (2, hits)
        assert guesses == min(6, max_guesses) + min(7, max_guesses)

    def test_context_window_clamped_at_offset_zero(self):
        # Width 1, swing 3.  LOR 0 gives the swing [0, 3] (clamped from
        # -3), of which 1-3 are new; the LOR then walks 1, 2, 6, 4.
        config = Config(kind="context", depth=0, swing=3, adaptive=False)
        offsets = (1, 2, 6, 4)
        trace = _fetches(*(line_address(i) for i in range(len(offsets))))
        outcome = assert_backends_agree(
            config, trace, setup=_counters_from_root(offsets)
        )
        (lookups, hits, guesses, _), lor = outcome["predictor"][:2]
        # Hits at indexes 1 and 2; 6 misses [0, 5]; 4 hits [3, 9].
        assert (lookups, hits, lor) == (4, 3, 4)
        assert guesses == 4 + 5 + 6 + 8
