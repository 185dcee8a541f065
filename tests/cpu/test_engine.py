"""Batched replay core: backend registry, compilation, and identity.

The contract under test is the one DESIGN.md states for the replay engine:
every registered backend produces **bit-identical** results — RunMetrics
(including the float cycle accumulator), the full telemetry snapshot, and
periodic snapshot series — for every scheme, benchmark, and seed, with
unsupported controllers transparently routed to the reference loop.
"""

import dataclasses

import pytest

from repro.cpu import engine
from repro.cpu.engine import (
    BACKEND_ENV,
    BACKENDS,
    BatchedBackend,
    ReferenceBackend,
    ReplayBackend,
    available_backends,
    compile_trace,
    register_backend,
    resolve_backend,
)
from repro.cpu.system import MissEvent, MissTrace, replay_miss_trace
from repro.experiments.config import TABLE1_256K
from repro.experiments.runner import (
    SCHEMES,
    SchemeSpec,
    apply_preseed,
    collect_cell_snapshot,
    get_miss_trace,
    make_controller,
    run_cell,
)
from repro.secure.controller import RecoveryPolicy
from repro.secure.errors import CounterOverflowError
from repro.secure.predictors import (
    ContextOtpPredictor,
    NullPredictor,
    OtpPredictor,
    RangePredictionTable,
    RegularOtpPredictor,
    TwoLevelOtpPredictor,
)
from repro.secure.seqnum import PageSecurityTable

_MASK64 = (1 << 64) - 1

# Small but non-trivial: thousands of events, every row class, write-backs.
REFS = 1500


def trace_for(benchmark, references=REFS, seed=1):
    return get_miss_trace(benchmark, TABLE1_256K, references, seed, False)


def run_backend(backend, scheme, miss_trace, preseed, seed=1, **kwargs):
    """One cell through one backend: (metrics dict, snapshot triple)."""
    controller = make_controller(SCHEMES[scheme], TABLE1_256K, seed)
    apply_preseed(controller, preseed)
    metrics = replay_miss_trace(
        miss_trace,
        controller,
        core=TABLE1_256K.core,
        scheme=scheme,
        backend=backend,
        **kwargs,
    )
    snapshot = collect_cell_snapshot(controller, miss_trace)
    return (
        dataclasses.asdict(metrics),
        (snapshot.values, snapshot.kinds, snapshot.meta),
    )


def assert_backends_identical(scheme, miss_trace, preseed, seed=1):
    ref = run_backend("reference", scheme, miss_trace, preseed, seed)
    bat = run_backend("batched", scheme, miss_trace, preseed, seed)
    assert bat == ref, f"batched != reference for scheme {scheme}"


class TestBackendRegistry:
    def test_all_backends_registered(self):
        assert available_backends() == sorted(BACKENDS)
        for name in ("reference", "batched"):
            assert name in BACKENDS

    def test_explicit_resolution(self):
        assert isinstance(resolve_backend("reference"), ReferenceBackend)
        assert type(resolve_backend("batched")) is BatchedBackend

    def test_default_is_batched(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend().name == "batched"

    def test_environment_override(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "reference")
        assert resolve_backend().name == "reference"
        # Explicit argument beats the environment.
        assert resolve_backend("batched").name == "batched"

    def test_environment_read_per_call_not_cached(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "reference")
        assert resolve_backend().name == "reference"
        monkeypatch.setenv(BACKEND_ENV, "batched")
        assert resolve_backend().name == "batched"

    def test_unknown_backend_raises_with_choices(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown replay backend"):
            resolve_backend("warp-drive")
        # A bogus environment value fails the same way instead of silently
        # falling back — a typo in CI should be loud.
        monkeypatch.setenv(BACKEND_ENV, "warp-drive")
        with pytest.raises(ValueError, match="warp-drive"):
            resolve_backend()

    def test_register_custom_backend(self):
        class EchoBackend(ReplayBackend):
            name = "echo-test"

            def replay(self, miss_trace, controller, **kwargs):
                return "echoed"

        try:
            register_backend(EchoBackend())
            assert "echo-test" in available_backends()
            assert resolve_backend("echo-test").replay(None, None) == "echoed"
        finally:
            BACKENDS.pop("echo-test", None)


class TestCompiledTrace:
    def test_step_and_access_columns_match_trace(self):
        miss_trace, _ = trace_for("gzip")
        controller = make_controller(SCHEMES["oracle"], TABLE1_256K, 1)
        compiled = compile_trace(
            miss_trace, controller.address_map, controller.dram.config,
            TABLE1_256K.core,
        )
        amap = controller.address_map
        fetches = sum(len(e.fetch_addresses) for e in miss_trace.events)
        fetchless = sum(1 for e in miss_trace.events if not e.fetch_addresses)
        assert compiled.n_steps == len(compiled.steps) == fetches + fetchless

        width = float(TABLE1_256K.core.issue_width)
        penalty = TABLE1_256K.core.l2_hit_penalty
        steps = iter(compiled.steps)
        accesses = []
        for event in miss_trace.events:
            group_holder = max(len(event.fetch_addresses), 1) - 1
            for i, address in enumerate(event.fetch_addresses or (None,)):
                gap_f, gap_h, line, page, bank, row, lat, group = next(steps)
                if i == 0:
                    assert gap_f == event.gap_instructions / width
                    assert gap_h == event.gap_l2_hits * penalty
                else:  # continuation fetches carry no new gap
                    assert (gap_f, gap_h) == (0.0, 0)
                if address is None:
                    assert line is None
                else:
                    assert line == amap.line_address(address)
                    assert page == amap.page_number(line)
                    accesses.append(line)
                if i == group_holder:
                    assert len(group) == len(event.writeback_addresses)
                    for wb, (wline, wpage, _, _, _) in zip(
                        event.writeback_addresses, group
                    ):
                        assert wline == amap.line_address(wb)
                        assert wpage == amap.page_number(wline)
                    accesses.extend(
                        amap.line_address(wb)
                        for wb in event.writeback_addresses
                    )
                else:
                    assert group == ()
        assert next(steps, None) is None
        assert len(compiled.acc_banks) == len(accesses)
        assert len(compiled.cum_hits) == len(accesses) + 1
        assert compiled.cum_hits[0] == compiled.cum_conflicts[0] == 0

    def test_static_row_classes_match_live_dram(self):
        """Compile-time DRAM classification equals what a real replay sees.

        The oracle scheme touches DRAM exactly once per access with no
        re-encryption traffic, so its live DRAM counters are the ground
        truth for the statically computed prefix sums.
        """
        miss_trace, preseed = trace_for("gzip")
        controller = make_controller(SCHEMES["oracle"], TABLE1_256K, 1)
        apply_preseed(controller, preseed)
        compiled = compile_trace(
            miss_trace, controller.address_map, controller.dram.config,
            TABLE1_256K.core,
        )
        replay_miss_trace(
            miss_trace, controller, core=TABLE1_256K.core,
            scheme="oracle", backend="reference",
        )
        stats = controller.dram.stats
        n = len(compiled.acc_banks)
        hits = compiled.cum_hits[-1]
        conflicts = compiled.cum_conflicts[-1]
        assert hits == stats.row_hits
        assert conflicts == stats.row_conflicts
        assert n - hits - conflicts == stats.row_empties

    def test_compile_memoized_per_trace_and_geometry(self):
        miss_trace, _ = trace_for("gzip")
        controller = make_controller(SCHEMES["oracle"], TABLE1_256K, 1)
        first = compile_trace(
            miss_trace, controller.address_map, controller.dram.config,
            TABLE1_256K.core,
        )
        again = compile_trace(
            miss_trace, controller.address_map, controller.dram.config,
            TABLE1_256K.core,
        )
        assert again is first


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
class TestIdentityAcrossSchemes:
    """reference == batched, bit for bit, for every scheme in the table."""

    def test_gzip(self, scheme):
        miss_trace, preseed = trace_for("gzip")
        assert_backends_identical(scheme, miss_trace, preseed)

    def test_art(self, scheme):
        miss_trace, preseed = trace_for("art")
        assert_backends_identical(scheme, miss_trace, preseed)


class TestIdentityProperties:
    """Property-style runs: seeds, benchmarks, and epoch boundaries vary."""

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_seed_sweep(self, seed):
        miss_trace, preseed = trace_for("gcc", seed=seed)
        for scheme in ("pred_regular", "pred_plus_cache_32k"):
            assert_backends_identical(scheme, miss_trace, preseed, seed=seed)

    def test_identity_across_epoch_boundaries(self, monkeypatch):
        # Tiny epochs force many mid-run stat flushes; results must not
        # depend on where the flush boundaries fall.
        monkeypatch.setattr(engine, "EPOCH_EVENTS", 64)
        miss_trace, preseed = trace_for("art")
        for scheme in ("oracle", "pred_regular", "seqcache_32k"):
            assert_backends_identical(scheme, miss_trace, preseed)

    def test_back_to_back_replays_on_one_controller(self):
        # The second replay starts from the DRAM rows the first left open.
        first, preseed = trace_for("gzip")
        second, _ = trace_for("mcf")
        outcomes = {}
        for backend in ("reference", "batched"):
            controller = make_controller(SCHEMES["pred_regular"], TABLE1_256K, 1)
            apply_preseed(controller, preseed)
            for miss_trace in (first, second):
                metrics = replay_miss_trace(
                    miss_trace, controller, core=TABLE1_256K.core,
                    scheme="pred_regular", backend=backend,
                )
            snapshot = collect_cell_snapshot(controller, second)
            outcomes[backend] = (
                dataclasses.asdict(metrics),
                (snapshot.values, snapshot.kinds),
                list(controller.dram._open_rows),
            )
        assert outcomes["batched"] == outcomes["reference"]

    def test_empty_trace(self):
        empty = MissTrace(
            events=(), total_instructions=0, total_references=0,
            l1_hits=0, l2_hits=0, l2_misses=0,
        )
        assert_backends_identical("pred_regular", empty, {})


class TestHookBatching:
    def test_batched_hook_fires_exactly_on_interval_multiples(self):
        miss_trace, preseed = trace_for("gzip")
        fetches = sum(len(e.fetch_addresses) for e in miss_trace.events)
        interval = 250

        calls = {"reference": [], "batched": []}
        for backend in calls:
            controller = make_controller(SCHEMES["pred_regular"], TABLE1_256K, 1)
            apply_preseed(controller, preseed)
            replay_miss_trace(
                miss_trace, controller, core=TABLE1_256K.core,
                scheme="pred_regular", backend=backend,
                on_fetch=calls[backend].append, hook_interval=interval,
            )
        # Reference keeps its historical per-fetch call; batched collapses
        # to one call per interval with the same cumulative counts.
        assert calls["reference"] == list(range(1, fetches + 1))
        assert calls["batched"] == list(
            range(interval, fetches + 1, interval)
        )

    def test_snapshot_series_identical_across_backends(self):
        cells = {
            backend: run_cell(
                "gzip", "pred_regular", machine=TABLE1_256K,
                references=REFS, series_interval=250, backend=backend,
            )
            for backend in ("reference", "batched")
        }
        ref, bat = cells["reference"], cells["batched"]
        assert dataclasses.asdict(ref.metrics) == dataclasses.asdict(bat.metrics)
        assert len(ref.series) == len(bat.series) > 1
        for a, b in zip(ref.series, bat.series):
            assert (a.values, a.kinds, a.meta) == (b.values, b.kinds, b.meta)


class TestFallbackPath:
    def test_unsupported_controller_routes_to_reference(self, monkeypatch):
        miss_trace, preseed = trace_for("gzip")

        def boom(*args, **kwargs):  # the tight loop must never run
            raise AssertionError("batched core used on unsupported controller")

        monkeypatch.setattr(engine, "_replay_batched", boom)
        controller = make_controller(SCHEMES["pred_regular"], TABLE1_256K, 1)
        apply_preseed(controller, preseed)
        controller.tracer.enabled = True  # tracers need per-call spans
        assert not controller.batched_replay_supported()
        metrics = replay_miss_trace(
            miss_trace, controller, core=TABLE1_256K.core,
            scheme="pred_regular", backend="batched",
        )
        controller.tracer.enabled = False
        expected, _ = run_backend("reference", "pred_regular", miss_trace, preseed)
        assert dataclasses.asdict(metrics) == expected

    @pytest.mark.parametrize("scheme", ["predecrypt", "direct_encryption"])
    def test_subclassed_controllers_fall_back(self, scheme):
        controller = make_controller(SCHEMES[scheme], TABLE1_256K, 1)
        assert not controller.batched_replay_supported()


#: Schemes whose controllers speculate and take the batched path.
CLOSED_FORM_SCHEMES = sorted(
    name for name, spec in SCHEMES.items()
    if spec.predictor is not None
    and make_controller(spec, TABLE1_256K, 1).batched_replay_supported()
)


class TestClosedFormRouting:
    """Only the stock predictors take the batched path, which calls none
    of their methods."""

    def test_closed_form_schemes(self):
        assert CLOSED_FORM_SCHEMES == [
            "pred_context", "pred_plus_cache_32k", "pred_regular",
            "pred_regular_history", "pred_regular_static", "pred_two_level",
        ]

    def test_subclassed_predictor_replays_on_the_reference_loop(self, monkeypatch):
        class TweakedRegular(RegularOtpPredictor):
            pass

        def boom(*args, **kwargs):
            raise AssertionError("batched core used on a subclassed predictor")

        miss_trace, preseed = trace_for("gzip")
        expected = run_backend("reference", "pred_regular", miss_trace, preseed)
        monkeypatch.setattr(engine, "_replay_batched", boom)
        controller = make_controller(SCHEMES["pred_regular"], TABLE1_256K, 1)
        controller.predictor = TweakedRegular(
            controller.page_table, depth=TABLE1_256K.prediction.depth
        )
        assert not controller.batched_replay_supported()
        apply_preseed(controller, preseed)
        metrics = replay_miss_trace(
            miss_trace, controller, core=TABLE1_256K.core,
            scheme="pred_regular", backend="batched",
        )
        snapshot = collect_cell_snapshot(controller, miss_trace)
        assert (
            dataclasses.asdict(metrics),
            (snapshot.values, snapshot.kinds, snapshot.meta),
        ) == expected

    @pytest.mark.parametrize("kind", ["two_level", "context"])
    def test_root_history_beyond_regular_routes_to_reference(self, kind):
        spec = SchemeSpec("history", predictor=kind, root_history=True)
        assert not make_controller(spec, TABLE1_256K, 1).batched_replay_supported()
        plain = SchemeSpec("plain", predictor=kind)
        assert make_controller(plain, TABLE1_256K, 1).batched_replay_supported()

    def test_subclassed_range_table_routes_to_reference(self):
        class TweakedRanges(RangePredictionTable):
            pass

        controller = make_controller(SCHEMES["pred_two_level"], TABLE1_256K, 1)
        controller.predictor.range_table = TweakedRanges()
        assert not controller.batched_replay_supported()

    @pytest.mark.parametrize("scheme", CLOSED_FORM_SCHEMES)
    def test_batched_replay_calls_no_predictor_method(self, scheme, monkeypatch):
        miss_trace, preseed = trace_for("twolf")
        expected = run_backend("reference", scheme, miss_trace, preseed)

        def boom(*args, **kwargs):
            raise AssertionError("the batched core called a predictor method")

        for cls, names in (
            (OtpPredictor, ("record", "observe_fetch", "observe_writeback")),
            (NullPredictor, ("predict",)),
            (RegularOtpPredictor, ("predict", "observe_fetch")),
            (TwoLevelOtpPredictor, ("predict", "observe_fetch", "observe_writeback")),
            (ContextOtpPredictor, ("predict", "observe_fetch")),
            (RangePredictionTable, ("bucket", "train", "invalidate_page")),
            (PageSecurityTable, ("record_prediction",)),
        ):
            for name in names:
                monkeypatch.setattr(cls, name, boom)
        assert run_backend("batched", scheme, miss_trace, preseed) == expected


def _overflow_fixture(recovery, seed=9, scheme="pred_regular"):
    """A controller + synthetic trace whose write-back saturates a counter."""
    controller = make_controller(SCHEMES[scheme], TABLE1_256K, seed)
    controller.recovery = recovery
    line_bytes = controller.address_map.line_bytes
    lines = [i * line_bytes for i in range(6)]
    victim = lines[0]
    events = tuple(
        MissEvent(
            gap_instructions=40, gap_l2_hits=1,
            fetch_addresses=(line,), writeback_addresses=(),
        )
        for line in lines
    ) + (
        MissEvent(
            gap_instructions=40, gap_l2_hits=0,
            fetch_addresses=(lines[1],), writeback_addresses=(victim,),
        ),
    )
    miss_trace = MissTrace(
        events=events, total_instructions=7 * 40, total_references=7,
        l1_hits=0, l2_hits=1, l2_misses=7,
    )
    # Pre-map the page and park the victim line one step from wrap-around,
    # still within the distance window of the current root.
    page = controller.address_map.page_number(victim)
    controller.page_table.state(page).root = (_MASK64 - 5) & _MASK64
    controller.backing.write_seqnum(victim, _MASK64)
    return controller, miss_trace


class TestCounterOverflow:
    """The fault path ISSUE.md singles out: saturated counters on write-back."""

    @pytest.mark.parametrize("backend", ["reference", "batched"])
    def test_overflow_raises_identically(self, backend):
        controller, miss_trace = _overflow_fixture(recovery=None)
        with pytest.raises(CounterOverflowError) as excinfo:
            replay_miss_trace(
                miss_trace, controller, core=TABLE1_256K.core,
                scheme="pred_regular", backend=backend,
            )
        assert excinfo.value.seqnum == _MASK64
        assert controller.stats.resilience.counter_overflows == 1

    def test_reencrypt_on_overflow_identical_metrics(self):
        outcomes = {}
        for backend in ("reference", "batched"):
            controller, miss_trace = _overflow_fixture(
                recovery=RecoveryPolicy(reencrypt_on_overflow=True)
            )
            metrics = replay_miss_trace(
                miss_trace, controller, core=TABLE1_256K.core,
                scheme="pred_regular", backend=backend,
            )
            assert controller.stats.resilience.counter_overflows == 1
            snapshot = collect_cell_snapshot(controller, miss_trace)
            outcomes[backend] = (
                dataclasses.asdict(metrics),
                (snapshot.values, snapshot.kinds, snapshot.meta),
            )
        assert outcomes["batched"] == outcomes["reference"]

    @pytest.mark.parametrize("scheme", ["pred_two_level", "pred_context"])
    def test_reencrypt_on_overflow_keeps_predictor_state_identical(self, scheme):
        # The delegated write-back trains the live range table itself; the
        # batched core must hand over, and pick up, the same predictor state.
        outcomes = {}
        for backend in ("reference", "batched"):
            controller, miss_trace = _overflow_fixture(
                recovery=RecoveryPolicy(reencrypt_on_overflow=True),
                scheme=scheme,
            )
            metrics = replay_miss_trace(
                miss_trace, controller, core=TABLE1_256K.core,
                scheme=scheme, backend=backend,
            )
            assert controller.stats.resilience.counter_overflows == 1
            predictor = controller.predictor
            range_table = getattr(predictor, "range_table", None)
            outcomes[backend] = (
                dataclasses.asdict(metrics),
                dataclasses.asdict(predictor.stats),
                getattr(predictor, "latest_offset", None),
                None if range_table is None else (
                    [(page, list(slots)) for page, slots in range_table._table.items()],
                    range_table.lookups,
                    range_table.misses,
                ),
            )
        assert outcomes["batched"] == outcomes["reference"]
