"""SPEC2000-like workload models."""

import pytest

from repro.cpu.trace import summarize_trace
from repro.workloads.spec import (
    SPEC_BENCHMARKS,
    build_streams,
    build_workload,
)


class TestCatalog:
    def test_fourteen_benchmarks(self):
        assert len(SPEC_BENCHMARKS) == 14
        assert "mcf" in SPEC_BENCHMARKS and "swim" in SPEC_BENCHMARKS

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            build_streams("quake")

    @pytest.mark.parametrize("name", SPEC_BENCHMARKS)
    def test_stream_weights_sum_to_one(self, name):
        weights = [weight for weight, _ in build_streams(name)]
        assert sum(weights) == pytest.approx(1.0)

    @pytest.mark.parametrize("name", SPEC_BENCHMARKS)
    def test_stream_regions_do_not_overlap(self, name):
        regions = []
        for _, stream in build_streams(name):
            lines = stream.touched_lines()
            regions.append((min(lines), max(lines)))
        regions.sort()
        for (_, end), (start, _) in zip(regions, regions[1:]):
            assert end < start


class TestBuildWorkload:
    def test_reference_count(self):
        workload = build_workload("gzip", references=500)
        assert workload.references == 500

    def test_deterministic(self):
        a = build_workload("mcf", references=300, seed=4)
        b = build_workload("mcf", references=300, seed=4)
        assert [x.address for x in a.trace] == [x.address for x in b.trace]
        assert a.preseed == b.preseed

    def test_seed_changes_trace(self):
        a = build_workload("mcf", references=300, seed=1)
        b = build_workload("mcf", references=300, seed=2)
        assert [x.address for x in a.trace] != [x.address for x in b.trace]

    def test_benchmarks_differ(self):
        a = build_workload("swim", references=300)
        b = build_workload("twolf", references=300)
        assert [x.address for x in a.trace] != [x.address for x in b.trace]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_workload("swim", references=0)

    def test_length_changes_neither_preseed_nor_prefix(self):
        # The preseed is drawn before the trace, so the runner may share
        # one preseed between machines and trace lengths.
        short = build_workload("mcf", references=300, seed=3)
        long = build_workload("mcf", references=2000, seed=3)
        assert list(short.preseed.items()) == list(long.preseed.items())
        assert short.trace == list(long.trace)[:300]

    def test_preseed_lines_are_aligned(self):
        workload = build_workload("vpr", references=100)
        assert all(line % 32 == 0 for line in workload.preseed)
        assert all(distance >= 0 for distance in workload.preseed.values())


class TestPersonalities:
    def test_memory_bound_codes_have_tighter_gaps(self):
        mcf = summarize_trace(build_workload("mcf", references=2000).trace)
        gzip = summarize_trace(build_workload("gzip", references=2000).trace)
        assert (
            mcf.references_per_kilo_instruction
            > gzip.references_per_kilo_instruction
        )

    def test_fp_sweeps_have_large_footprints(self):
        swim = summarize_trace(build_workload("swim", references=4000).trace)
        assert swim.footprint_bytes > 64 * 1024

    def test_write_fractions_are_moderate(self):
        for name in ("swim", "twolf", "gcc"):
            summary = summarize_trace(build_workload(name, references=2000).trace)
            assert 0.02 < summary.write_fraction < 0.8
