"""Per-benchmark sanity across the whole SPEC2000-like suite."""

import pytest

from repro.cpu.system import collect_miss_trace
from repro.cpu.trace import summarize_trace
from repro.experiments.config import TABLE1_256K
from repro.workloads.spec import SPEC_BENCHMARKS, build_workload

REFS = 2500


@pytest.fixture(scope="module")
def workloads():
    return {name: build_workload(name, references=REFS) for name in SPEC_BENCHMARKS}


class TestEveryBenchmark:
    @pytest.mark.parametrize("name", SPEC_BENCHMARKS)
    def test_trace_shape(self, workloads, name):
        workload = workloads[name]
        summary = summarize_trace(workload.trace)
        assert summary.references == REFS
        assert summary.instructions > 0
        assert 0.0 < summary.write_fraction < 0.9
        assert summary.unique_pages > 4

    @pytest.mark.parametrize("name", SPEC_BENCHMARKS)
    def test_preseed_covers_miss_stream(self, workloads, name):
        # Every line the workload can miss on has fast-forward counter
        # state, except the cache-resident hot set (whose misses are rare).
        workload = workloads[name]
        preseed_lines = set(workload.preseed)
        summary = summarize_trace(workload.trace)
        covered = sum(
            1 for access in workload.trace
            if (access.address & ~31) in preseed_lines
        )
        # Hot/static regions carry no preseed by design; the rest must.
        assert covered / summary.references > 0.2

    @pytest.mark.parametrize("name", SPEC_BENCHMARKS)
    def test_produces_l2_misses(self, workloads, name):
        miss_trace = collect_miss_trace(
            workloads[name].trace, hierarchy_config=TABLE1_256K.hierarchy
        )
        # The paper subsets SPEC "for those with high L2 misses".
        assert miss_trace.l2_misses > REFS * 0.1
        assert miss_trace.l2_misses < REFS

    def test_memory_boundness_spectrum(self, workloads):
        mpki = {}
        for name, workload in workloads.items():
            miss_trace = collect_miss_trace(
                workload.trace, hierarchy_config=TABLE1_256K.hierarchy
            )
            mpki[name] = miss_trace.misses_per_kilo_instruction
        # The pointer/FP heavyweights sit above the mild INT codes.
        assert mpki["mcf"] > mpki["gzip"]
        assert mpki["swim"] > mpki["gcc"]
        assert max(mpki.values()) > 2 * min(mpki.values())
