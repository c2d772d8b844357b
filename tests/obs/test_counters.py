"""PerfCounters: the stall-attribution accounting invariants.

The pinned contract (ISSUE acceptance): on any run,

* ``cycles.active`` + the sum of every ``stall.<cause>`` equals
  ``cycles.total`` **exactly** -- each front-end cycle of each
  workgroup execution is attributed exactly once, and
* ``mem.global.hits + mem.global.misses`` equals the total number of
  global-memory transactions the memory system served.
"""

import pytest

from repro.asm import assemble
from repro.core.config import ArchConfig
from repro.core.flow import ScratchFlow
from repro.exec import ExecutionRequest, execute
from repro.kernels import (APPSDK_SUITE, EVALUATION_SUITE, MatrixAddI32,
                           MatrixMulI32)
from repro.obs import STALL_CAUSES, PerfCounters
from repro.runtime import SoftGpu
from repro.soc.gpu import Gpu

#: One workgroup, one wavefront, four instructions with a linear
#: dependence chain -- every counter below is computable by hand.
MICRO = """
.kernel micro
  s_mov_b32 s1, 7
  v_add_i32 v1, vcc, s1, v0
  v_add_i32 v2, vcc, s1, v1
  s_endpgm
"""


def stall_sum(counters):
    return sum(counters.get("stall." + cause) for cause in STALL_CAUSES)


@pytest.fixture
def micro_counters():
    gpu = Gpu(ArchConfig.baseline())
    perf = gpu.attach(PerfCounters())
    gpu.launch(assemble(MICRO), (64,), (64,))
    return perf


class TestMicroKernel:
    def test_issue_mix_by_hand(self, micro_counters):
        c = micro_counters.counters
        assert c.get("issue.total") == 4
        assert c.get("issue.unit.salu") == 1
        assert c.get("issue.unit.simd") == 2
        assert c.get("issue.unit.branch") == 1

    def test_active_cycles_by_hand(self, micro_counters):
        # Four single-slot instructions: one front-end cycle each.
        assert micro_counters.counters.get("cycles.active") == 4

    def test_occupancy_by_hand(self, micro_counters):
        c = micro_counters.counters
        assert c.get("occupancy.workgroups") == 1
        assert c.get("occupancy.wavefronts") == 1
        assert c.get("occupancy.peak_wavefronts") == 1
        assert c.get("cu.0.workgroups") == 1

    def test_attribution_sums_to_total_exactly(self, micro_counters):
        c = micro_counters.counters
        total = c.get("cycles.total")
        assert total > 0
        assert c.get("cycles.active") + stall_sum(c) == total
        # The dependence chain stalls the front end: some cycles are
        # idle, and on this kernel they are operand/drain cycles only.
        assert c.get("stall.operand-dep") > 0
        assert c.get("stall.memory") == 0
        assert c.get("stall.barrier") == 0

    def test_per_cu_cycles_cover_total(self, micro_counters):
        c = micro_counters.counters
        assert c.get("cu.0.cycles") == c.get("cycles.total")

    def test_derived_fractions_partition_unity(self, micro_counters):
        derived = micro_counters.derived()
        assert derived["active_fraction"] + derived["stall_fraction"] \
            == pytest.approx(1.0)
        assert sum(v for k, v in derived.items()
                   if k.startswith("stall_fraction_")) \
            == pytest.approx(derived["stall_fraction"])


class TestBenchmarkRuns:
    @pytest.mark.parametrize("bench", [MatrixAddI32(n=16),
                                       MatrixMulI32(n=8)])
    def test_attribution_invariant(self, bench):
        device = SoftGpu(ArchConfig.baseline())
        perf = device.attach(PerfCounters())
        bench.run_on(device, verify=False)
        c = perf.counters
        assert c.get("cycles.active") + stall_sum(c) \
            == pytest.approx(c.get("cycles.total"), rel=1e-12)

    def test_issue_total_matches_board_instruction_count(self):
        device = SoftGpu(ArchConfig.baseline())
        perf = device.attach(PerfCounters())
        MatrixAddI32(n=16).run_on(device, verify=False)
        assert perf.counters.get("issue.total") == device.instructions

    def test_hits_plus_misses_equal_global_transactions(self):
        device = SoftGpu(ArchConfig.baseline())
        perf = device.attach(PerfCounters())
        MatrixAddI32(n=16).run_on(device, verify=False)
        c = perf.counters
        stats = device.gpu.memory.stats
        assert c.get("mem.global.hits") == stats["prefetch_hits"]
        assert c.get("mem.global.misses") == stats["prefetch_misses"]
        assert c.get("mem.global.hits") + c.get("mem.global.misses") \
            == stats["prefetch_hits"] + stats["prefetch_misses"]
        assert c.get("mem.lds.accesses") == stats["lds_accesses"]

    def test_multicore_attribution_and_cu_breakdown(self):
        arch = ArchConfig.baseline().with_parallelism(num_cus=2)
        device = SoftGpu(arch)
        perf = device.attach(PerfCounters())
        MatrixAddI32(n=32).run_on(device, verify=False)
        c = perf.counters
        assert c.get("cycles.active") + stall_sum(c) \
            == pytest.approx(c.get("cycles.total"), rel=1e-12)
        per_cu = sum(c.get("cu.{}.cycles".format(i)) for i in range(2))
        assert per_cu == pytest.approx(c.get("cycles.total"), rel=1e-12)
        assert c.get("cu.0.workgroups") + c.get("cu.1.workgroups") \
            == c.get("occupancy.workgroups")


#: Small instances of the evaluation suite (a second or so in total).
SMALL = {
    "kmeans_f32": dict(points=128, clusters=3, iterations=2),
    "gaussian_elimination_f32": dict(n=8),
    "matrix_add_i32": dict(n=16), "matrix_add_f32": dict(n=16),
    "matrix_mul_i32": dict(n=8), "matrix_mul_f32": dict(n=8),
    "conv2d_i32": dict(n=16, k=3), "conv2d_f32": dict(n=16, k=3),
    "bitonic_sort_i32": dict(n=128),
    "matrix_transpose_i32": dict(n=16),
    "max_pooling_i32": dict(n=16), "median_pooling_i32": dict(n=16),
    "average_pooling_i32": dict(n=16),
    "cnn_i32": dict(n=8), "cnn_f32": dict(n=8),
    "nin_i32": dict(n=8), "nin_f32": dict(n=8), "nin_i8": dict(n=8),
}


class TestAggregateCounters:
    """``profile=True`` builds the taxonomy from run aggregates, with no
    observer attached; it must equal the observer's counts exactly."""

    def test_small_sizes_cover_the_suite(self):
        assert set(SMALL) == {cls.name for cls in EVALUATION_SUITE}

    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_profile_equals_profile_with_trace(self, name):
        request = dict(benchmark=name, params=SMALL[name], profile=True)
        compiled = execute(ExecutionRequest(**request))
        perf = PerfCounters()
        traced = execute(ExecutionRequest(trace=True, observers=(perf,),
                                          **request))
        c = compiled.counters.counters
        assert c == traced.counters.counters == perf.counters
        assert c.get("cycles.active") + stall_sum(c) == c.get("cycles.total")

    @pytest.mark.parametrize("config", ["trimmed", "multithread"])
    @pytest.mark.parametrize("cls", APPSDK_SUITE, ids=lambda c: c.name)
    def test_appsdk_configs_match_the_observer(self, cls, config):
        bench = cls()
        arch = ScratchFlow(bench).arch(config)
        request = dict(benchmark=bench.name, arch=arch, verify=False,
                       profile=True)
        compiled = execute(ExecutionRequest(**request))
        perf = PerfCounters()
        execute(ExecutionRequest(observers=(perf,), **request))
        assert compiled.counters.counters == perf.counters

    def test_board_activity_window(self):
        """A raw board counts from the last reset; observed or not, the
        counts agree."""
        gpu = Gpu(ArchConfig.baseline().with_parallelism(num_cus=2))
        program = assemble(MICRO)
        gpu.launch(program, (256,), (64,))
        gpu.host_phase("recentre", alu_ops=10)
        compiled = gpu.activity_counters()
        assert compiled.get("occupancy.workgroups") == 4
        assert compiled.get("span.host_phase.count") == 1
        gpu.reset_timeline()
        assert len(gpu.activity_counters()) == 0
        perf = gpu.attach(PerfCounters())
        gpu.launch(program, (256,), (64,))
        gpu.host_phase("recentre", alu_ops=10)
        assert gpu.activity_counters() == perf.counters == compiled


class TestCounterSetMechanics:
    def test_merge_and_group(self):
        from repro.obs import CounterSet

        a = CounterSet({"x.one": 1, "x.two": 2})
        b = CounterSet({"x.one": 10, "y": 5})
        a.merge(b)
        assert a.get("x.one") == 11
        assert a.group("x") == {"one": 11, "two": 2}
        assert a.total("x") == 13
        assert "y" in a and a["y"] == 5

    def test_merge_takes_max_of_peaks(self):
        from repro.obs import CounterSet

        a = CounterSet({"occupancy.peak_wavefronts": 4,
                        "occupancy.wavefronts": 8})
        a.merge(CounterSet({"occupancy.peak_wavefronts": 2,
                            "occupancy.wavefronts": 2}))
        assert a["occupancy.peak_wavefronts"] == 4
        assert a["occupancy.wavefronts"] == 10
        b = CounterSet().merge(CounterSet({"occupancy.peak_wavefronts": 3}))
        assert b["occupancy.peak_wavefronts"] == 3

    def test_render_is_sorted_and_aligned(self):
        from repro.obs import CounterSet

        text = CounterSet({"b": 2, "a": 1.5}).render()
        lines = text.splitlines()
        assert lines[0].split() == ["a", "1.5"]
        assert lines[1].split() == ["b", "2"]
