"""The compiled timing layer: tables, cache, LSU transaction pricing,
multi-instance pool issue."""

import contextlib
import glob
import os
import types

import numpy as np
import pytest

from repro.asm import assemble
from repro.cu.lsu import make_buffer_descriptor
from repro.cu.pipeline import ComputeUnit
from repro.cu.prepared import get_prepared
from repro.cu.timing import (
    BRANCH_CYCLES,
    INT_PASS_CYCLES,
    KIND_ALU,
    KIND_ENDPGM,
    KIND_MEMORY,
    KIND_WAITCNT,
    LSU_CYCLES,
    SALU_CYCLES,
    VECTOR_PASSES,
    TimingTable,
    UnitPool,
    clear_timing_table_cache,
    frontend_cost,
    get_timing_table,
    lookup_timing_table,
    timing_table_cache_stats,
    unit_occupancy,
)
from repro.cu.wavefront import Wavefront
from repro.cu.workgroup import Workgroup
from repro.isa.categories import FunctionalUnit
from repro.mem.params import DCD_PM_TIMING
from repro.mem.system import MemorySystem
from repro.verify.spec import spec_execution

MIXED = """
  s_mov_b32 s0, 1
  v_mov_b32 v3, 0
  v_mul_lo_u32 v4, v3, v3
  s_load_dword s20, s[2:3], 0
  s_waitcnt lgkmcnt(0)
  s_branch out
  s_nop
out:
  s_endpgm
"""


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_timing_table_cache()
    yield
    clear_timing_table_cache()


def _inst(source, index=0):
    return assemble(source + "\n  s_endpgm").instructions[index]


def _plan(source, index=0):
    return get_prepared(assemble(source + "\n  s_endpgm")).plans[index]


class TestTransactions:
    """``unit_occupancy`` prices one LSU transaction; a memory plan's
    occupancy is that period times its static transaction count,
    applied once when the plan is emitted."""

    def test_lsu_occupancy_scales_with_transactions(self):
        assert unit_occupancy(_inst("s_load_dword s20, s[2:3], 0")) == \
            LSU_CYCLES
        for line, transactions in (
                ("s_load_dword s20, s[2:3], 0", 1),
                ("s_load_dwordx2 s[20:21], s[2:3], 0", 2),
                ("s_load_dwordx4 s[20:23], s[2:3], 0", 4)):
            assert _plan(line).occupancy == transactions * LSU_CYCLES, line

    def test_every_memory_plan_pays_at_least_one_transaction(self):
        for line in ("s_load_dword s20, s[2:3], 0",
                     "tbuffer_store_format_x v1, v2, s[4:7], 0 offen",
                     "ds_read_b32 v1, v2"):
            assert _plan(line).occupancy >= LSU_CYCLES, line

    def test_non_lsu_plans_are_not_scaled(self):
        plan = _plan("s_mov_b32 s0, 1")
        assert plan.occupancy == unit_occupancy(plan.inst) == SALU_CYCLES

    def test_instruction_attribute_no_longer_consulted(self):
        inst = _inst("s_load_dword s20, s[2:3], 0")
        inst.transactions = 99  # a stale duck-typed attribute
        assert unit_occupancy(inst) == LSU_CYCLES


class TestTableRows:
    def test_rows_match_per_instruction_functions(self):
        program = assemble(MIXED)
        table = TimingTable(program)
        assert len(table) == len(program.instructions)
        for i, inst in enumerate(program.instructions):
            assert table.fe_costs[i] == frontend_cost(inst)
            if table.kinds[i] == KIND_ALU:
                assert table.occupancies[i] == unit_occupancy(inst)
            elif table.kinds[i] == KIND_MEMORY:
                assert table.occupancies[i] == LSU_CYCLES
            else:
                assert table.occupancies[i] == 0

    def test_classification_and_flags(self):
        program = assemble(MIXED)
        table = TimingTable(program)
        kinds, occupancies = table.kinds, table.occupancies
        assert kinds[0] == KIND_ALU and occupancies[0] == SALU_CYCLES
        assert kinds[1] == KIND_ALU and occupancies[1] == \
            VECTOR_PASSES * INT_PASS_CYCLES
        assert kinds[3] == KIND_MEMORY and occupancies[3] == LSU_CYCLES
        assert kinds[4] == KIND_WAITCNT and occupancies[4] == 0
        assert kinds[5] == KIND_ALU and occupancies[5] == BRANCH_CYCLES
        assert kinds[-1] == KIND_ENDPGM and occupancies[-1] == 0

    def test_arrays_are_read_only(self):
        # Immutable rows of plain ints: no NumPy scalar reaches the
        # loops' cycle arithmetic.
        table = TimingTable(assemble(MIXED))
        for column in (table.fe_costs, table.occupancies, table.kinds):
            assert all(type(value) is int for value in column)
            with pytest.raises(TypeError):
                column[0] = 9


class TestTableCache:
    def test_identical_binaries_share_one_table(self):
        a, hit_a = lookup_timing_table(assemble(MIXED))
        b, hit_b = lookup_timing_table(assemble(MIXED + "\n; cosmetic\n"))
        assert a is b
        assert not hit_a and hit_b
        stats = timing_table_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["size"] == 1

    def test_clear_resets_stats_and_entries(self):
        get_timing_table(assemble(MIXED))
        clear_timing_table_cache()
        stats = timing_table_cache_stats()
        assert stats == {"hits": 0, "misses": 0, "size": 0,
                         "capacity": stats["capacity"]}

    def test_program_without_content_key_builds_uncached(self):
        program = assemble(MIXED)
        stand_in = types.SimpleNamespace(instructions=program.instructions)
        a, hit_a = lookup_timing_table(stand_in)
        b, hit_b = lookup_timing_table(stand_in)
        assert a is not b
        assert not hit_a and not hit_b


def _loop(spec):
    """The context a workgroup runs in: the verify spec loop with
    ``spec``, the issue loop without."""
    return spec_execution() if spec else contextlib.nullcontext()


def _run_lsu(source, spec, init=None):
    program = assemble(source)
    memory = MemorySystem(params=DCD_PM_TIMING)
    memory.preload_all(0, 1 << 16)
    cu = ComputeUnit(memory)
    wg = Workgroup((0, 0, 0), program, (64, 1, 1))
    wf = Wavefront(0, program)
    wf.write_scalar64(2, 0x2000)
    wf.sgprs[4:8] = make_buffer_descriptor(0x1000, 0x1000)
    if init is not None:
        init(wf)
    wg.add_wavefront(wf)
    with _loop(spec):
        end, stats = cu.run_workgroup(wg)
    return end, stats, cu.pool(FunctionalUnit.LSU)


class TestLsuDynamicPricing:
    """The PR 3 undercharge bug must stay dead under the table path:
    SMRD dwordx2/x4 and multi-dword MUBUF accesses occupy the LSU one
    base period per transaction, on the issue loop and the spec loop."""

    LOOPS = pytest.mark.parametrize("spec", [True, False],
                                    ids=["spec", "compiled"])

    @LOOPS
    def test_smrd_width_prices_lsu_occupancy(self, spec):
        cases = (
            ("s_load_dword s20, s[2:3], 0", 1),
            ("s_load_dwordx2 s[20:21], s[2:3], 0", 2),
            ("s_load_dwordx4 s[20:23], s[2:3], 0", 4),
        )
        for line, transactions in cases:
            _, _, lsu = _run_lsu(line + "\n  s_endpgm", spec)
            assert lsu.busy_cycles == LSU_CYCLES * transactions, line

    @LOOPS
    def test_mubuf_multi_dword_prices_lsu_occupancy(self, spec):
        def init(wf):
            wf.write_vgpr(1, np.zeros(64, dtype=np.uint32))

        for fmt, transactions in (("x", 1), ("xy", 2)):
            line = "tbuffer_load_format_{} v2, v1, s[4:7], 0 offen".format(fmt)
            _, _, lsu = _run_lsu(line + "\n  s_endpgm", spec, init=init)
            assert lsu.busy_cycles == LSU_CYCLES * transactions, fmt

    def test_loops_agree_on_end_time(self):
        source = "s_load_dwordx4 s[20:23], s[2:3], 0\n  s_endpgm"
        assert _run_lsu(source, spec=False)[0] == \
            _run_lsu(source, spec=True)[0]


class TestUnitPool:
    def test_acquire_earliest_free_instance(self):
        pool = UnitPool(2)
        assert pool.acquire(0.0, 4) == 4.0
        assert pool.acquire(0.0, 4) == 4.0      # second instance
        assert pool.acquire(0.0, 4) == 8.0      # both busy: queue
        assert pool.busy_cycles == 12

    def test_tie_goes_to_lowest_index(self):
        pool = UnitPool(3)
        pool.busy_until = [7.0, 3.0, 3.0]
        pool.busy_cycles = 10.0
        assert pool.acquire(1.0, 4) == 7.0      # starts at 3.0 on index 1
        assert pool.busy_until == [7.0, 7.0, 3.0]
        assert pool.busy_cycles == 14.0
        assert pool.acquire(5.0, 2) == 7.0      # index 2 is free at 3.0
        assert pool.busy_until == [7.0, 7.0, 7.0]
        assert pool.acquire(0.0, 1) == 8.0      # three-way tie: index 0
        assert pool.busy_until == [8.0, 7.0, 7.0]
        assert pool.busy_cycles == 17.0

    def test_reset_clears_busy(self):
        pool = UnitPool(1)
        pool.acquire(0.0, 5)
        pool.reset()
        assert pool.busy_until == [0.0]
        assert pool.busy_cycles == 0.0

    def test_empty_pool_raises(self):
        from repro.errors import SimulationError

        pool = UnitPool(0)
        with pytest.raises(SimulationError):
            pool.acquire(0.0, 1)


CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "verify",
                      "corpus")


class TestTableRowsMatchCorpus:
    @pytest.mark.parametrize("path", sorted(
        glob.glob(os.path.join(CORPUS, "*.s"))),
        ids=lambda p: os.path.basename(p))
    def test_corpus_program_rows(self, path):
        with open(path) as handle:
            program = assemble(handle.read())
        table = get_timing_table(program)
        assert len(table) == len(program.instructions)
        for i, inst in enumerate(program.instructions):
            assert table.fe_costs[i] == frontend_cost(inst)
            kind = table.kinds[i]
            if kind == KIND_ALU:
                assert table.occupancies[i] == unit_occupancy(inst)
            elif kind == KIND_MEMORY:
                assert inst.spec.is_memory
                assert table.occupancies[i] == LSU_CYCLES
            else:
                assert inst.spec.name in ("s_endpgm", "s_barrier",
                                          "s_waitcnt")
                assert table.occupancies[i] == 0


class TestStepAdvance:
    """Per-instruction issue stepping on multi-instance unit pools."""

    def test_stall_split_on_multi_instance_pools(self):
        """The compiled loop's fu-busy branch on a CU with two SIMD and
        two SIMF instances.  Both SIMD instances are still occupied (by
        work outside this wavefront) when a sole wavefront issues, so
        :meth:`UnitPool.acquire` waits; the gaps must split between
        ``fu-busy`` and ``operand-dep`` exactly as the spec loop
        attributes them."""
        from repro.core.config import ArchConfig

        arch = ArchConfig.baseline().with_parallelism(num_simd=2, num_simf=2)
        program = assemble("""
          v_mul_lo_i32 v1, v0, v0
          v_add_i32 v2, vcc, v1, v0
          v_mul_f32 v3, v0, v0
          v_add_i32 v4, vcc, v2, v1
          v_mul_lo_i32 v5, v4, v2
          s_endpgm
        """)

        def run(spec):
            cu = ComputeUnit(MemorySystem(), num_simd=arch.num_simd,
                             num_simf=arch.num_simf)
            cu.pool(FunctionalUnit.SIMD).busy_until[:] = [40.0, 57.5]
            cu.pool(FunctionalUnit.SIMF).busy_until[:] = [70.0, 90.25]
            wg = Workgroup((0, 0, 0), program, (64, 1, 1))
            wg.add_wavefront(Wavefront(0, program))
            with _loop(spec):
                return cu.run_workgroup(wg, start_time=0.0)

        end, stats = run(spec=False)
        spec_end, spec_stats = run(spec=True)
        assert end == spec_end
        assert stats.stalls == spec_stats.stalls
        assert stats.active_cycles == spec_stats.active_cycles
        assert stats.stalls["fu-busy"] > 0
        assert stats.stalls["operand-dep"] > 0
        assert stats.active_cycles + sum(stats.stalls.values()) \
            == stats.cycles
