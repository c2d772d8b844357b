"""The compiled timing layer: tables, cache, LSU transaction pricing,
block stepping."""

import glob
import os
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro.cu.lsu import make_buffer_descriptor
from repro.cu.pipeline import ComputeUnit
from repro.cu.timing import (
    DEFAULT_TIMING,
    FLAG_BRANCH,
    FLAG_ENDPGM,
    FLAG_MEMORY,
    FLAG_WAITCNT,
    KIND_ALU,
    KIND_ENDPGM,
    KIND_MEMORY,
    KIND_WAITCNT,
    POOL_LSU,
    POOL_SALU,
    POOL_SIMD,
    TimingTable,
    UnitPool,
    clear_timing_table_cache,
    frontend_cost,
    get_timing_table,
    lookup_timing_table,
    step_advance,
    timing_table_cache_stats,
    unit_occupancy,
)
from repro.cu.wavefront import Wavefront
from repro.cu.workgroup import Workgroup
from repro.isa.categories import FunctionalUnit
from repro.mem.params import DCD_PM_TIMING
from repro.mem.system import MemorySystem

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


class TestTransactionsArgument:
    """The explicit ``transactions`` argument replaced the
    ``getattr(inst, "transactions", 1)`` duck-type."""

    def test_lsu_occupancy_scales_with_transactions(self):
        inst = _inst("s_load_dword s20, s[2:3], 0")
        base = DEFAULT_TIMING.lsu_cycles
        assert unit_occupancy(inst) == base
        assert unit_occupancy(inst, DEFAULT_TIMING, transactions=2) == 2 * base
        assert unit_occupancy(inst, DEFAULT_TIMING, transactions=4) == 4 * base

    def test_transaction_count_clamps_to_one(self):
        inst = _inst("s_load_dword s20, s[2:3], 0")
        assert unit_occupancy(inst, DEFAULT_TIMING, transactions=0) == \
            DEFAULT_TIMING.lsu_cycles

    def test_non_lsu_units_ignore_transactions(self):
        inst = _inst("s_mov_b32 s0, 1")
        assert unit_occupancy(inst, DEFAULT_TIMING, transactions=7) == \
            DEFAULT_TIMING.salu_cycles

    def test_instruction_attribute_no_longer_consulted(self):
        inst = _inst("s_load_dword s20, s[2:3], 0")
        inst.transactions = 99  # a stale duck-typed attribute
        assert unit_occupancy(inst) == DEFAULT_TIMING.lsu_cycles


class TestTableRows:
    def test_rows_match_per_instruction_functions(self):
        program = assemble(MIXED)
        table = TimingTable(program, DEFAULT_TIMING)
        assert len(table) == len(program.instructions)
        for i, inst in enumerate(program.instructions):
            assert table.fe_costs[i] == frontend_cost(inst, DEFAULT_TIMING)
            if table.kinds[i] == KIND_ALU:
                assert table.occupancies[i] == \
                    unit_occupancy(inst, DEFAULT_TIMING)
            elif table.kinds[i] == KIND_MEMORY:
                assert table.occupancies[i] == DEFAULT_TIMING.lsu_cycles
            else:
                assert table.occupancies[i] == 0

    def test_classification_and_flags(self):
        program = assemble(MIXED)
        table = TimingTable(program, DEFAULT_TIMING)
        kinds = table.kinds
        assert kinds[0] == KIND_ALU and table.pool[0] == POOL_SALU
        assert kinds[1] == KIND_ALU and table.pool[1] == POOL_SIMD
        assert kinds[3] == KIND_MEMORY and table.pool[3] == POOL_LSU
        assert table.flags[3] == FLAG_MEMORY
        assert kinds[4] == KIND_WAITCNT and table.flags[4] == FLAG_WAITCNT
        assert table.flags[5] == FLAG_BRANCH
        assert kinds[-1] == KIND_ENDPGM and table.flags[-1] == FLAG_ENDPGM

    def test_arrays_are_read_only(self):
        table = TimingTable(assemble(MIXED), DEFAULT_TIMING)
        with pytest.raises(ValueError):
            table.frontend[0] = 9
        with pytest.raises(ValueError):
            table.occupancy[0] = 9


class TestTableCache:
    def test_identical_binaries_share_one_table(self):
        a, hit_a = lookup_timing_table(assemble(MIXED))
        b, hit_b = lookup_timing_table(assemble(MIXED + "\n; cosmetic\n"))
        assert a is b
        assert not hit_a and hit_b
        stats = timing_table_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["size"] == 1

    def test_distinct_params_get_distinct_tables(self):
        from repro.cu.timing import CuTimingParams

        program = assemble(MIXED)
        a = get_timing_table(program)
        b = get_timing_table(program, CuTimingParams(lsu_cycles=3))
        assert a is not b
        assert b.occupancies[3] == 3

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


def _run_lsu(source, compiled, init=None):
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
    end, stats = cu.run_workgroup(wg, compiled=compiled)
    return end, stats, cu.pools[FunctionalUnit.LSU]


class TestLsuDynamicPricing:
    """The PR 3 undercharge bug must stay dead under the table path:
    SMRD dwordx2/x4 and multi-dword MUBUF accesses occupy the LSU one
    base period per transaction, on every engine."""

    ENGINES = (False, True)  # reference, compiled

    @pytest.mark.parametrize("compiled", ENGINES)
    def test_smrd_width_prices_lsu_occupancy(self, compiled):
        base = DEFAULT_TIMING.lsu_cycles
        cases = (
            ("s_load_dword s20, s[2:3], 0", 1),
            ("s_load_dwordx2 s[20:21], s[2:3], 0", 2),
            ("s_load_dwordx4 s[20:23], s[2:3], 0", 4),
        )
        for line, transactions in cases:
            _, _, lsu = _run_lsu(line + "\n  s_endpgm", compiled)
            assert lsu.busy_cycles == base * transactions, line

    @pytest.mark.parametrize("compiled", ENGINES)
    def test_mubuf_multi_dword_prices_lsu_occupancy(self, compiled):
        base = DEFAULT_TIMING.lsu_cycles

        def init(wf):
            wf.write_vgpr(1, np.zeros(64, dtype=np.uint32))

        for fmt, transactions in (("x", 1), ("xy", 2)):
            line = "tbuffer_load_format_{} v2, v1, s[4:7], 0 offen".format(fmt)
            _, _, lsu = _run_lsu(line + "\n  s_endpgm", compiled,
                                 init=init)
            assert lsu.busy_cycles == base * transactions, fmt

    def test_engines_agree_on_end_time(self):
        source = "s_load_dwordx4 s[20:23], s[2:3], 0\n  s_endpgm"
        results = [_run_lsu(source, compiled)[0]
                   for compiled in self.ENGINES]
        assert results[0] == results[1]


class TestUnitPool:
    def test_acquire_earliest_free_instance(self):
        pool = UnitPool(2)
        assert pool.acquire(0.0, 4) == 4.0
        assert pool.acquire(0.0, 4) == 4.0      # second instance
        assert pool.acquire(0.0, 4) == 8.0      # both busy: queue
        assert pool.busy_cycles == 12

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
            assert table.fe_costs[i] == frontend_cost(inst, DEFAULT_TIMING)
            kind = table.kinds[i]
            if kind == KIND_ALU:
                assert table.occupancies[i] == \
                    unit_occupancy(inst, DEFAULT_TIMING)
            elif kind == KIND_MEMORY:
                assert inst.spec.is_memory
                assert table.occupancies[i] == DEFAULT_TIMING.lsu_cycles
            else:
                assert inst.spec.name in ("s_endpgm", "s_barrier",
                                          "s_waitcnt")
                assert table.occupancies[i] == 0


#: Board times are multiples of the 0.25-cycle CU clock granularity.
quarter_times = st.integers(min_value=0, max_value=4000).map(
    lambda i: i / 4.0)


@st.composite
def block_cases(draw):
    """(frontend, occupancy, pool) rows like the superblock compiler
    emits, over 1-3 instances per ALU pool with arbitrary residue."""
    steps = draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 16), st.integers(0, 3)),
        min_size=1, max_size=40))
    busy = [[draw(quarter_times) for _ in range(draw(st.integers(1, 3)))]
            for _ in range(4)]
    return steps, busy, draw(quarter_times)


class TestStepAdvance:
    @given(case=block_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_unit_pool_issue_chain(self, case):
        """A block issue is the reference's per-instruction chain:
        front end, then :meth:`UnitPool.acquire` on the step's pool."""
        steps, busy, start = case
        pools = []
        for rows in busy:
            pool = UnitPool(len(rows))
            pool.busy_until = list(rows)
            pools.append(pool)
        t = fe_done = start
        for fe, occ, pid in steps:
            fe_done = t + fe
            t = pools[pid].acquire(fe_done, occ)
        lists = [list(rows) for rows in busy]
        assert step_advance(steps, start, lists) == (fe_done, t)
        assert lists == [pool.busy_until for pool in pools]
