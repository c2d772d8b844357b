"""The CU pipeline: scheduling, waitcnt, barriers, trimming enforcement."""

import contextlib

import numpy as np
import pytest

from repro.asm import assemble
from repro.cu.pipeline import ComputeUnit
from repro.cu.timing import TRANS_MULTIPLIER, frontend_cost, unit_occupancy
from repro.cu.wavefront import Wavefront
from repro.cu.workgroup import Workgroup
from repro.errors import SimulationError, TrimmedInstructionError
from repro.mem.system import MemorySystem
from repro.mem.params import DCD_PM_TIMING
from repro.verify.spec import spec_execution


def run_program(source, num_wavefronts=1, supported=None, num_simd=1,
                num_simf=1, init=None):
    program = assemble(source)
    memory = MemorySystem(params=DCD_PM_TIMING)
    memory.preload_all(0, 1 << 16)
    cu = ComputeUnit(memory, supported=supported, num_simd=num_simd,
                     num_simf=num_simf)
    wg = Workgroup((0, 0, 0), program, (64 * num_wavefronts, 1, 1))
    for i in range(num_wavefronts):
        wf = Wavefront(i, program)
        if init:
            init(wf, i)
        wg.add_wavefront(wf)
    end, stats = cu.run_workgroup(wg)
    return end, stats, wg


class TestBasicExecution:
    def test_empty_kernel_completes(self):
        end, stats, _ = run_program("s_endpgm")
        assert stats.instructions == 1
        assert end > 0

    def test_instruction_counts_per_unit(self):
        end, stats, _ = run_program("""
          s_mov_b32 s0, 1
          v_mov_b32 v3, 0
          v_add_f32 v4, v3, v3
          s_branch skip
          s_nop
        skip:
          s_endpgm
        """)
        assert stats.per_unit["salu"] == 1
        assert stats.per_unit["simd"] == 1
        assert stats.per_unit["simf"] == 1
        assert stats.per_unit["branch"] == 2  # s_branch + s_endpgm
        assert stats.per_name["s_nop"] is not None if "s_nop" in stats.per_name \
            else True
        assert "s_nop" not in stats.per_name  # branch skipped it

    def test_loop_executes_n_times(self):
        end, stats, wg = run_program("""
          s_mov_b32 s0, 0
        loop:
          s_add_u32 s0, s0, 1
          s_cmp_lt_u32 s0, 10
          s_cbranch_scc1 loop
          s_endpgm
        """)
        assert wg.wavefronts[0].read_scalar(0) == 10
        assert stats.per_name["s_add_u32"] == 10

    def test_runaway_kernel_detected(self):
        program_source = """
        forever:
          s_branch forever
        """
        memory = MemorySystem()
        cu = ComputeUnit(memory, max_instructions=1000)
        program = assemble(program_source)
        wg = Workgroup((0, 0, 0), program, (64, 1, 1))
        wg.add_wavefront(Wavefront(0, program))
        with pytest.raises(SimulationError, match="budget"):
            cu.run_workgroup(wg)


class TestTrimmingEnforcement:
    SOURCE = """
      v_add_f32 v3, v0, v0
      s_endpgm
    """

    def test_supported_set_allows_execution(self):
        end, stats, _ = run_program(
            self.SOURCE, supported={"v_add_f32", "s_endpgm"})
        assert stats.instructions == 2

    def test_removed_instruction_traps(self):
        with pytest.raises(TrimmedInstructionError):
            run_program(self.SOURCE, supported={"s_endpgm"})

    def test_removed_simf_traps_float_ops(self):
        with pytest.raises(TrimmedInstructionError):
            run_program(self.SOURCE, num_simf=0)

    def test_superset_instructions_always_trap(self):
        # v_ffbh_u32 exists for characterisation but is unimplemented.
        from repro.isa import formats as F
        from repro.isa.tables import spec
        sp = spec("v_ffbh_u32")
        words = F.pack_vop1(sp.opcode, 2, 256)
        words += assemble("s_endpgm").words
        from repro.asm.program import Program
        program = Program("raw", words)
        memory = MemorySystem()
        cu = ComputeUnit(memory)
        wg = Workgroup((0, 0, 0), program, (64, 1, 1))
        wg.add_wavefront(Wavefront(0, program))
        with pytest.raises(TrimmedInstructionError, match="superset"):
            cu.run_workgroup(wg)


class TestWaitcnt:
    def test_waitcnt_orders_memory(self):
        # Without memory in flight, waitcnt is (nearly) free.
        end_plain, _, _ = run_program("s_nop\ns_endpgm")
        end_wait, _, _ = run_program("s_waitcnt 0\ns_endpgm")
        assert abs(end_plain - end_wait) < 4

    def test_waitcnt_blocks_until_load_completes(self):
        def init(wf, _):
            wf.sgprs[4:8] = [0, 0, 1 << 15, 0]
            wf.write_vgpr(1, np.zeros(64, dtype=np.uint32))

        load_then_wait = """
          tbuffer_load_format_x v2, v1, s[4:7], 0 offen
          s_waitcnt vmcnt(0)
          s_endpgm
        """
        load_no_wait = """
          tbuffer_load_format_x v2, v1, s[4:7], 0 offen
          s_endpgm
        """
        end_wait, _, _ = run_program(load_then_wait, init=init)
        end_nowait, _, _ = run_program(load_no_wait, init=init)
        # Both must cover the load's latency (endpgm drains), and the
        # waitcnt version cannot be faster.
        assert end_wait >= end_nowait - 1


class TestBarriers:
    SOURCE = """
      s_barrier
      s_endpgm
    """

    def test_single_wavefront_passes_barrier(self):
        end, stats, _ = run_program(self.SOURCE, num_wavefronts=1)
        assert stats.instructions == 2

    def test_multiple_wavefronts_rendezvous(self):
        end, stats, _ = run_program(self.SOURCE, num_wavefronts=4)
        assert stats.instructions == 8
        assert stats.wavefronts == 4

    def test_too_many_wavefronts_rejected(self):
        program = assemble("s_endpgm")
        memory = MemorySystem()
        cu = ComputeUnit(memory, max_wavefronts=2)
        wg = Workgroup((0, 0, 0), program, (64 * 3, 1, 1))
        for i in range(3):
            wg.add_wavefront(Wavefront(i, program))
        with pytest.raises(SimulationError, match="wavefronts"):
            cu.run_workgroup(wg)


class TestOneProgramPerWorkgroup:
    """A workgroup runs one kernel: wavefronts with different programs
    are rejected before any issue, on the issue loop and the spec loop."""

    @pytest.mark.parametrize("spec", [False, True],
                             ids=["compiled", "spec"])
    def test_mixed_programs_raise(self, spec):
        first = assemble("s_mov_b32 s0, 1\n  s_endpgm")
        second = assemble("s_mov_b32 s0, 2\n  s_endpgm")
        cu = ComputeUnit(MemorySystem())
        wg = Workgroup((0, 0, 0), first, (128, 1, 1))
        wg.add_wavefront(Wavefront(0, first))
        wg.add_wavefront(Wavefront(1, second))
        loop = spec_execution() if spec else contextlib.nullcontext()
        with loop, pytest.raises(SimulationError, match="mixes programs"):
            cu.run_workgroup(wg)
        assert all(wf.instructions_executed == 0 for wf in wg.wavefronts)


class TestTiming:
    def test_two_word_instructions_cost_extra_fetch(self):
        program = assemble("v_mad_f32 v1, v2, v3, v4\ns_endpgm")
        assert frontend_cost(program.instructions[0]) == 2
        program = assemble("s_nop\ns_endpgm")
        assert frontend_cost(program.instructions[0]) == 1

    def test_vector_occupancy_exceeds_scalar(self):
        vec = assemble("v_add_i32 v1, vcc, v2, v3\ns_endpgm").instructions[0]
        sca = assemble("s_add_u32 s0, s1, s2\ns_endpgm").instructions[0]
        assert unit_occupancy(vec) > unit_occupancy(sca)

    def test_float_slower_than_int(self):
        fadd = assemble("v_add_f32 v1, v2, v3\ns_endpgm").instructions[0]
        iadd = assemble("v_add_i32 v1, vcc, v2, v3\ns_endpgm").instructions[0]
        assert unit_occupancy(fadd) > unit_occupancy(iadd)

    def test_transcendentals_are_quarter_rate(self):
        sin = assemble("v_sin_f32 v1, v2\ns_endpgm").instructions[0]
        fadd = assemble("v_add_f32 v1, v2, v3\ns_endpgm").instructions[0]
        assert unit_occupancy(sin) == \
            unit_occupancy(fadd) * TRANS_MULTIPLIER

    def test_extra_valus_speed_up_vector_streams(self):
        source = "\n".join(["v_mul_lo_i32 v1, v2, v3"] * 40) + "\ns_endpgm"
        end1, _, _ = run_program(source, num_wavefronts=4, num_simd=1)
        end4, _, _ = run_program(source, num_wavefronts=4, num_simd=4)
        assert end4 < end1 * 0.6  # multithread parallelism works

    def test_divergence_costs_are_charged_even_when_masked(self):
        # VALU passes run regardless of EXEC: a masked-off op still
        # occupies the unit for its full sweep.
        masked = """
          s_mov_b64 exec, 0
          v_mul_lo_i32 v1, v2, v3
          s_endpgm
        """
        end, stats, _ = run_program(masked)
        assert stats.per_unit["simd"] == 1


class TestRunStatsCycles:
    """Regression: ``CuRunStats.cycles`` was never populated by
    ``run_workgroup`` -- merged launch stats silently summed zeros."""

    def test_cycles_equal_elapsed(self):
        end, stats, _ = run_program("""
          s_mov_b32 s0, 1
          v_mov_b32 v3, 0
          s_endpgm
        """)
        assert stats.cycles == end
        assert stats.cycles > 0

    def test_cycles_relative_to_start_time(self):
        program = assemble("s_mov_b32 s0, 1\ns_endpgm")
        memory = MemorySystem(params=DCD_PM_TIMING)
        cu = ComputeUnit(memory)
        wg = Workgroup((0, 0, 0), program, (64, 1, 1))
        wg.add_wavefront(Wavefront(0, program))
        end, stats = cu.run_workgroup(wg, start_time=1000.0)
        assert stats.cycles == end - 1000.0
        assert stats.cycles > 0


class TestStallCauseUnconditional:
    """Regression: ``wf.stall_cause`` updates were skipped whenever no
    observer was attached, leaving stale attribution on the wavefront
    state that a later-attached profiler would read."""

    def test_memory_cause_tracked_unobserved(self):
        def init(wf, i):
            wf.write_scalar64(2, 0x2000)

        _, _, wg = run_program("""
          s_load_dword s20, s[2:3], 0
          s_waitcnt lgkmcnt(0)
          s_endpgm
        """, init=init)
        assert wg.wavefronts[0].stall_cause == "memory"

    def test_barrier_cause_tracked_unobserved(self):
        _, _, wg = run_program("""
          s_barrier
          s_endpgm
        """, num_wavefronts=2)
        assert all(wf.stall_cause == "barrier" for wf in wg.wavefronts)

    def test_mid_session_attach_matches_cold_attach(self):
        """A profiler attached after an unobserved run must see the
        same stall attribution as one attached from the start."""
        from repro.core.config import ArchConfig
        from repro.obs import STALL_CAUSES, PerfCounters
        from repro.runtime.device import SoftGpu

        source = """
          .kernel waits
          .arg out buffer
            s_buffer_load_dword s19, s[12:15], 0
            s_waitcnt lgkmcnt(0)
            s_barrier
            s_endpgm
        """
        program = assemble(source)

        def launch(device):
            out = device.alloc("out", 4 * 128)
            device.preload_all()
            device.run(program, (128,), (128,), args=[out])

        cold = SoftGpu(ArchConfig.baseline())
        cold_counters = cold.attach(PerfCounters())
        launch(cold)

        warm = SoftGpu(ArchConfig.baseline())
        launch(warm)               # unobserved warm-up run
        warm.heap.reset()
        warm.reset_timeline()
        warm.gpu.cus[0].reset_occupancy()
        warm_counters = warm.attach(PerfCounters())
        launch(warm)               # observed re-run on the warm board
        for cause in STALL_CAUSES:
            assert warm_counters.counters.get("stall." + cause) == \
                cold_counters.counters.get("stall." + cause)


class TestWaitcntTarget:
    """Edge cases of the waitcnt settle-time computation."""

    @staticmethod
    def _wf():
        program = assemble("s_endpgm")
        return Wavefront(0, program)

    def test_exact_tie_settles_at_completion(self):
        wf = self._wf()
        wf.outstanding_lgkm = [10.0]
        ready = ComputeUnit._waitcnt_target(wf, 0, 10.0)  # lgkmcnt(0), vmcnt(0)
        assert ready == 10.0
        assert wf.outstanding_lgkm == []  # completion == ready is settled

    def test_allowance_keeps_newest_outstanding(self):
        wf = self._wf()
        wf.outstanding_vm = [5.0, 10.0, 20.0]
        simm = 1 | (0x1F << 8)  # vmcnt(1), lgkmcnt(31): lgkm unconstrained
        ready = ComputeUnit._waitcnt_target(wf, simm, 0.0)
        assert ready == 10.0          # wait until only one is in flight
        assert wf.outstanding_vm == [20.0]

    def test_already_satisfied_does_not_wait(self):
        wf = self._wf()
        wf.outstanding_vm = [50.0]
        simm = 1 | (0x1F << 8)  # vmcnt(1) with one outstanding: satisfied
        ready = ComputeUnit._waitcnt_target(wf, simm, 7.0)
        assert ready == 7.0
        assert wf.outstanding_vm == [50.0]  # still in flight

    def test_lgkm_and_vm_masks_are_independent(self):
        wf = self._wf()
        wf.outstanding_vm = [50.0]
        wf.outstanding_lgkm = [5.0]
        simm = 0xF | (0 << 8)  # vmcnt(15): don't care; lgkmcnt(0): drain
        ready = ComputeUnit._waitcnt_target(wf, simm, 0.0)
        assert ready == 5.0
        assert wf.outstanding_vm == [50.0]
        assert wf.outstanding_lgkm == []

    def test_waits_on_both_counters(self):
        wf = self._wf()
        wf.outstanding_vm = [12.0]
        wf.outstanding_lgkm = [30.0]
        ready = ComputeUnit._waitcnt_target(wf, 0, 1.0)
        assert ready == 30.0
        assert wf.outstanding_vm == [] and wf.outstanding_lgkm == []
