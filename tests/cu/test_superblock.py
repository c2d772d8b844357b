"""The ALU emitter's module, compilation caching and engine exactness."""

import numpy as np
import pytest

from repro.asm import assemble
from repro.core.config import ArchConfig
from repro.cu.prepared import KIND_ALU, clear_prepared_cache, get_prepared
from repro.errors import LaunchPreempted, SimulationError
from repro.obs import Observer
from repro.runtime.device import SoftGpu


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_prepared_cache()
    yield
    clear_prepared_cache()


# ALU plans around waitcnt and barrier, which have no executor.
SPLITS = """
.kernel splits
  s_mov_b32 s22, 1
  s_mov_b32 s23, 2
  s_waitcnt lgkmcnt(0)
  v_mov_b32 v5, 3
  v_add_i32 v6, vcc, v5, v5
  s_barrier
  s_mov_b32 s24, 4
  s_mov_b32 s25, 5
  s_mov_b32 s26, 6
  s_endpgm
"""

# A runnable multi-wavefront kernel with a straight-line ALU loop body.
LOOPY = """
.kernel loopy
.arg inp buffer
.arg out buffer
  s_buffer_load_dword s19, s[8:11], 3
  s_buffer_load_dword s20, s[12:15], 0
  s_buffer_load_dword s21, s[12:15], 1
  s_waitcnt lgkmcnt(0)
  s_mul_i32 s1, s16, s19
  v_add_i32 v3, vcc, s1, v0
  v_lshlrev_b32 v4, 2, v3
  v_add_i32 v4, vcc, s21, v4
  v_mov_b32 v5, 0
  s_movk_i32 s36, 5
L0:
  v_add_i32 v5, vcc, v5, v3
  v_xor_b32 v6, v5, v3
  v_max_i32 v5, v6, v5
  s_sub_i32 s36, s36, 1
  s_cmp_gt_i32 s36, 0
  s_cbranch_scc1 L0
  buffer_store_dword v5, v4, s[4:7], 0 offen
  s_waitcnt vmcnt(0)
  s_endpgm
"""


class TestCompilationCache:
    def test_module_source_kept_on_prepared(self):
        # One generated module per program, an executor per ALU plan,
        # kept on the prepared program.
        ps = get_prepared(assemble(SPLITS))
        alu = [p for p in ps.plans if p.kind == KIND_ALU]
        for plan in alu:
            assert "def _plan%d(wf):" % plan.index in ps.source
            assert plan.exec_fn.__name__ == "_plan%d" % plan.index
        assert ps.source.count("def ") == len(alu)


def _run(program, loop, n=384, local=192):
    """Run ``program`` on the named issue loop: observed for the
    reference loop, unobserved for the compiled one."""
    device = SoftGpu(ArchConfig.baseline())
    if loop == "reference":
        device.attach(Observer())
    inp = device.upload("inp", np.arange(n, dtype=np.uint32) * 7 + 1)
    out = device.alloc("out", 4 * n)
    device.preload_all()
    result = device.run(program, (n,), (local,), args=[inp, out])
    return result, device.read(out), device


class TestEngineExactness:
    def test_multi_wavefront_plan_issue_bit_identical(self):
        program = assemble(LOOPY)
        ref, ref_out, _ = _run(program, "reference")
        sb, sb_out, _ = _run(program, "superblock")
        assert ref.engine == "reference"
        assert sb.engine == "superblock"
        assert np.array_equal(ref_out, sb_out)
        assert sb.cu_cycles == ref.cu_cycles
        assert sb.stats.instructions == ref.stats.instructions
        assert sb.stats.per_unit == ref.stats.per_unit

    def test_budget_raise_parity_mid_block(self):
        # A budget that expires inside the straight-line loop body must
        # raise at the same issue slot, with the same message, as the
        # reference loop.
        program = assemble(LOOPY)
        messages = {}
        for loop in ("reference", "superblock"):
            device = SoftGpu(ArchConfig.baseline())
            if loop == "reference":
                device.attach(Observer())
            device.gpu.cus[0].max_instructions = 37
            inp = device.upload("inp", np.arange(192, dtype=np.uint32))
            out = device.alloc("out", 4 * 192)
            device.preload_all()
            with pytest.raises(SimulationError) as exc:
                device.run(program, (192,), (192,), args=[inp, out])
            messages[loop] = str(exc.value)
        assert messages["reference"] == messages["superblock"]

    def test_checkpoint_at_workgroup_granularity(self):
        program = assemble(LOOPY)
        ref, ref_out, _ = _run(program, "superblock")
        device = SoftGpu(ArchConfig.baseline())
        inp = device.upload("inp", np.arange(384, dtype=np.uint32) * 7 + 1)
        out = device.alloc("out", 4 * 384)
        device.preload_all()
        device.slice_instructions = 100
        hops = 0
        try:
            result = device.run(program, (384,), (192,), args=[inp, out])
        except LaunchPreempted:
            while True:
                hops += 1
                try:
                    result = device.resume()
                    break
                except LaunchPreempted:
                    continue
        assert hops >= 1  # the budget actually preempted
        assert np.array_equal(device.read(out), ref_out)
        assert result.cu_cycles == ref.cu_cycles
        assert result.stats.instructions == ref.stats.instructions


def _suite_programs():
    from repro.kernels import APPSDK_SUITE, EVALUATION_SUITE
    programs = {}
    for cls in list(EVALUATION_SUITE) + list(APPSDK_SUITE):
        for program in cls().programs():
            programs[program.content_key()] = program
    return list(programs.values())


class TestSpecializationCoverage:
    def test_every_suite_alu_plan_is_emitted(self):
        # Tripwire: no benchmark ALU instruction falls back to the
        # generic dispatcher.
        total, generic = 0, []
        for program in _suite_programs():
            for plan in get_prepared(program).plans:
                if plan.kind == KIND_ALU:
                    total += 1
                    if not plan.specialized:
                        generic.append((program.name, plan.name))
        assert total > 1000
        assert generic == []
