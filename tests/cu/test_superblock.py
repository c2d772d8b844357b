"""The ALU emitter's module, compilation caching and exactness against
the spec loop."""

import contextlib
import dis

import numpy as np
import pytest

from repro.asm import assemble
from repro.core.config import ArchConfig
from repro.cu import vector
from repro.cu.prepared import (KIND_ALU, KIND_MEMORY, clear_prepared_cache,
                               get_prepared)
from repro.errors import LaunchPreempted, SimulationError
from repro.isa import registers as regs
from repro.isa.formats import Format
from repro.runtime.device import SoftGpu
from repro.verify.spec import spec_execution


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
    """Run ``program`` on the named loop: ``"spec"``, the verify spec
    loop, or ``"issue"``, the production issue loop."""
    device = SoftGpu(ArchConfig.baseline())
    inp = device.upload("inp", np.arange(n, dtype=np.uint32) * 7 + 1)
    out = device.alloc("out", 4 * n)
    device.preload_all()
    with _loop(loop):
        result = device.run(program, (n,), (local,), args=[inp, out])
    return result, device.read(out), device


def _loop(loop):
    return spec_execution() if loop == "spec" else contextlib.nullcontext()


class TestEngineExactness:
    def test_multi_wavefront_plan_issue_bit_identical(self):
        program = assemble(LOOPY)
        ref, ref_out, _ = _run(program, "spec")
        sb, sb_out, _ = _run(program, "issue")
        assert np.array_equal(ref_out, sb_out)
        assert sb.cu_cycles == ref.cu_cycles
        assert sb.stats.instructions == ref.stats.instructions
        assert sb.stats.per_unit == ref.stats.per_unit

    def test_budget_raise_parity_mid_block(self):
        # A budget that expires inside the straight-line loop body must
        # raise at the same issue slot, with the same message, as the
        # spec loop.
        program = assemble(LOOPY)
        messages = {}
        for loop in ("spec", "issue"):
            device = SoftGpu(ArchConfig.baseline())
            device.gpu.cus[0].max_instructions = 37
            inp = device.upload("inp", np.arange(192, dtype=np.uint32))
            out = device.alloc("out", 4 * 192)
            device.preload_all()
            with pytest.raises(SimulationError) as exc, _loop(loop):
                device.run(program, (192,), (192,), args=[inp, out])
            messages[loop] = str(exc.value)
        assert messages["spec"] == messages["issue"]

    def test_checkpoint_at_workgroup_granularity(self):
        program = assemble(LOOPY)
        ref, ref_out, _ = _run(program, "issue")
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

    def test_executors_read_plain_wavefront_state(self):
        """No emitted executor reads EXEC through the property, the
        VGPR block or the lane-mask method: they read ``wf.lm``,
        ``wf._exec_mask`` and ``wf.rows``.  An EXEC writer stores
        through the ``exec_mask`` setter, the only write path."""
        executors = 0
        for program in _suite_programs():
            for plan in get_prepared(program).plans:
                fn = (plan.exec_fn if plan.kind == KIND_ALU else
                      plan.mem_fn if plan.kind == KIND_MEMORY else None)
                if fn is None:
                    continue
                executors += 1
                names = fn.__code__.co_names
                where = (program.name, plan.index, plan.name)
                assert "vgprs" not in names, where
                assert "active_lane_mask" not in names, where
                assert all(ins.opname == "STORE_ATTR"
                           for ins in dis.get_instructions(fn)
                           if ins.argval == "exec_mask"), where
        assert executors > 1000

    def test_every_in_place_plan_computes_in_place(self):
        """Each plan whose core is one uint32 ufunc -- a
        :data:`vector.UFUNC_IMPL` name, a folded logical shift, a carry
        whose VCC write is dead -- computes into its row (``out=``)."""
        counts = dict.fromkeys(("ufunc", "shift", "dead-carry"), 0)
        for program in _suite_programs():
            prepared = get_prepared(program)
            for plan in prepared.plans:
                if plan.kind != KIND_ALU:
                    continue
                kind = _in_place_kind(plan, prepared.facts)
                if kind is None:
                    continue
                counts[kind] += 1
                text = prepared.source.split(
                    "def _plan%d(" % plan.index)[1].split("\ndef ")[0]
                assert "out=v[" in text, (program.name, plan.name)
        assert all(counts.values()), counts


def _in_place_kind(plan, facts):
    """Which in-place form ``plan`` must take, or None."""
    name, f = plan.name, plan.inst.fields
    if name in vector.UFUNC_IMPL:
        return "ufunc"
    if name in ("v_add_i32", "v_sub_i32", "v_subrev_i32"):
        return "dead-carry" if plan.index in facts.dead_vcc else None
    amount = {"v_lshlrev_b32": "src0", "v_lshrrev_b32": "src0",
              "v_lshl_b32": "src1", "v_lshr_b32": "src1"}.get(name)
    if amount is None or (amount == "src1"
                          and plan.inst.fmt is not Format.VOP3):
        return None
    code = f[amount]
    if code in regs.INLINE_CONSTANTS or code == regs.LITERAL:
        return "shift"
    return None
