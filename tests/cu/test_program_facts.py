"""Emit-time program facts (:mod:`repro.cu.facts`): dead VCC writes and
lane-uniform address rows, and what the emitter does with them."""

import contextlib

import numpy as np
import pytest

from repro.asm import assemble
from repro.asm.program import Program
from repro.cu.facts import NO_FACTS
from repro.cu.pipeline import ComputeUnit
from repro.cu.prepared import get_prepared
from repro.cu.wavefront import Wavefront
from repro.cu.workgroup import Workgroup
from repro.isa import registers as regs
from repro.isa.formats import Format
from repro.mem.params import DCD_PM_TIMING
from repro.mem.system import MemorySystem
from repro.verify.spec import spec_execution

from .test_superblock import _suite_programs
from .test_vector_conformance import EXEC_MASKS


def _facts(source):
    return get_prepared(assemble(source)).facts


def _plan_source(prepared, index):
    """The emitted source of one plan executor."""
    head = "def _plan%d(" % index
    chunk = prepared.source[prepared.source.index(head):]
    end = chunk.find("\ndef ", 1)
    return chunk if end < 0 else chunk[:end]


def _patched(source, index, field_bits):
    """``source`` assembled, with bits OR-ed into the first word of
    instruction ``index`` (a hand encoding the assembler refuses)."""
    program = assemble(source)
    words = list(program.words)
    words[program.instructions[index].address // 4] |= field_bits
    return Program("patched", words, vgpr_count=program.vgpr_count)


# ---------------------------------------------------------------------------
# VCC liveness.
# ---------------------------------------------------------------------------

#: Each line reads VCC between a carry and a compare that overwrites
#: VCC, so the carry's VCC is live only through that line.
VCC_READERS = {
    "s_cbranch_vccz": "s_cbranch_vccz next\nnext:",
    "s_cbranch_vccnz": "s_cbranch_vccnz next\nnext:",
    "v_cndmask_b32": "v_cndmask_b32 v4, v1, v2, vcc",
    "v_addc_u32": "v_addc_u32 v4, vcc, v1, v2, vcc",
    "v_subb_u32": "v_subb_u32 v4, vcc, v1, v2, vcc",
    "vop3-cndmask": "v_cndmask_b32 v4, v1, s5, vcc",
    "vop3-addc": "v_addc_u32 v4, vcc, v1, s5, vcc",
    "vop3-subb": "v_subb_u32 v4, vcc, v1, s5, vcc",
    "salu-vcc_lo": "s_mov_b32 s10, vcc_lo",
    "salu-vcc_hi": "s_add_u32 s10, s11, vcc_hi",
    "salu-vccz": "s_mov_b32 s10, vccz",
    "salu-64": "s_mov_b64 s[10:11], vcc",
    "saveexec": "s_and_saveexec_b64 s[10:11], vcc",
    "half-write": "s_mov_b32 vcc_lo, s3",
    "valu-source": "v_mov_b32 v4, vcc_hi",
    "valu-vccz": "v_add_f32 v4, vccz, v1",
    "buffer-soffset": "buffer_load_dword v4, v1, s[4:7], vcc_lo offen",
    "generic-dispatch": "s_bcnt0_i32_b32 s10, s11",
}


def _carry_then(line):
    return ("v_add_i32 v3, vcc, v1, v2\n{}\n"
            "v_cmp_eq_u32 vcc, v1, v2\ns_endpgm".format(line))


class TestVccLiveness:
    def test_unread_carry_is_dead(self):
        # The compare stays: s_endpgm reads it.
        assert _facts(_carry_then("s_nop")).dead_vcc == {0}

    @pytest.mark.parametrize("kind", sorted(VCC_READERS))
    def test_reader_keeps_the_carry(self, kind):
        assert 0 not in _facts(_carry_then(VCC_READERS[kind])).dead_vcc

    def test_endpgm_reads_vcc(self):
        assert _facts("v_add_i32 v3, vcc, v1, v2\ns_endpgm").dead_vcc == \
            frozenset()

    def test_falling_off_the_end_reads_vcc(self):
        assert _facts("v_add_i32 v3, vcc, v1, v2").dead_vcc == frozenset()

    @pytest.mark.parametrize("target,dead", [
        ("top", frozenset()), ("out", {2})])
    def test_read_across_a_loop_back_edge(self, target, dead):
        # The carry is read only by the next trip's cndmask.
        facts = _facts("""
            v_cmp_eq_u32 vcc, v1, v1
          top:
            v_cndmask_b32 v4, v1, v2, vcc
            v_add_i32 v3, vcc, v1, v2
            s_sub_u32 s10, s10, 1
            s_cmp_gt_u32 s10, 0
            s_cbranch_scc1 {}
          out:
            v_cmp_eq_u32 vcc, v1, v2
            s_endpgm
        """.format(target))
        assert facts.dead_vcc == dead

    def test_read_on_one_branch_path(self):
        facts = _facts("""
            v_add_i32 v3, vcc, v1, v2
            s_cbranch_scc1 skip
            v_cndmask_b32 v4, v1, v2, vcc
          skip:
            v_cmp_eq_u32 vcc, v1, v2
            s_endpgm
        """)
        assert facts.dead_vcc == frozenset()

    def test_sgpr_pair_destination_is_no_vcc_write(self):
        assert _facts(_carry_then("v_cmp_gt_u32 s[10:11], v1, v2")) \
            .dead_vcc == {0}

    @pytest.mark.parametrize("vgpr_count,dead", [
        (None, {0}), (4, frozenset())])
    def test_compare_with_a_raising_read_is_kept(self, vgpr_count, dead):
        # Dropping a compare drops its reads: v9 past a 4-row file
        # must still raise where the spec loop raises.  The assembler
        # refuses such a file; a program built from words may have one.
        program = assemble("v_cmp_gt_u32 vcc, v1, v9\n"
                           "v_cmp_eq_u32 vcc, v1, v2\ns_endpgm")
        if vgpr_count is not None:
            program = Program("short_file", program.words,
                              vgpr_count=vgpr_count)
        assert get_prepared(program).facts.dead_vcc == dead

    def test_unresolved_branch_target_gives_no_facts(self):
        # s_branch's simm16 patched to jump past the end of the program.
        program = _patched(_carry_then("s_branch next\nnext:"), 1, 0x100)
        assert get_prepared(program).facts == NO_FACTS


class TestDeadCarryEmission:
    SOURCE = """
        v_add_i32 v3, vcc, v1, v2
        v_sub_i32 v4, vcc, v1, s5
        v_subrev_i32 v5, vcc, 7, v1
        v_cmp_gt_u32 vcc, v3, v4
        v_add_i32 v6, vcc, v3, v5
        v_cndmask_b32 v7, v1, v2, vcc
        s_endpgm
    """

    def test_dead_carries_store_the_row_alone(self):
        prepared = get_prepared(assemble(self.SOURCE))
        assert prepared.facts.dead_vcc == {0, 1, 2, 3}
        for index in (0, 1, 2):
            text = _plan_source(prepared, index)
            assert "set_vcc_lanes" not in text and "_r" not in text
            assert prepared.plans[index].specialized
        assert _plan_source(prepared, 3).splitlines()[1].strip() == "pass"

    def test_read_carry_keeps_its_lanes(self):
        prepared = get_prepared(assemble(self.SOURCE))
        assert "wf.set_vcc_lanes(" in _plan_source(prepared, 4)

    @pytest.mark.parametrize("mask_id,exec_mask", EXEC_MASKS,
                             ids=[m[0] for m in EXEC_MASKS])
    def test_issue_loop_matches_spec_loop(self, mask_id, exec_mask):
        want = _run(self.SOURCE, exec_mask, spec=True)
        got = _run(self.SOURCE, exec_mask, spec=False)
        assert got == want


#: Operand shapes of a dead carry: the destination aliasing each
#: source, an SGPR source and an inline-constant source, in either slot
#: (the ``src1`` ones assemble to VOP3b).
DEAD_CARRY_SHAPES = {
    "vdst=src0": "{} v1, vcc, v1, v2",
    "vdst=vsrc1": "{} v2, vcc, v1, v2",
    "sgpr-src0": "{} v3, vcc, s5, v2",
    "sgpr-src0,vdst=vsrc1": "{} v2, vcc, s5, v2",
    "sgpr-src1,vdst=src0": "{} v1, vcc, v1, s5",
    "inline-src0": "{} v3, vcc, -7, v1",
    "inline-src0,vdst=vsrc1": "{} v1, vcc, 64, v1",
    "inline-src1,vdst=src0": "{} v2, vcc, v2, 3",
}


class TestDeadCarryInPlace:
    """A carry followed by a compare that overwrites VCC computes its
    row in place, exactly as the spec loop's reference does."""

    @pytest.mark.parametrize("mask_id,exec_mask", EXEC_MASKS,
                             ids=[m[0] for m in EXEC_MASKS])
    @pytest.mark.parametrize("shape", sorted(DEAD_CARRY_SHAPES))
    @pytest.mark.parametrize("name", ("v_add_i32", "v_sub_i32",
                                      "v_subrev_i32"))
    def test_issue_loop_matches_spec_loop(self, name, shape, mask_id,
                                          exec_mask):
        source = (DEAD_CARRY_SHAPES[shape].format(name)
                  + "\nv_cmp_eq_u32 vcc, v1, v2\ns_endpgm")
        prepared = get_prepared(assemble(source))
        assert 0 in prepared.facts.dead_vcc
        assert "out=v[" in _plan_source(prepared, 0)
        want = _run(source, exec_mask, spec=True)
        got = _run(source, exec_mask, spec=False)
        assert got == want


def _run(source, exec_mask, spec, setup=None):
    program = assemble(source)
    memory = MemorySystem(params=DCD_PM_TIMING)
    cu = ComputeUnit(memory)
    wg = Workgroup((0, 0, 0), program, (64, 1, 1))
    wf = Wavefront(0, program)
    rng = np.random.default_rng(9)
    wf.vgprs[1] = rng.integers(0, 1 << 32, 64, dtype=np.uint32)
    wf.vgprs[2] = rng.integers(0, 1 << 32, 64, dtype=np.uint32)
    wf.sgprs[5] = 0x80000001
    if setup is not None:
        setup(wf, memory)
    wf.exec_mask = exec_mask
    wg.add_wavefront(wf)
    with spec_execution() if spec else contextlib.nullcontext():
        end, stats = cu.run_workgroup(wg)
    return {"vgprs": wf.vgprs.tobytes(), "sgprs": wf.sgprs.tobytes(),
            "vcc": wf.vcc, "exec": wf.exec_mask, "end": end,
            "instructions": stats.instructions,
            "memory": memory.global_mem.snapshot().tobytes()}


# ---------------------------------------------------------------------------
# Lane-uniform rows.
# ---------------------------------------------------------------------------

def _uniform_after(line):
    """Whether v5 (uniform before ``line``) is uniform at the load."""
    facts = _facts("v_mov_b32 v5, s3\n{}\n"
                   "buffer_load_dword v6, v5, s[4:7], 0 offen\n"
                   "s_endpgm".format(line))
    return 2 in facts.uniform_loads


class TestUniformRows:
    def test_sgpr_move_is_uniform(self):
        assert _uniform_after("s_nop")

    def test_nothing_is_uniform_at_entry(self):
        assert _facts("buffer_load_dword v6, v5, s[4:7], 0 offen\n"
                      "s_endpgm").uniform_loads == frozenset()

    @pytest.mark.parametrize("line", [
        "v_add_i32 v5, vcc, s4, v5",
        "v_lshlrev_b32 v5, 2, v5",
        "v_mul_lo_u32 v5, v5, s3",
        "v_mac_f32 v5, s3, v5",
        "s_and_b64 exec, exec, vcc",
        "s_and_b64 exec, vcc, exec",
        "s_and_saveexec_b64 s[10:11], vcc",
        "buffer_store_dword v1, v5, s[4:7], 0 offen",
        "v_cmp_gt_u32 vcc, v1, v5",
        "s_mov_b32 s3, s9",
    ])
    def test_kept(self, line):
        assert _uniform_after(line)

    @pytest.mark.parametrize("line", [
        "s_mov_b64 exec, s[10:11]",
        "s_or_saveexec_b64 s[10:11], s[12:13]",
        "s_or_b64 exec, exec, vcc",
        "s_mov_b32 exec_lo, s3",
        "s_movk_i32 exec_hi, 0",
        "buffer_load_dword v5, v1, s[4:7], 0 offen",
        "tbuffer_load_format_xy v[4:5], v1, s[4:7], 0 offen",
        "ds_read_b32 v5, v1",
        "ds_read2_b32 v[4:5], v1 offset1:1",
        "v_add_i32 v5, vcc, v1, v5",
        "v_mov_b32 v5, v0",
        "v_cndmask_b32 v5, v5, s3, vcc",
        "v_mov_b32 v5, vcc_lo",
        "v_ffbh_u32 v9, v1",
    ])
    def test_cleared(self, line):
        assert not _uniform_after(line)

    def test_valu_exec_write_clears(self):
        # A VOP3 compare writing EXEC (hand-encoded: the assembler
        # takes only vcc or an SGPR pair).
        program = _patched("v_mov_b32 v5, s3\nv_cmp_gt_u32 s[0:1], v1, v2\n"
                           "buffer_load_dword v6, v5, s[4:7], 0 offen\n"
                           "s_endpgm", 1, regs.EXEC_LO << 8)
        inst = program.instructions[1]
        assert inst.fmt is Format.VOP3 and inst.fields["sdst"] == regs.EXEC_LO
        assert get_prepared(program).facts.uniform_loads == frozenset()

    def test_meet_at_a_branch_join(self):
        facts = _facts("""
            v_mov_b32 v5, s3
            v_mov_b32 v6, s3
            s_cbranch_scc1 other
            v_mov_b32 v6, v1
            s_branch join
          other:
            v_mov_b32 v5, 7
          join:
            buffer_load_dword v7, v5, s[4:7], 0 offen
            buffer_load_dword v8, v6, s[4:7], 0 offen
            s_endpgm
        """)
        assert facts.uniform_loads == {6}

    def test_loop_carried_write_clears(self):
        facts = _facts("""
            v_mov_b32 v5, s3
          top:
            buffer_load_dword v7, v5, s[4:7], 0 offen
            v_add_i32 v5, vcc, v5, v0
            s_cbranch_scc1 top
            s_endpgm
        """)
        assert facts.uniform_loads == frozenset()

    def test_only_offen_loads(self):
        facts = _facts("""
            v_mov_b32 v5, s3
            buffer_load_dword v6, v5, s[4:7], 0 idxen
            buffer_store_dword v6, v5, s[4:7], 0 offen
            buffer_load_ubyte v7, v5, s[4:7], 0 offen
            s_endpgm
        """)
        assert facts.uniform_loads == {3}


class TestUniformLoadEmission:
    SOURCE = """
        v_mov_b32 v5, s3
        tbuffer_load_format_xy v[5:6], v5, s[4:7], 0 offen offset:4
        v_mov_b32 v7, s3
        buffer_load_sbyte v8, v7, s[4:7], 0 offen
        buffer_load_dword v9, v1, s[4:7], 0 offen
        s_endpgm
    """

    def test_one_address_form(self):
        prepared = get_prepared(assemble(self.SOURCE))
        assert prepared.facts.uniform_loads == {1, 3}
        for index in (1, 3):
            assert "_ZROW[:_n]" in _plan_source(prepared, index)
        assert "_ZROW[:_n]" not in _plan_source(prepared, 4)

    @staticmethod
    def _setup(wf, memory):
        wf.sgprs[3] = 0x1F1
        wf.sgprs[4:8] = (0x200, 0, 0x1000, 0)
        wf.vgprs[1] = np.arange(64, dtype=np.uint32) * 4
        memory.global_mem.write_block(0, np.random.default_rng(3).integers(
            0, 256, 0x2000, dtype=np.uint8))

    @pytest.mark.parametrize("mask_id,exec_mask", EXEC_MASKS,
                             ids=[m[0] for m in EXEC_MASKS])
    def test_issue_loop_matches_spec_loop(self, mask_id, exec_mask):
        want = _run(self.SOURCE, exec_mask, True, self._setup)
        got = _run(self.SOURCE, exec_mask, False, self._setup)
        assert got == want


# ---------------------------------------------------------------------------
# Coverage over the benchmark suites.
# ---------------------------------------------------------------------------

class TestFactCoverage:
    """A regression of either pass fails here, not only in perfbench."""

    @pytest.fixture(scope="class")
    def prepared(self):
        return {program.content_key(): get_prepared(program)
                for program in _suite_programs()}

    @staticmethod
    def _named(prepared, name):
        (match,) = [p for p in prepared.values() if p.program.name == name]
        return match

    @pytest.mark.parametrize("name,index", [
        ("conv2d_i32", 39), ("kmeans_assign", 17), ("nin_conv_i8", 42)])
    def test_uniform_loads(self, prepared, name, index):
        program = self._named(prepared, name)
        assert index in program.facts.uniform_loads
        assert "_ZROW[:_n]" in _plan_source(program, index)

    def test_uniform_load_count(self, prepared):
        assert sum(len(p.facts.uniform_loads)
                   for p in prepared.values()) == 14

    def test_dead_vcc_plan_count(self, prepared):
        assert sum(len(p.facts.dead_vcc) for p in prepared.values()) == 228

    def test_facts_leave_specialization_alone(self, prepared):
        for p in prepared.values():
            for index in p.facts.dead_vcc:
                assert p.plans[index].specialized
