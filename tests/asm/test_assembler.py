"""The two-pass assembler: encodings, promotion, labels, directives."""

import pytest

from repro.asm import assemble
from repro.errors import AssemblyError
from repro.isa import registers as regs
from repro.isa.formats import Format


def one(text):
    """Assemble a single-instruction program and return its decode."""
    program = assemble(text + "\n  s_endpgm")
    return program.instructions[0]


class TestScalarEncodings:
    def test_sop2(self):
        inst = one("s_add_u32 s3, s1, s2")
        assert inst.fmt is Format.SOP2
        assert inst.fields == {"op": 0, "sdst": 3, "ssrc0": 1, "ssrc1": 2}

    def test_sop2_64bit_operands(self):
        inst = one("s_and_b64 s[20:21], exec, vcc")
        assert inst.fields["ssrc0"] == regs.EXEC_LO
        assert inst.fields["ssrc1"] == regs.VCC_LO
        assert inst.fields["sdst"] == 20

    def test_sop2_wrong_pair_width_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("s_and_b64 s20, s0, s2\ns_endpgm")

    def test_sopk_immediate(self):
        inst = one("s_movk_i32 s5, -7")
        assert inst.fields["simm16"] == (-7) & 0xFFFF

    def test_sopk_range_check(self):
        with pytest.raises(AssemblyError):
            assemble("s_movk_i32 s5, 70000\ns_endpgm")

    def test_sop1_saveexec(self):
        inst = one("s_and_saveexec_b64 s[30:31], vcc")
        assert inst.fields["sdst"] == 30
        assert inst.fields["ssrc0"] == regs.VCC_LO

    def test_sopc(self):
        inst = one("s_cmp_lt_u32 s3, s1")
        assert inst.fmt is Format.SOPC
        assert inst.fields["ssrc0"] == 3 and inst.fields["ssrc1"] == 1

    def test_literal_operand(self):
        inst = one("s_mov_b32 s0, 0x1000")
        assert inst.literal == 0x1000 and inst.words == 2

    def test_inline_constant_avoids_literal(self):
        inst = one("s_mov_b32 s0, 17")
        assert inst.literal is None and inst.words == 1


class TestWaitcnt:
    def test_counts(self):
        inst = one("s_waitcnt vmcnt(0)")
        simm = inst.fields["simm16"]
        assert simm & 0xF == 0          # vmcnt
        assert (simm >> 8) & 0x1F == 31  # lgkmcnt untouched

    def test_combined_counts(self):
        inst = one("s_waitcnt vmcnt(1) lgkmcnt(2)")
        simm = inst.fields["simm16"]
        assert simm & 0xF == 1
        assert (simm >> 8) & 0x1F == 2

    def test_raw_immediate(self):
        inst = one("s_waitcnt 0")
        assert inst.fields["simm16"] == 0


class TestBranches:
    def test_backward_branch(self):
        program = assemble("""
        top:
          s_nop
          s_cbranch_scc1 top
          s_endpgm
        """)
        branch = program.instructions[1]
        simm = branch.fields["simm16"]
        if simm >= 0x8000:
            simm -= 0x10000
        assert branch.address + 4 + 4 * simm == program.labels["top"]

    def test_forward_branch(self):
        program = assemble("""
          s_branch done
          s_nop
        done:
          s_endpgm
        """)
        branch = program.instructions[0]
        assert branch.fields["simm16"] == 1  # skip one word

    def test_undefined_label(self):
        with pytest.raises(AssemblyError, match="undefined label"):
            assemble("s_branch nowhere\ns_endpgm")

    def test_duplicate_label(self):
        with pytest.raises(AssemblyError, match="duplicate label"):
            assemble("a:\na:\n  s_endpgm")


class TestVectorEncodings:
    def test_vop2_plain(self):
        inst = one("v_xor_b32 v1, v2, v3")
        assert inst.fmt is Format.VOP2
        assert inst.fields["src0"] == regs.VGPR_BASE + 2
        assert inst.fields["vsrc1"] == 3

    def test_vop2_with_sgpr_src0(self):
        inst = one("v_add_i32 v1, vcc, s9, v3")
        assert inst.fmt is Format.VOP2 and inst.fields["src0"] == 9

    def test_vop2_missing_vcc_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("v_add_i32 v1, s9, v3\ns_endpgm")

    def test_vop2_promotes_when_vsrc1_not_vgpr(self):
        inst = one("v_add_i32 v1, vcc, v2, s3")
        assert inst.fmt is Format.VOP3
        assert inst.fields["sdst"] == regs.VCC_LO

    def test_promotion_rejects_literal(self):
        with pytest.raises(AssemblyError, match="literal"):
            assemble("v_add_i32 v1, vcc, v2, 0x12345\ns_endpgm")

    def test_vop1(self):
        inst = one("v_mov_b32 v7, 3")
        assert inst.fmt is Format.VOP1
        assert inst.fields["vdst"] == 7

    def test_vopc_to_vcc(self):
        inst = one("v_cmp_gt_u32 vcc, v1, v2")
        assert inst.fmt is Format.VOPC

    def test_vopc_to_sgpr_pair_is_vop3b(self):
        inst = one("v_cmp_gt_u32 s[40:41], v1, v2")
        assert inst.fmt is Format.VOP3 and inst.fields["sdst"] == 40

    def test_vop3_native(self):
        inst = one("v_mad_f32 v1, v2, v3, v4")
        assert inst.fmt is Format.VOP3
        assert inst.fields["src2"] == regs.VGPR_BASE + 4

    def test_vop3_rejects_literal(self):
        with pytest.raises(AssemblyError):
            assemble("v_mad_f32 v1, v2, v3, 0x100\ns_endpgm")

    def test_vop3_allows_inline_constant(self):
        inst = one("v_mad_f32 v1, v2, v3, 1.0")
        assert inst.fields["src2"] == 242

    def test_carry_in_chain(self):
        inst = one("v_addc_u32 v1, vcc, v2, v3, vcc")
        assert inst.fmt is Format.VOP2


class TestMemoryEncodings:
    def test_smrd_immediate_offset(self):
        inst = one("s_load_dword s4, s[2:3], 0x10")
        assert inst.fields["imm"] == 1 and inst.fields["offset"] == 0x10
        assert inst.fields["sbase"] == 1  # pair index

    def test_smrd_register_offset(self):
        inst = one("s_load_dword s4, s[2:3], s9")
        assert inst.fields["imm"] == 0 and inst.fields["offset"] == 9

    def test_smrd_buffer_needs_quad(self):
        with pytest.raises(AssemblyError):
            assemble("s_buffer_load_dword s0, s[8:9], 0\ns_endpgm")

    def test_smrd_odd_base_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("s_load_dword s0, s[3:4], 0\ns_endpgm")

    def test_buffer_flags_and_offset(self):
        inst = one("tbuffer_store_format_x v1, v0, s[4:7], 0 offen offset:8")
        assert inst.fields["offen"] == 1
        assert inst.fields["offset"] == 8
        assert inst.fields["srsrc"] == 1  # quad index

    def test_buffer_unaligned_rsrc_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("buffer_load_dword v1, v0, s[5:8], 0\ns_endpgm")

    def test_ds_offset_split(self):
        inst = one("ds_write_b32 v0, v1 offset:0x1234")
        assert inst.fields["offset0"] == 0x34
        assert inst.fields["offset1"] == 0x12

    def test_ds_read2_offsets(self):
        inst = one("ds_read2_b32 v[2:3], v0 offset0:1 offset1:5")
        assert inst.fields["offset0"] == 1 and inst.fields["offset1"] == 5


class TestDirectivesAndMetadata:
    def test_kernel_name_and_args(self):
        program = assemble("""
          .kernel my_kernel
          .arg input buffer
          .arg count scalar
          s_endpgm
        """)
        assert program.name == "my_kernel"
        assert [a.name for a in program.args] == ["input", "count"]
        assert program.arg("count").offset == 4
        assert program.arg("count").kind == "scalar"

    def test_lds_directive(self):
        program = assemble(".lds 512\ns_endpgm")
        assert program.lds_size == 512

    def test_register_usage_inferred(self):
        program = assemble("""
          v_mov_b32 v9, 0
          s_mov_b32 s33, 0
          s_endpgm
        """)
        assert program.vgpr_count == 10
        assert program.sgpr_count == 34

    def test_register_hints_override(self):
        program = assemble(".sgprs 48\n.vgprs 20\ns_endpgm")
        assert program.sgpr_count == 48 and program.vgpr_count == 20

    def test_vgpr_hint_below_usage_rejected(self):
        # The hint sizes the VGPR file: v9 in a 4-register file would
        # index past it only when the program runs.
        with pytest.raises(AssemblyError,
                           match="line 1: .vgprs 4 is below the 10 VGPRs"):
            assemble(".vgprs 4\nv_mov_b32 v9, v1\ns_endpgm")
        assert assemble(".vgprs 10\nv_mov_b32 v9, v1\ns_endpgm"
                        ).vgpr_count == 10

    def test_unknown_directive_rejected(self):
        with pytest.raises(AssemblyError):
            assemble(".frobnicate 3\ns_endpgm")

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(AssemblyError, match="unknown mnemonic"):
            assemble("v_teleport_b32 v0, v1\ns_endpgm")

    def test_error_carries_line_number(self):
        try:
            assemble("s_nop\ns_nop\nv_bogus v0\ns_endpgm")
        except AssemblyError as exc:
            assert "line 3" in str(exc)
        else:
            pytest.fail("expected AssemblyError")


class TestProgramNavigation:
    def test_index_of_address(self):
        program = assemble("""
          s_nop
          s_mov_b32 s0, 0x999
          s_endpgm
        """)
        assert program.index_of_address(0) == 0
        assert program.index_of_address(4) == 1
        assert program.index_of_address(12) == 2  # after the literal

    def test_mid_instruction_address_rejected(self):
        program = assemble("s_mov_b32 s0, 0x999\ns_endpgm")
        with pytest.raises(AssemblyError):
            program.index_of_address(4)  # inside the literal


class TestMaskSelectorForms:
    def test_cndmask_with_sgpr_pair_promotes_to_vop3(self):
        inst = one("v_cndmask_b32 v1, v2, v3, s[40:41]")
        assert inst.fmt is Format.VOP3
        assert inst.fields["src2"] == 40

    def test_cndmask_vop3_roundtrip(self):
        from repro.asm import disassemble
        program = assemble(
            "v_cndmask_b32 v1, v2, v3, s[40:41]\ns_endpgm")
        assert assemble(disassemble(program)).words == program.words

    def test_carry_op_rejects_sgpr_pair_mask(self):
        with pytest.raises(AssemblyError, match="use vcc"):
            assemble("v_addc_u32 v1, vcc, v2, v3, s[40:41]\ns_endpgm")


class TestIndexOfAddressErrors:
    def test_error_names_kernel_and_pc(self):
        program = assemble(".kernel offender\ns_mov_b32 s0, 0x999\ns_endpgm")
        with pytest.raises(AssemblyError) as excinfo:
            program.index_of_address(4)
        message = str(excinfo.value)
        assert "0x4" in message
        assert "offender" in message
        assert "instruction boundary" in message

    def test_past_the_end_pc_rejected(self):
        program = assemble("s_nop\ns_endpgm")
        with pytest.raises(AssemblyError):
            program.index_of_address(program.size_bytes)

    def test_negative_pc_rejected(self):
        program = assemble("s_endpgm")
        with pytest.raises(AssemblyError):
            program.index_of_address(-4)


#: VOP2 ops that read VCC, promoted to VOP3 by a non-VGPR ``src1``.
VCC_READERS = [
    "v_cndmask_b32 v7, v1, s5, vcc",
    "v_addc_u32 v8, vcc, v1, s5, vcc",
    "v_subb_u32 v8, vcc, v1, s5, vcc",
]


class TestPromotedVccOperands:
    """A promoted VCC reader carries VCC in ``src2``; only a VCC writer
    (VOP3b) has an ``sdst``."""

    def test_cndmask_selector_in_src2(self):
        inst = one(VCC_READERS[0])
        assert inst.fmt is Format.VOP3
        assert inst.fields["src2"] == regs.VCC_LO
        # VOP3a: no sdst, and VCC's code does not land in abs/clamp.
        assert "sdst" not in inst.fields
        assert inst.fields["abs"] == 0 and inst.fields["clamp"] == 0

    @pytest.mark.parametrize("line", VCC_READERS[1:])
    def test_carry_in_in_src2_carry_out_in_sdst(self, line):
        inst = one(line)
        assert inst.fmt is Format.VOP3
        assert inst.fields["src2"] == regs.VCC_LO
        assert inst.fields["sdst"] == regs.VCC_LO

    def test_writer_only_carry_leaves_src2_clear(self):
        inst = one("v_add_i32 v8, vcc, v1, s5")
        assert inst.fields["sdst"] == regs.VCC_LO
        assert inst.fields["src2"] == 0

    @pytest.mark.parametrize("line", VCC_READERS)
    def test_promoted_form_matches_vop2_form(self, line):
        # The same op with ``s5`` first copied into a VGPR stays VOP2;
        # both must select / carry by VCC, not by s[0:1].
        import numpy as np

        from repro.cu.pipeline import ComputeUnit
        from repro.cu.wavefront import Wavefront
        from repro.cu.workgroup import Workgroup
        from repro.mem.system import MemorySystem
        from repro.verify.spec import spec_execution

        vop2 = line.replace("s5", "v9")
        prologue = "v_cmp_gt_u32 vcc, v1, v2\n  v_mov_b32 v9, s5\n"
        results = []
        for text in (line, vop2):
            program = assemble(prologue + "  " + text + "\n  s_endpgm")
            for spec in (False, True):
                wg = Workgroup((0, 0, 0), program, (64, 1, 1))
                wf = Wavefront(0, program)
                rng = np.random.default_rng(3)
                wf.vgprs[1] = rng.integers(0, 1 << 32, 64, dtype=np.uint32)
                wf.vgprs[2] = rng.integers(0, 1 << 32, 64, dtype=np.uint32)
                wf.sgprs[0:2] = (0x0F0F0F0F, 0xF0F0F0F0)   # not VCC
                wf.sgprs[5] = 0x89ABCDEF
                wg.add_wavefront(wf)
                cu = ComputeUnit(MemorySystem())
                if spec:
                    with spec_execution():
                        cu.run_workgroup(wg)
                else:
                    cu.run_workgroup(wg)
                results.append((wf.vgprs[7:9].tobytes(), wf.vcc))
        assert program.instructions[2].fmt is Format.VOP2
        assert all(result == results[-1] for result in results)


class TestSourceOperandErrors:
    @pytest.mark.parametrize("line", [
        "s_mov_b32 s0, foo",
        "v_mov_b32 v0, foo",
        "v_add_i32 v0, vcc, foo, v1",
        "v_cmp_eq_u32 vcc, foo, v1",
        "s_cmp_eq_u32 foo, 0",
        "buffer_load_dword v1, v2, s[4:7], foo offen",
    ])
    def test_bare_name_source_is_an_assembly_error(self, line):
        with pytest.raises(AssemblyError, match="'foo' is not a register") \
                as excinfo:
            assemble("s_nop\n" + line + "\ns_endpgm")
        assert excinfo.value.line == 2
