"""Disassembler rendering details."""

import pytest

from repro.asm import assemble, disassemble, disassemble_instruction


def render(line):
    program = assemble("t:\n  {}\n  s_endpgm".format(line))
    labels = {addr: lbl for lbl, addr in program.labels.items()}
    return disassemble_instruction(program.instructions[0], labels)


class TestRendering:
    @pytest.mark.parametrize("line,expected", [
        ("s_add_u32 s0, s1, s2", "s_add_u32 s0, s1, s2"),
        ("s_and_b64 s[10:11], exec, vcc", "s_and_b64 s[10:11], exec, vcc"),
        ("s_movk_i32 s3, -5", "s_movk_i32 s3, -5"),
        ("s_cmp_lt_u32 s1, 7", "s_cmp_lt_u32 s1, 7"),
        ("s_endpgm", "s_endpgm"),
        ("s_barrier", "s_barrier"),
        ("v_mov_b32 v1, 1.0", "v_mov_b32 v1, 1.0"),
        ("v_add_i32 v1, vcc, s2, v3", "v_add_i32 v1, vcc, s2, v3"),
        ("v_addc_u32 v1, vcc, v2, v3, vcc",
         "v_addc_u32 v1, vcc, v2, v3, vcc"),
        ("v_cmp_eq_u32 vcc, v1, v2", "v_cmp_eq_u32 vcc, v1, v2"),
        ("v_mad_f32 v1, v2, v3, v4", "v_mad_f32 v1, v2, v3, v4"),
        ("s_load_dwordx2 s[20:21], s[2:3], 0x8",
         "s_load_dwordx2 s[20:21], s[2:3], 0x8"),
        ("ds_read_b32 v1, v0 offset:8", "ds_read_b32 v1, v0 offset:8"),
        ("ds_write_b32 v0, v1", "ds_write_b32 v0, v1"),
        ("buffer_load_dword v1, v0, s[4:7], 0 offen",
         "buffer_load_dword v1, v0, s[4:7], 0 offen"),
    ])
    def test_exact_text(self, line, expected):
        assert render(line) == expected

    def test_literal_rendering(self):
        assert render("s_mov_b32 s0, 0xdeadbeef") == \
            "s_mov_b32 s0, 0xdeadbeef"

    def test_waitcnt_rendering(self):
        assert "vmcnt(0)" in render("s_waitcnt vmcnt(0)")
        assert "lgkmcnt(2)" in render("s_waitcnt lgkmcnt(2)")

    def test_branch_uses_label_when_known(self):
        program = assemble("""
        top:
          s_nop
          s_branch top
          s_endpgm
        """)
        text = disassemble(program)
        assert "s_branch top" in text
        assert text.splitlines()[0] == "top:"

    def test_branch_without_labels_renders_offset(self):
        program = assemble("top:\n  s_branch top\n  s_endpgm")
        inst = program.instructions[0]
        assert "pc" in disassemble_instruction(inst, None)

    def test_disassemble_raw_words(self):
        program = assemble("v_mul_f32 v1, v2, v3\ns_endpgm")
        text = disassemble(program.words)
        assert "v_mul_f32 v1, v2, v3" in text

    def test_promoted_compare_renders_sdst(self):
        text = render("v_cmp_gt_u32 s[40:41], v1, v2")
        assert text == "v_cmp_gt_u32 s[40:41], v1, v2"

    @pytest.mark.parametrize("line", [
        "v_cndmask_b32 v7, v1, s5, vcc",
        "v_addc_u32 v8, vcc, v1, s5, vcc",
        "v_subb_u32 v8, vcc, v1, 3, vcc",
    ])
    def test_promoted_vcc_reader_renders_src2(self, line):
        # The VOP3 forms print the selector / carry-in they decode to,
        # and reassemble to the same words.
        assert render(line) == line
        program = assemble(line + "\ns_endpgm")
        assert assemble(disassemble(program)).words == program.words

    def test_promoted_carry_renders_a_pair_carry_in(self):
        # A hand-encoded carry-in pair renders as the pair, not as vcc.
        from repro.isa.decode import decode_program
        from repro.isa.formats import pack_vop3

        from repro.isa.tables import ISA
        op3 = ISA.vop3_opcode(ISA.by_name("v_addc_u32"))
        words = pack_vop3(op3, 8, 257, 5, src2=40, sdst=106)
        inst = decode_program(words)[0]
        assert disassemble_instruction(inst) == \
            "v_addc_u32 v8, vcc, v1, s5, s[40:41]"
