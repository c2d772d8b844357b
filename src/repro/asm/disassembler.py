"""Disassembler: decoded instructions back to assembly text.

Round-tripping (assemble -> disassemble -> assemble) is part of the
toolchain test-suite; the rendering follows the same AMD dialect the
parser accepts, so the output of this module is always reassemblable.
"""

from __future__ import annotations

from ..isa import registers as regs
from ..isa.decode import decode_program
from ..isa.formats import Format

_WAITCNT_FIELDS = {"vmcnt": (0, 0xF), "expcnt": (4, 0x7), "lgkmcnt": (8, 0x1F)}

_BRANCH_OPS = {
    "s_branch", "s_cbranch_scc0", "s_cbranch_scc1", "s_cbranch_vccz",
    "s_cbranch_vccnz", "s_cbranch_execz", "s_cbranch_execnz",
}


def _src(code, literal, width=1):
    """Render a source-operand code (8/9-bit field value)."""
    op = regs.decode_source(code)
    if op.kind == regs.Operand.LITERAL:
        return "0x{:08x}".format(literal or 0)
    if width > 1 and op.kind in (regs.Operand.SGPR, regs.Operand.VGPR,
                                 regs.Operand.SPECIAL):
        op = regs.Operand(op.kind, op.value, width)
    return regs.operand_name(op)


def _sdst(code, width=1):
    op = regs.decode_source(code)
    return regs.operand_name(regs.Operand(op.kind, op.value, width))


def _vdst(index, width=1):
    return regs.operand_name(regs.Operand(regs.Operand.VGPR, index, width))


def disassemble_instruction(inst, label_for=None):
    """Render one :class:`DecodedInstruction` as assembly text.

    ``label_for`` optionally maps byte addresses to label names for
    branch targets; otherwise targets render as ``pc+<delta>``.
    """
    sp, f, lit = inst.spec, inst.fields, inst.literal
    fmt = inst.fmt
    w64 = 2 if sp.op64 else 1
    name = sp.name

    if fmt is Format.SOP2:
        return "{} {}, {}, {}".format(
            name, _sdst(f["sdst"], w64), _src(f["ssrc0"], lit, w64),
            _src(f["ssrc1"], lit, w64))
    if fmt is Format.SOPK:
        simm = f["simm16"]
        if simm >= 0x8000:
            simm -= 0x10000
        return "{} {}, {}".format(name, _sdst(f["sdst"]), simm)
    if fmt is Format.SOP1:
        return "{} {}, {}".format(
            name, _sdst(f["sdst"], w64), _src(f["ssrc0"], lit, w64))
    if fmt is Format.SOPC:
        return "{} {}, {}".format(name, _src(f["ssrc0"], lit), _src(f["ssrc1"], lit))
    if fmt is Format.SOPP:
        simm = f["simm16"]
        if name in _BRANCH_OPS:
            if simm >= 0x8000:
                simm -= 0x10000
            target = inst.address + 4 + 4 * simm
            if label_for and target in label_for:
                return "{} {}".format(name, label_for[target])
            return "{} pc{:+d}".format(name, 4 * simm)
        if name == "s_waitcnt":
            parts = []
            for counter, (shift, mask) in sorted(_WAITCNT_FIELDS.items()):
                value = (simm >> shift) & mask
                if value != mask:
                    parts.append("{}({})".format(counter, value))
            return "{} {}".format(name, " ".join(parts) or "0").rstrip()
        if name in ("s_endpgm", "s_barrier", "s_nop"):
            return name
        return "{} {}".format(name, simm)
    if fmt is Format.SMRD:
        width = {"dword": 1, "dwordx2": 2, "dwordx4": 4}[name.rsplit("_", 1)[-1]]
        base_width = 4 if "buffer" in name else 2
        base = regs.operand_name(
            regs.Operand(regs.Operand.SGPR, f["sbase"] << 1, base_width))
        off = "0x{:x}".format(f["offset"]) if f["imm"] else _src(f["offset"], lit)
        return "{} {}, {}, {}".format(name, _sdst(f["sdst"], width), base, off)
    if fmt is Format.VOP2:
        parts = [_vdst(f["vdst"])]
        if sp.writes_vcc:
            parts.append("vcc")
        parts.append(_src(f["src0"], lit))
        parts.append(_vdst(f["vsrc1"]))
        if sp.reads_vcc:
            parts.append("vcc")
        return "{} {}".format(name, ", ".join(parts))
    if fmt is Format.VOP1:
        return "{} {}, {}".format(name, _vdst(f["vdst"]), _src(f["src0"], lit))
    if fmt is Format.VOPC:
        return "{} vcc, {}, {}".format(name, _src(f["src0"], lit),
                                       _vdst(f["vsrc1"]))
    if fmt is Format.VOP3:
        srcs = [_src(f["src0"], lit), _src(f["src1"], lit)]
        if sp.num_srcs >= 3:
            srcs.append(_src(f["src2"], lit))
        if sp.fmt is Format.VOPC or (sp.fmt is Format.VOP2 and sp.writes_vcc):
            # promoted compare / carry op with explicit sdst
            sd = f.get("sdst", regs.VCC_LO)
            dst_txt = _sdst(sd, 2)
            if sp.fmt is Format.VOPC:
                return "{} {}, {}, {}".format(name, dst_txt, srcs[0], srcs[1])
            parts = [_vdst(f["vdst"]), dst_txt, srcs[0], srcs[1]]
            if sp.reads_vcc:
                # The carry-in travels in src2.
                parts.append(_src(f["src2"], lit, 2))
            return "{} {}".format(name, ", ".join(parts))
        if sp.fmt is Format.VOP2 and sp.reads_vcc:
            # The mask selector travels in src2 (vcc or an SGPR pair).
            selector = _src(f["src2"], lit, 2)
            return "{} {}, {}, {}, {}".format(
                name, _vdst(f["vdst"]), srcs[0], srcs[1], selector)
        return "{} {}, {}".format(name, _vdst(f["vdst"]), ", ".join(srcs))
    if fmt is Format.DS:
        offset = f["offset0"] | (f["offset1"] << 8)
        suffix = " offset:{}".format(offset) if offset else ""
        if name.startswith("ds_read"):
            width = 2 if name == "ds_read2_b32" else 1
            return "{} {}, {}{}".format(name, _vdst(f["vdst"], width),
                                        _vdst(f["addr"]), suffix)
        if name == "ds_write2_b32":
            return "{} {}, {}, {}{}".format(name, _vdst(f["addr"]),
                                            _vdst(f["data0"]), _vdst(f["data1"]),
                                            suffix)
        return "{} {}, {}{}".format(name, _vdst(f["addr"]), _vdst(f["data0"]),
                                    suffix)
    if fmt in (Format.MUBUF, Format.MTBUF):
        srsrc = regs.operand_name(
            regs.Operand(regs.Operand.SGPR, f["srsrc"] << 2, 4))
        soff = _src(f["soffset"], lit)
        parts = "{} {}, {}, {}, {}".format(
            name, _vdst(f["vdata"]), _vdst(f["vaddr"]), srsrc, soff)
        if f["offen"]:
            parts += " offen"
        if f["idxen"]:
            parts += " idxen"
        if f.get("glc"):
            parts += " glc"
        if f["offset"]:
            parts += " offset:{}".format(f["offset"])
        return parts
    return "<{}?>".format(name)


def disassemble(words_or_program):
    """Disassemble a word list or :class:`Program` into source text."""
    if hasattr(words_or_program, "instructions"):
        instructions = words_or_program.instructions
        label_for = {addr: lbl for lbl, addr in words_or_program.labels.items()}
    else:
        instructions = decode_program(list(words_or_program))
        label_for = {}
    lines = []
    for inst in instructions:
        if inst.address in label_for:
            lines.append("{}:".format(label_for[inst.address]))
        lines.append("  " + disassemble_instruction(inst, label_for))
    return "\n".join(lines) + "\n"
