"""Two-pass Southern Islands assembler.

Produces real SI machine code (:class:`repro.asm.program.Program`) from
the dialect described in :mod:`repro.asm.parser`.  This stands in for
AMD CodeXL in the SCRATCH toolchain (Figure 3): its output feeds both
the trimming tool (which walks the binary) and the ultra-threaded
dispatcher (which loads it into the compute unit's instruction memory).

Encoding rules implemented here that matter downstream:

* **Literal constants** append a dword and therefore force the 64-bit
  fetch path; the assembler prefers inline constants when a value fits.
* **VOP2 -> VOP3 promotion** happens automatically when an instruction
  needs an explicit scalar destination (``v_cmp_* s[14:15], ...``) or a
  non-VGPR second source.  VOP3 cannot carry literals (an SI rule), so
  impossible combinations are rejected at assembly time rather than
  producing undecodable binaries.
* **Branch targets** are label references resolved on the second pass
  into signed 16-bit word offsets relative to the next instruction.
"""

from __future__ import annotations

from ..errors import AssemblyError, EncodingError
from ..isa import formats, registers as regs
from ..isa.formats import Format
from ..isa.registers import Operand
from ..isa.tables import ISA
from .parser import LabelRef, WaitCount, parse_source
from .program import KernelArg, Program

#: s_waitcnt bit packing (SI reference guide).
_WAITCNT_FIELDS = {"vmcnt": (0, 0xF), "expcnt": (4, 0x7), "lgkmcnt": (8, 0x1F)}
_WAITCNT_NONE = 0xF | (0x7 << 4) | (0x1F << 8)

_BRANCH_OPS = {
    "s_branch", "s_cbranch_scc0", "s_cbranch_scc1", "s_cbranch_vccz",
    "s_cbranch_vccnz", "s_cbranch_execz", "s_cbranch_execnz",
}


def _is_reg(op, kind=None, count=None):
    if not isinstance(op, Operand):
        return False
    if kind is not None and op.kind != kind:
        return False
    if count is not None and op.count != count:
        return False
    return True


def _scalar_dest_code(op, stmt, op64):
    """Encode a scalar destination operand (SGPR or writable special)."""
    want = 2 if op64 else 1
    if _is_reg(op, Operand.SGPR):
        if op.count != want:
            raise AssemblyError(
                "scalar destination needs {} register(s), got {}".format(want, op.count),
                stmt.line,
            )
        return op.value
    if _is_reg(op, Operand.SPECIAL):
        if op64 and op.count != 2:
            raise AssemblyError("64-bit destination needs a register pair", stmt.line)
        return op.value
    raise AssemblyError("operand is not a valid scalar destination", stmt.line)


def _expect_vcc(op, stmt, what):
    if not (_is_reg(op, Operand.SPECIAL) and op.value == regs.VCC_LO and op.count == 2):
        raise AssemblyError("expected vcc as the {} operand".format(what), stmt.line)


class _Literals:
    """Tracks the single literal constant an instruction may carry."""

    def __init__(self, stmt):
        self.stmt = stmt
        self.value = None

    def encode(self, op, width=9, allow_literal=True):
        if not isinstance(op, Operand):
            raise AssemblyError(
                "{!r} is not a register or constant".format(
                    getattr(op, "name", op)), self.stmt.line)
        code, literal = regs.encode_source(op, width)
        if literal is not None:
            if not allow_literal:
                raise AssemblyError(
                    "literal constants are not allowed in this encoding "
                    "(hint: materialise the value in a register first)",
                    self.stmt.line,
                )
            if self.value is not None and self.value != literal:
                raise AssemblyError(
                    "more than one literal constant in a single instruction",
                    self.stmt.line,
                )
            self.value = literal
        return code

    def words(self):
        return [] if self.value is None else [self.value]


class Assembler:
    """Assembles source text into :class:`Program` objects."""

    # -- public API --------------------------------------------------------

    def assemble(self, source, name=None):
        """Assemble ``source`` and return a :class:`Program`.

        Raises :class:`AssemblyError` with a line number on any problem.
        """
        items = parse_source(source)
        kernel_name = name or "kernel"
        args, lds_size = [], 0
        sgpr_hint = vgpr_hint = vgpr_hint_line = None
        statements = []

        for item in items:
            for _ in item.label_defs:
                pass  # handled below through the address map
            if hasattr(item, "mnemonic"):
                statements.append(item)
            elif item.name:  # a directive
                if item.name == "kernel":
                    kernel_name = item.args[0] if item.args else kernel_name
                elif item.name == "arg":
                    if len(item.args) != 2:
                        raise AssemblyError(".arg needs NAME KIND", item.line)
                    offset = 4 * len(args)
                    args.append(KernelArg(item.args[0], item.args[1], offset))
                elif item.name == "lds":
                    lds_size = int(item.args[0], 0)
                elif item.name == "sgprs":
                    sgpr_hint = int(item.args[0], 0)
                elif item.name == "vgprs":
                    vgpr_hint = int(item.args[0], 0)
                    vgpr_hint_line = item.line
                else:
                    raise AssemblyError(
                        "unknown directive .{}".format(item.name), item.line
                    )

        # Pass 1: encode everything, label branches patched later.
        words, labels, patches = [], {}, []
        for item in items:
            if item.label_defs:
                for label in item.label_defs:
                    if label in labels:
                        raise AssemblyError(
                            "duplicate label {!r}".format(label), item.line
                        )
                    labels[label] = 4 * len(words)
            if not hasattr(item, "mnemonic"):
                continue
            encoded, patch_label = self._encode_statement(item)
            if patch_label is not None:
                patches.append((len(words), patch_label, item.line))
            words.extend(encoded)

        # Pass 2: resolve branch targets.
        for word_index, label, line in patches:
            if label not in labels:
                raise AssemblyError("undefined label {!r}".format(label), line)
            origin = 4 * (word_index + 1)  # PC after the branch instruction
            delta = labels[label] - origin
            if delta % 4:
                raise AssemblyError("branch target is not word aligned", line)
            simm = delta // 4
            if not -32768 <= simm <= 32767:
                raise AssemblyError("branch displacement out of range", line)
            words[word_index] = (words[word_index] & 0xFFFF0000) | (simm & 0xFFFF)

        sgprs, vgprs = self._register_usage(statements)
        if vgpr_hint is not None and vgpr_hint < vgprs:
            # The VGPR file is sized from the hint, so a register past
            # it would fail only when the program runs.
            raise AssemblyError(
                ".vgprs {} is below the {} VGPRs the program uses".format(
                    vgpr_hint, vgprs), vgpr_hint_line)
        return Program(
            name=kernel_name,
            words=words,
            labels=labels,
            args=args,
            sgpr_count=sgpr_hint if sgpr_hint is not None else sgprs,
            vgpr_count=vgpr_hint if vgpr_hint is not None else vgprs,
            lds_size=lds_size,
            source=source,
        )

    def assemble_file(self, path):
        with open(path) as handle:
            return self.assemble(handle.read())

    # -- helpers -----------------------------------------------------------

    def _register_usage(self, statements):
        """Infer SGPR/VGPR counts from the highest register touched."""
        max_s, max_v = 15, 3  # ABI floor: dispatcher initialises s0..s15, v0..v2
        for stmt in statements:
            for op in stmt.operands:
                if _is_reg(op, Operand.SGPR):
                    max_s = max(max_s, op.value + op.count - 1)
                elif _is_reg(op, Operand.VGPR):
                    max_v = max(max_v, op.value + op.count - 1)
        return max_s + 1, max_v + 1

    def _encode_statement(self, stmt):
        """Encode one statement; returns ``(words, branch_label_or_None)``."""
        try:
            sp = ISA.by_name(stmt.mnemonic)
        except Exception:
            raise AssemblyError(
                "unknown mnemonic {!r}".format(stmt.mnemonic), stmt.line
            ) from None
        fmt = sp.fmt
        try:
            if fmt is Format.SOP2:
                return self._encode_sop2(sp, stmt), None
            if fmt is Format.SOPK:
                return self._encode_sopk(sp, stmt), None
            if fmt is Format.SOP1:
                return self._encode_sop1(sp, stmt), None
            if fmt is Format.SOPC:
                return self._encode_sopc(sp, stmt), None
            if fmt is Format.SOPP:
                return self._encode_sopp(sp, stmt)
            if fmt is Format.SMRD:
                return self._encode_smrd(sp, stmt), None
            if fmt is Format.VOP2:
                return self._encode_vop2(sp, stmt), None
            if fmt is Format.VOP1:
                return self._encode_vop1(sp, stmt), None
            if fmt is Format.VOPC:
                return self._encode_vopc(sp, stmt), None
            if fmt is Format.VOP3:
                return self._encode_vop3_native(sp, stmt), None
            if fmt is Format.DS:
                return self._encode_ds(sp, stmt), None
            if fmt is Format.MUBUF:
                return self._encode_buffer(sp, stmt, typed=False), None
            if fmt is Format.MTBUF:
                return self._encode_buffer(sp, stmt, typed=True), None
        except EncodingError as exc:
            raise AssemblyError(str(exc), stmt.line) from None
        raise AssemblyError("unhandled format {}".format(fmt), stmt.line)

    # -- scalar formats ------------------------------------------------

    def _encode_sop2(self, sp, stmt):
        if len(stmt.operands) != 3:
            raise AssemblyError(
                "{} takes dst, src0, src1".format(sp.name), stmt.line
            )
        dst, src0, src1 = stmt.operands
        lits = _Literals(stmt)
        sdst = _scalar_dest_code(dst, stmt, sp.op64)
        # Shift amounts of 64-bit logicals are still 32-bit; all our
        # op64 SOP2s are logicals whose sources are pairs.
        c0 = lits.encode(src0, width=8)
        c1 = lits.encode(src1, width=8)
        return formats.pack_sop2(sp.opcode, sdst, c0, c1) + lits.words()

    def _encode_sopk(self, sp, stmt):
        if len(stmt.operands) != 2:
            raise AssemblyError("{} takes dst, imm16".format(sp.name), stmt.line)
        dst, immop = stmt.operands
        sdst = _scalar_dest_code(dst, stmt, False)
        value = self._imm_value(immop, stmt)
        if not -32768 <= value <= 65535:
            raise AssemblyError("immediate out of 16-bit range", stmt.line)
        return formats.pack_sopk(sp.opcode, sdst, value)

    def _encode_sop1(self, sp, stmt):
        if len(stmt.operands) != 2:
            raise AssemblyError("{} takes dst, src".format(sp.name), stmt.line)
        dst, src = stmt.operands
        lits = _Literals(stmt)
        sdst = _scalar_dest_code(dst, stmt, sp.op64)
        c0 = lits.encode(src, width=8)
        return formats.pack_sop1(sp.opcode, sdst, c0) + lits.words()

    def _encode_sopc(self, sp, stmt):
        if len(stmt.operands) != 2:
            raise AssemblyError("{} takes src0, src1".format(sp.name), stmt.line)
        lits = _Literals(stmt)
        c0 = lits.encode(stmt.operands[0], width=8)
        c1 = lits.encode(stmt.operands[1], width=8)
        return formats.pack_sopc(sp.opcode, c0, c1) + lits.words()

    def _encode_sopp(self, sp, stmt):
        if sp.name in _BRANCH_OPS:
            if len(stmt.operands) != 1 or not isinstance(stmt.operands[0], LabelRef):
                raise AssemblyError(
                    "{} takes a label operand".format(sp.name), stmt.line
                )
            return formats.pack_sopp(sp.opcode, 0), stmt.operands[0].name
        if sp.name == "s_waitcnt":
            counts = [op for op in stmt.operands if isinstance(op, WaitCount)]
            if counts:
                simm = _WAITCNT_NONE
                for wc in counts:
                    shift, mask = _WAITCNT_FIELDS[wc.counter]
                    simm = (simm & ~(mask << shift)) | ((wc.value & mask) << shift)
            elif stmt.operands:
                simm = self._imm_value(stmt.operands[0], stmt)
            else:
                simm = 0
            return formats.pack_sopp(sp.opcode, simm), None
        simm = 0
        if stmt.operands:
            simm = self._imm_value(stmt.operands[0], stmt)
        return formats.pack_sopp(sp.opcode, simm), None

    def _encode_smrd(self, sp, stmt):
        if len(stmt.operands) != 3:
            raise AssemblyError(
                "{} takes dst, base, offset".format(sp.name), stmt.line
            )
        dst, base, offset = stmt.operands
        if not _is_reg(dst, Operand.SGPR):
            raise AssemblyError("SMRD destination must be SGPRs", stmt.line)
        want_base = 4 if "buffer" in sp.name else 2
        if not _is_reg(base, Operand.SGPR, count=want_base):
            raise AssemblyError(
                "{} needs an s[{}-wide] base".format(sp.name, want_base), stmt.line
            )
        if base.value % 2:
            raise AssemblyError("SMRD base must be even-aligned", stmt.line)
        if _is_reg(offset, Operand.SGPR):
            return formats.pack_smrd(sp.opcode, dst.value, base.value >> 1,
                                     offset.value, imm=0)
        value = self._imm_value(offset, stmt)
        if not 0 <= value <= 0xFF:
            raise AssemblyError("SMRD immediate offset out of range", stmt.line)
        return formats.pack_smrd(sp.opcode, dst.value, base.value >> 1, value, imm=1)

    # -- vector formats --------------------------------------------------

    def _encode_vop2(self, sp, stmt):
        ops = list(stmt.operands)
        if not ops or not _is_reg(ops[0], Operand.VGPR):
            raise AssemblyError("{} needs a VGPR destination".format(sp.name),
                                stmt.line)
        vdst = ops.pop(0)
        if sp.writes_vcc:
            if not ops:
                raise AssemblyError("missing vcc destination", stmt.line)
            _expect_vcc(ops.pop(0), stmt, "carry-out")
        if len(ops) < 2:
            raise AssemblyError("{} needs two sources".format(sp.name), stmt.line)
        src0, src1 = ops.pop(0), ops.pop(0)
        if sp.reads_vcc:
            if not ops:
                raise AssemblyError("missing vcc source", stmt.line)
            selector = ops.pop(0)
            if _is_reg(selector, Operand.SGPR, count=2):
                # An explicit SGPR-pair mask (e.g. the result of a
                # v_cmp to s[N:N+1]) forces the VOP3 encoding, where
                # the selector travels in src2.
                lits = _Literals(stmt)
                c0 = lits.encode(src0, width=9, allow_literal=False)
                c1 = lits.encode(src1, width=9, allow_literal=False)
                op3 = ISA.vop3_opcode(sp)
                if sp.writes_vcc:
                    raise AssemblyError(
                        "carry ops with explicit mask pairs are not "
                        "supported; use vcc", stmt.line)
                return formats.pack_vop3(op3, vdst.value, c0, c1,
                                         src2=selector.value)
            _expect_vcc(selector, stmt, "carry-in")
        if ops:
            raise AssemblyError("too many operands for {}".format(sp.name), stmt.line)

        if _is_reg(src1, Operand.VGPR):
            lits = _Literals(stmt)
            c0 = lits.encode(src0, width=9)
            return formats.pack_vop2(sp.opcode, vdst.value, c0,
                                     src1.value) + lits.words()
        # Promote to VOP3a/b: no literals allowed there.
        lits = _Literals(stmt)
        c0 = lits.encode(src0, width=9, allow_literal=False)
        c1 = lits.encode(src1, width=9, allow_literal=False)
        op3 = ISA.vop3_opcode(sp)
        # VOP3b carries write VCC through ``sdst``; a VCC selector or
        # carry-in travels in ``src2``, like an explicit SGPR pair.
        sdst = regs.VCC_LO if sp.writes_vcc else None
        src2 = regs.VCC_LO if sp.reads_vcc else 0
        return formats.pack_vop3(op3, vdst.value, c0, c1, src2=src2,
                                 sdst=sdst)

    def _encode_vop1(self, sp, stmt):
        if len(stmt.operands) != 2 or not _is_reg(stmt.operands[0], Operand.VGPR):
            raise AssemblyError("{} takes vdst, src".format(sp.name), stmt.line)
        lits = _Literals(stmt)
        c0 = lits.encode(stmt.operands[1], width=9)
        return formats.pack_vop1(sp.opcode, stmt.operands[0].value, c0) + lits.words()

    def _encode_vopc(self, sp, stmt):
        if len(stmt.operands) != 3:
            raise AssemblyError("{} takes dst, src0, src1".format(sp.name), stmt.line)
        dst, src0, src1 = stmt.operands
        dst_is_vcc = (_is_reg(dst, Operand.SPECIAL) and dst.value == regs.VCC_LO)
        if dst_is_vcc and _is_reg(src1, Operand.VGPR):
            lits = _Literals(stmt)
            c0 = lits.encode(src0, width=9)
            return formats.pack_vopc(sp.opcode, c0, src1.value) + lits.words()
        # Explicit SGPR-pair destination (or non-VGPR src1): VOP3b.
        if dst_is_vcc:
            sdst = regs.VCC_LO
        elif _is_reg(dst, Operand.SGPR, count=2):
            sdst = dst.value
        else:
            raise AssemblyError(
                "compare destination must be vcc or an SGPR pair", stmt.line
            )
        lits = _Literals(stmt)
        c0 = lits.encode(src0, width=9, allow_literal=False)
        c1 = lits.encode(src1, width=9, allow_literal=False)
        op3 = ISA.vop3_opcode(sp)
        return formats.pack_vop3(op3, 0, c0, c1, sdst=sdst)

    def _encode_vop3_native(self, sp, stmt):
        want = 1 + sp.num_srcs
        if len(stmt.operands) != want or not _is_reg(stmt.operands[0], Operand.VGPR):
            raise AssemblyError(
                "{} takes vdst + {} sources".format(sp.name, sp.num_srcs), stmt.line
            )
        lits = _Literals(stmt)
        codes = [lits.encode(op, width=9, allow_literal=False)
                 for op in stmt.operands[1:]]
        while len(codes) < 3:
            codes.append(0)
        return formats.pack_vop3(sp.opcode, stmt.operands[0].value, *codes)

    # -- memory formats ---------------------------------------------------

    def _split_ds_offset(self, stmt):
        if "offset" in stmt.modifiers:
            off = stmt.modifiers["offset"]
            if not 0 <= off <= 0xFFFF:
                raise AssemblyError("ds offset out of range", stmt.line)
            return off & 0xFF, (off >> 8) & 0xFF
        return (stmt.modifiers.get("offset0", 0), stmt.modifiers.get("offset1", 0))

    def _encode_ds(self, sp, stmt):
        off0, off1 = self._split_ds_offset(stmt)
        ops = stmt.operands
        if sp.name in ("ds_read_b32", "ds_read2_b32"):
            want_dst = 2 if sp.name.endswith("2_b32") else 1
            if len(ops) != 2 or not _is_reg(ops[0], Operand.VGPR, count=want_dst):
                raise AssemblyError("{} takes vdst, vaddr".format(sp.name), stmt.line)
            if not _is_reg(ops[1], Operand.VGPR, count=1):
                raise AssemblyError("ds address must be a VGPR", stmt.line)
            return formats.pack_ds(sp.opcode, ops[0].value, ops[1].value,
                                   offset0=off0, offset1=off1)
        if sp.name in ("ds_write_b32", "ds_add_u32"):
            if len(ops) != 2 or not _is_reg(ops[0], Operand.VGPR, count=1) \
                    or not _is_reg(ops[1], Operand.VGPR, count=1):
                raise AssemblyError("{} takes vaddr, vdata".format(sp.name), stmt.line)
            return formats.pack_ds(sp.opcode, 0, ops[0].value, data0=ops[1].value,
                                   offset0=off0, offset1=off1)
        if sp.name == "ds_write2_b32":
            if len(ops) != 3 or not all(_is_reg(o, Operand.VGPR, count=1) for o in ops):
                raise AssemblyError("ds_write2_b32 takes vaddr, d0, d1", stmt.line)
            return formats.pack_ds(sp.opcode, 0, ops[0].value, data0=ops[1].value,
                                   data1=ops[2].value, offset0=off0, offset1=off1)
        raise AssemblyError("unhandled DS op {}".format(sp.name), stmt.line)

    def _encode_buffer(self, sp, stmt, typed):
        if len(stmt.operands) != 4:
            raise AssemblyError(
                "{} takes vdata, vaddr, srsrc, soffset".format(sp.name), stmt.line
            )
        vdata, vaddr, srsrc, soffset = stmt.operands
        if not _is_reg(vdata, Operand.VGPR):
            raise AssemblyError("buffer data operand must be a VGPR", stmt.line)
        if not _is_reg(vaddr, Operand.VGPR, count=1):
            raise AssemblyError("buffer address operand must be one VGPR", stmt.line)
        if not _is_reg(srsrc, Operand.SGPR, count=4) or srsrc.value % 4:
            raise AssemblyError(
                "buffer resource must be an aligned s[N:N+3] quad", stmt.line
            )
        lits = _Literals(stmt)
        soff = lits.encode(soffset, width=8, allow_literal=False)
        offset = stmt.modifiers.get("offset", 0)
        if not 0 <= offset <= 0xFFF:
            raise AssemblyError("buffer offset out of range", stmt.line)
        kwargs = dict(
            op=sp.opcode, vdata=vdata.value, vaddr=vaddr.value,
            srsrc=srsrc.value >> 2, soffset=soff, offset=offset,
            offen=1 if "offen" in stmt.flags else 0,
            idxen=1 if "idxen" in stmt.flags else 0,
        )
        if typed:
            return formats.pack_mtbuf(**kwargs)
        kwargs["glc"] = 1 if "glc" in stmt.flags else 0
        return formats.pack_mubuf(**kwargs)

    # -- small utilities ----------------------------------------------------

    def _imm_value(self, op, stmt):
        if isinstance(op, Operand) and op.kind == Operand.INLINE:
            return regs.inline_value(op.value)
        if isinstance(op, Operand) and op.kind == Operand.LITERAL:
            value = op.value
            return value - 0x100000000 if value >= 0x80000000 else value
        raise AssemblyError("expected an immediate operand", stmt.line)


def assemble(source, name=None):
    """Module-level convenience: assemble ``source`` with the full ISA."""
    return Assembler().assemble(source, name=name)
