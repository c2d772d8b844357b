"""One emitter pass per program: every compiled executor in one module.

The issue loop (:meth:`ComputeUnit._run_compiled`) never
re-decodes an instruction.  Every ALU instruction of a prepared program
is emitted as a few lines of Python source with its operands resolved
at compile time -- SGPRs as ``s[i]``, VGPR rows as ``v[i]`` (an index
into the wavefront's list of row views, ``wf.rows``), inline
constants and literals as prebuilt values, scalar ALU as pure Python
ints, VALU through the same :mod:`repro.cu.vector` cores as the
reference (or an inline expression where that is cheaper and exact).
A result is stored into the destination row's lanes under full EXEC
and by a masked ``np.copyto`` otherwise; a core that is one uint32
ufunc (:data:`repro.cu.vector.UFUNC_IMPL`, a folded logical shift, a
carry whose VCC write is dead) computes straight into the row
instead, with ``where=`` EXEC's lanes.  EXEC is read as the
wavefront's plain state: its lane row ``wf.lm`` (``None`` when full)
and its int ``wf._exec_mask``.  Every memory instruction
is emitted by the LSU's own emitter (:func:`repro.cu.lsu.emit_memory`).
One program's executors go through one ``compile()``/``exec()`` into
one namespace: ``_plan<i>(wf)`` per ALU instruction, bound to
``InstPlan.exec_fn``, and ``_plan<i>(wf, gm)`` per memory instruction,
bound to ``InstPlan.mem_fn`` (``i`` is the plan index).

An ALU instruction whose operand shapes the emitter cannot prove it
reproduces exactly -- including every case in which the reference
would raise -- is emitted as a call to the generic dispatcher
``operations.execute(wf, inst)``; such plans are not *specialized*.
"""

from __future__ import annotations

import numpy as np

from ..isa import registers as regs
from ..isa.formats import Format
from . import lsu, operations, vector
from .facts import program_facts
from .timing import KIND_ALU, KIND_MEMORY
from .wavefront import MASK32, MASK64, pack_lanes, unpack_lanes


# ---------------------------------------------------------------------------
# Runtime names shared by every generated function.
# ---------------------------------------------------------------------------

_RUNTIME = {
    "_full": np.full, "_u32d": np.uint32, "_cp": np.copyto,
    "_pack": pack_lanes, "_unpack": unpack_lanes,
    "_s32": operations._s32, "_add32": operations._add_i32,
    "_where": np.where, "_g": operations.execute,
    "_fv": vector._fv, "_sv": vector._sv, "_from_f": vector._from_f,
    "_awc": vector.add_with_carry, "_swb": vector.sub_with_borrow,
}

_PRELUDE = (
    ("s", "s = wf.sgprs"),
    ("v", "v = wf.rows"),
    # None means "all lanes" to the row writes and the lane-mask
    # stores; otherwise EXEC's lane bools, kept by the EXEC setter.
    ("lm", "lm = wf.lm"),
)


# ---------------------------------------------------------------------------
# Operand emission.  Each helper returns an expression (or store lines)
# for the shapes whose reference reads/writes provably never raise, and
# None otherwise.
# ---------------------------------------------------------------------------

_M32 = str(MASK32)

#: Special sources the reference reader resolves from live state.
_SPECIAL_SCALARS = frozenset((
    regs.VCC_LO, regs.VCC_HI, regs.M0, regs.EXEC_LO, regs.EXEC_HI,
    regs.VCCZ, regs.EXECZ, regs.SCC,
))

#: Special destinations :meth:`Wavefront.write_scalar` accepts.
_SPECIAL_DSTS = frozenset((
    regs.VCC_LO, regs.VCC_HI, regs.M0, regs.EXEC_LO, regs.EXEC_HI,
))

#: Branch mnemonic -> taken condition (None = unconditional).
_BRANCH_CONDITIONS = {
    "s_branch": None,
    "s_cbranch_scc0": "wf.scc == 0",
    "s_cbranch_scc1": "wf.scc == 1",
    "s_cbranch_vccz": "wf.vcc == 0",
    "s_cbranch_vccnz": "wf.vcc != 0",
    "s_cbranch_execz": "wf._exec_mask == 0",
    "s_cbranch_execnz": "wf._exec_mask != 0",
}


def _simm16(inst):
    simm = inst.fields["simm16"]
    return simm - 0x10000 if simm >= 0x8000 else simm


def _scalar_src(code, literal, uses):
    """Expression for ``wf.read_scalar(code, literal)``."""
    if regs.SGPR_FIRST <= code <= regs.SGPR_LAST:
        uses.add("s")
        return "int(s[%d])" % code
    if code == regs.LITERAL:
        return None if literal is None else str(literal & MASK32)
    if code in _SPECIAL_SCALARS:
        return "wf.read_scalar(%d)" % code
    constant = regs.INLINE_CONSTANTS.get(code)
    return None if constant is None else str(constant)


def _scalar_dst(code, uses):
    """Lines for ``wf.write_scalar(code, _r)``."""
    if regs.SGPR_FIRST <= code <= regs.SGPR_LAST:
        uses.add("s")
        return ["s[%d] = _r & %s" % (code, _M32)]
    if code in _SPECIAL_DSTS:
        return ["wf.write_scalar(%d, _r)" % code]
    return None


def _scalar64_src(code, uses):
    """Expression for ``wf.read_scalar64(code)``."""
    if code == regs.VCC_LO:
        return "wf.vcc"
    if code == regs.EXEC_LO:
        return "wf._exec_mask"
    if regs.SGPR_FIRST <= code <= regs.SGPR_LAST - 1:
        uses.add("s")
        return "(int(s[%d]) | (int(s[%d]) << 32))" % (code, code + 1)
    if code == regs.CONST_ZERO:
        return "0"
    if regs.INT_POS_FIRST <= code <= regs.INT_NEG_LAST:
        return str(regs.inline_value(code) & MASK64)
    return None


def _scalar64_dst(sdst, uses):
    """Lines for ``wf.write_scalar64(sdst, _m)`` with ``_m`` in 64 bits.

    ``sdst is None`` (VOP2/VOPC encodings) targets VCC.
    """
    if sdst is None or sdst == regs.VCC_LO:
        return ["wf.vcc = _m"]
    if sdst == regs.EXEC_LO:
        return ["wf.exec_mask = _m"]
    if regs.SGPR_FIRST <= sdst <= regs.SGPR_LAST - 1:
        uses.add("s")
        return ["s[%d] = _m & %s" % (sdst, _M32),
                "s[%d] = _m >> 32" % (sdst + 1)]
    return None


def _vector_src(code, literal, ns, tag, uses, scalar=False):
    """Expression for ``wf.read_vector(code, literal)``; constants
    become prebuilt read-only arrays in the namespace.  With ``scalar``
    an SGPR is the ``np.uint32`` itself, which the core broadcasts
    against the instruction's VGPR row."""
    if code >= regs.VGPR_BASE:
        uses.add("v")
        return "v[%d]" % (code - regs.VGPR_BASE)
    if regs.SGPR_FIRST <= code <= regs.SGPR_LAST:
        uses.add("s")
        return ("s[%d]" if scalar else "_full(64, s[%d], _u32d)") % code
    if code in _SPECIAL_SCALARS:
        return "wf.read_vector(%d)" % code
    constant = _constant(code, literal)
    if constant is None:
        return None
    arr = np.full(64, constant, dtype=np.uint32)
    arr.setflags(write=False)
    ns[tag] = arr
    return tag


def _constant(code, literal):
    """The 32-bit value of an inline-constant or literal source, or
    None for any other operand code."""
    if code == regs.LITERAL:
        return None if literal is None else literal & MASK32
    return regs.INLINE_CONSTANTS.get(code)


def _write_row(vdst, value):
    """Lines storing ``value`` into VGPR row ``vdst`` under EXEC:
    into every lane of the row when every lane is active, a masked
    copy otherwise.  ``value`` is evaluated in full before the row is
    written, so it may read the destination row itself."""
    return ["if lm is None: v[%d][...] = %s" % (vdst, value),
            "else: _cp(v[%d], %s, where=lm)" % (vdst, value)]


def _in_place(ns, k, vdst, ufunc, x, y):
    """Lines computing the uint32 ``ufunc`` (bound as ``_i<k>``) of
    ``x`` and ``y`` straight into VGPR row ``vdst``: every lane under
    full EXEC, only EXEC's lanes otherwise, so the others keep their
    value (the masked store).  Elementwise, so ``vdst`` may alias a
    source."""
    ns["_i%d" % k] = ufunc
    call = "_i%d(%s, %s, out=v[%d]" % (k, x, y, vdst)
    return ["if lm is None: %s)" % call, "else: %s, where=lm)" % call]


def _mask_dst(sdst, bools, uses):
    """Lines storing the per-lane ``bools`` as a lane mask into
    ``sdst`` (None in VOP2/VOPC encodings: VCC), inactive lanes false
    -- ``vector.mask_from_bools`` under EXEC.  VCC keeps the bool row
    (:meth:`Wavefront.set_vcc_lanes`), packed only if something reads
    the int; an SGPR pair or EXEC takes the packed mask."""
    lanes = "(%s) if lm is None else (%s) & lm" % (bools, bools)
    if sdst is None or sdst == regs.VCC_LO:
        return ["wf.set_vcc_lanes(%s)" % lanes]
    dst = _scalar64_dst(sdst, uses)
    return None if dst is None else ["_m = _pack(%s)" % lanes] + dst


def _lanes_src(code, uses):
    """Expression for the per-lane bools of a 64-bit selector or
    carry-in operand (None in VOP2 encodings: VCC)."""
    if code is None or code == regs.VCC_LO:
        return "wf.vcc_lanes()"
    mask = _scalar64_src(code, uses)
    return None if mask is None else "_unpack(%s)" % mask


# ---------------------------------------------------------------------------
# Per-format emitters.  Each returns the instruction's source lines
# (possibly empty) or None when the shape is not provably exact.
# ---------------------------------------------------------------------------

def _emit_sop2(inst, k, ns, uses):
    sp, f = inst.spec, inst.fields
    if sp.op64:
        impl = operations.SOP2_IMPL64.get(sp.name)
        a = _scalar64_src(f["ssrc0"], uses)
        b = _scalar64_src(f["ssrc1"], uses)
        dst = _scalar64_dst(f["sdst"], uses)
        if impl is None or a is None or b is None or dst is None:
            return None
        ns["_i%d" % k] = impl
        lines = ["_m, _c = _i%d(%s, %s)" % (k, a, b)] + dst
        if sp.writes_scc:
            lines.append("wf.scc = _c")
        return lines
    impl = operations.SOP2_IMPL.get(sp.name)
    a = _scalar_src(f["ssrc0"], inst.literal, uses)
    b = _scalar_src(f["ssrc1"], inst.literal, uses)
    dst = _scalar_dst(f["sdst"], uses)
    if impl is None or a is None or b is None or dst is None:
        return None
    ns["_i%d" % k] = impl
    lines = ["_r, _c = _i%d(%s, %s, wf.scc)" % (k, a, b)] + dst
    if sp.writes_scc:
        lines.append("if _c is not None: wf.scc = _c")
    return lines


def _emit_sopk(inst, k, ns, uses):
    name, sdst = inst.spec.name, inst.fields["sdst"]
    simm = _simm16(inst)
    dst = _scalar_dst(sdst, uses)
    if dst is None:
        return None
    if name == "s_movk_i32":
        return ["_r = %d" % (simm & MASK32)] + dst
    cur = _scalar_src(sdst, None, uses)
    if cur is None:
        return None
    if name == "s_addk_i32":
        return (["_r, _c = _add32(%s, %d)" % (cur, simm & MASK32)] + dst
                + ["wf.scc = _c"])
    if name == "s_mulk_i32":
        return ["_r = (_s32(%s) * %d) & %s" % (cur, simm, _M32)] + dst
    return None


def _emit_sop1(inst, k, ns, uses):
    sp, f = inst.spec, inst.fields
    name = sp.name
    if sp.op64:
        a = _scalar64_src(f["ssrc0"], uses)
        dst = _scalar64_dst(f["sdst"], uses)
        if a is None or dst is None:
            return None
        if name == "s_mov_b64":
            return ["_m = %s" % a] + dst
        if name == "s_not_b64":
            return (["_m = (~%s) & %d" % (a, MASK64)] + dst
                    + ["wf.scc = int(_m != 0)"])
        if name in ("s_and_saveexec_b64", "s_or_saveexec_b64"):
            op = "&" if name.startswith("s_and") else "|"
            return (["_v = %s" % a, "_m = wf._exec_mask"] + dst
                    + ["wf.exec_mask = _v %s _m" % op,
                       "wf.scc = int(wf._exec_mask != 0)"])
        return None
    impl = operations.SOP1_IMPL.get(name)
    a = _scalar_src(f["ssrc0"], inst.literal, uses)
    dst = _scalar_dst(f["sdst"], uses)
    if impl is None or a is None or dst is None:
        return None
    ns["_i%d" % k] = impl
    lines = ["_r, _c = _i%d(%s)" % (k, a)] + dst
    if sp.writes_scc:
        lines.append("if _c is not None: wf.scc = _c")
    return lines


def _emit_sopc(inst, k, ns, uses):
    f = inst.fields
    parts = inst.spec.name.split("_")
    cmp_fn = operations._SCMP.get(parts[2]) if len(parts) == 4 else None
    a = _scalar_src(f["ssrc0"], inst.literal, uses)
    b = _scalar_src(f["ssrc1"], inst.literal, uses)
    if cmp_fn is None or a is None or b is None:
        return None
    ns["_i%d" % k] = cmp_fn
    if parts[3] == "i32":
        a, b = "_s32(%s)" % a, "_s32(%s)" % b
    return ["wf.scc = int(_i%d(%s, %s))" % (k, a, b)]


def _emit_sopp(inst, k, ns, uses):
    name = inst.spec.name
    if name == "s_nop":
        return []
    if name not in _BRANCH_CONDITIONS:
        return None
    target = inst.address + 4 + 4 * _simm16(inst)
    cond = _BRANCH_CONDITIONS[name]
    if cond is None:
        return ["wf.pc = %d" % target]
    return ["if %s: wf.pc = %d" % (cond, target)]


#: Shifts whose amount operand may be folded at emit time: name ->
#: (amount source, ufunc).  The other source is the shifted one; the
#: hardware reads the low five bits of the amount.  A logical shift is
#: its uint32 ufunc, computed in place; an arithmetic one (``None``)
#: shifts the signed view and stores the result.
_SHIFTS = {
    "v_lshlrev_b32": ("src0", np.left_shift),
    "v_lshrrev_b32": ("src0", np.right_shift),
    "v_ashrrev_i32": ("src0", None),
    "v_lshl_b32": ("src1", np.left_shift),
    "v_lshr_b32": ("src1", np.right_shift),
    "v_ashr_i32": ("src1", None),
}


def _emit_vector(inst, k, ns, uses, vcc_dead=False):
    """Every vectorized class in array form -- plain VBIN/VUN/VTRI
    cores, compares, cndmask, mac and the carry chains
    (:data:`repro.cu.vector.CARRY_OPS`) -- computed in full, then
    stored by :func:`_write_row`; lane masks by :func:`_mask_dst`.
    With ``vcc_dead`` (a :data:`repro.cu.facts.ProgramFacts.dead_vcc`
    plan) a compare emits nothing and a carry computes its row alone,
    in place (:func:`_in_place`), like every one-ufunc core."""
    sp, f, fmt = inst.spec, inst.fields, inst.fmt
    name = sp.name
    # The one SGPR source of a core that also takes a 64-lane VGPR row
    # stays a scalar (NumPy broadcasts it), saving an np.full per issue;
    # so does v_mov_b32's SGPR source, which the row store broadcasts.
    # Other one-source cores, v_cndmask and two SGPR sources keep full
    # rows.
    codes = [f["src0"]]
    if fmt in (Format.VOP2, Format.VOPC):
        codes.append(regs.VGPR_BASE)                # vsrc1
    elif fmt is Format.VOP3 and not (name in vector.VUN_IMPL
                                     and name not in vector.VBIN_IMPL):
        codes.append(f["src1"])
        if sp.num_srcs >= 3 or name == "v_mac_f32":
            codes.append(f["src2"])
    scalar = name == "v_mov_b32" or (
        name != "v_cndmask_b32"
        and any(code >= regs.VGPR_BASE for code in codes)
        and sum(regs.SGPR_FIRST <= code <= regs.SGPR_LAST
                for code in codes) == 1)

    def src(key, tag):
        return _vector_src(f[key], inst.literal, ns, "_k%d%s" % (k, tag),
                           uses, scalar)

    # Every source the reference dispatcher *reads* (even when the op
    # ignores it) must be readable, or the reference raises where the
    # emitted code would not.
    a = src("src0", "a")
    if a is None:
        return None
    c = None
    if fmt in (Format.VOP2, Format.VOPC):
        uses.add("v")
        b = "v[%d]" % f["vsrc1"]
    elif fmt is Format.VOP3:
        b = src("src1", "b")
        if b is None:
            return None
        if sp.num_srcs >= 3 or name == "v_mac_f32":
            c = src("src2", "c")
            if c is None:
                return None
    else:
        b = None
    sdst = f.get("sdst") if fmt is Format.VOP3 else None
    uses.add("lm")

    if name.startswith("v_cmp_"):
        parts = name.split("_")
        cmp_fn = vector.VCMP_IMPL.get(parts[2]) if len(parts) == 4 else None
        dst = _mask_dst(sdst, "_c", uses)
        if cmp_fn is None or b is None or dst is None:
            return None
        if vcc_dead:
            return []
        if parts[3] == "f32":
            a, b = "_fv(%s)" % a, "_fv(%s)" % b
        elif parts[3] == "i32":
            a, b = "_sv(%s)" % a, "_sv(%s)" % b
        ns["_i%d" % k] = cmp_fn
        return ["_c = _i%d(%s, %s)" % (k, a, b)] + dst

    uses.add("v")  # every other class writes ``vdst``
    vdst = f["vdst"]
    if name == "v_mov_b32":
        return _write_row(vdst, a)
    if b is None:
        impl = vector.VUN_IMPL.get(name)
        if impl is None:
            return None
        ns["_i%d" % k] = impl
        return _write_row(vdst, "_i%d(%s)" % (k, a))

    if name in ("v_cndmask_b32", "v_addc_u32", "v_subb_u32"):
        # The VCC-or-SGPR-pair selector / carry-in, as lane bools.
        sel = _lanes_src(f["src2"] if fmt is Format.VOP3 else None, uses)
        if sel is None:
            return None

    if name == "v_cndmask_b32":
        return _write_row(vdst, "_where(%s, %s, %s)" % (sel, b, a))

    if name in vector.CARRY_OPS:
        # Each form computes into a fresh ``_r`` and reads its sources
        # for the carry before anything is written: ``vdst`` may alias
        # a source.  ``a + b`` wraps iff the sum is below either addend
        # (the VGPR row when there is one); ``x - y`` borrows iff x < y.
        if name == "v_add_i32":
            if vcc_dead:
                return _in_place(ns, k, vdst, np.add, a, b)
            row = a if a.startswith("v[") and not b.startswith("v[") else b
            lines, carry = ["_r = %s + %s" % (a, b)], "_r < %s" % row
        elif name in ("v_sub_i32", "v_subrev_i32"):
            x, y = (a, b) if name == "v_sub_i32" else (b, a)
            if vcc_dead:
                return _in_place(ns, k, vdst, np.subtract, x, y)
            lines, carry = ["_r = %s - %s" % (x, y)], "%s < %s" % (x, y)
        else:
            core = "_awc" if name == "v_addc_u32" else "_swb"
            lines = ["_r, _c = %s(%s, %s, %s)" % (core, a, b, sel)]
            carry = "_c"
        dst = _mask_dst(sdst, carry, uses)
        if dst is None:
            return None
        return lines + dst + _write_row(vdst, "_r")

    if name == "v_mac_f32":
        return _write_row(vdst, "_from_f(_fv(%s) * _fv(%s) + _fv(v[%d]))"
                          % (a, b, vdst))

    shift = _SHIFTS.get(name)
    if shift is not None:
        amount_src, ufunc = shift
        amount = _constant(f[amount_src], inst.literal) \
            if amount_src == "src0" or fmt is Format.VOP3 else None
        if amount is not None:
            shifted = b if amount_src == "src0" else a
            if ufunc is None:
                ns["_k%ds" % k] = np.int32(amount & 31)
                return _write_row(vdst, "(_sv(%s) >> _k%ds).view(_u32d)"
                                  % (shifted, k))
            ns["_k%ds" % k] = np.uint32(amount & 31)
            return _in_place(ns, k, vdst, ufunc, shifted, "_k%ds" % k)

    ufunc = vector.UFUNC_IMPL.get(name)
    if ufunc is not None and c is None:
        return _in_place(ns, k, vdst, ufunc, a, b)

    impl = vector.VBIN_IMPL.get(name)
    if impl is not None:
        args = "%s, %s" % (a, b)
    else:
        impl = vector.VUN_IMPL.get(name)
        if impl is not None:
            args = a
        else:
            impl = vector.VTRI_IMPL.get(name)
            if impl is None or fmt is not Format.VOP3:
                return None
            # VTRI_IMPL also holds two-source VOP3 ops (v_mul_lo/hi):
            # the reference passes exactly ``num_srcs`` sources.
            args = "%s, %s, %s" % (a, b, c) if c is not None \
                else "%s, %s" % (a, b)
    ns["_i%d" % k] = impl
    return _write_row(vdst, "_i%d(%s)" % (k, args))


_EMITTERS = {
    Format.SOP2: _emit_sop2, Format.SOPK: _emit_sopk,
    Format.SOP1: _emit_sop1, Format.SOPC: _emit_sopc,
    Format.SOPP: _emit_sopp,
    Format.VOP1: _emit_vector, Format.VOP2: _emit_vector,
    Format.VOPC: _emit_vector, Format.VOP3: _emit_vector,
}


def _emit(inst, k, ns):
    """Source lines and prelude uses for one ALU instruction.

    Returns ``(lines, uses, specialized)``; an unprovable shape becomes
    the generic-dispatcher call (``specialized=False``).
    """
    uses = set()
    emitter = _EMITTERS.get(inst.fmt)
    lines = emitter(inst, k, ns, uses) if emitter is not None else None
    if lines is None:
        ns["_n%d" % k] = inst
        return ["_g(wf, _n%d)" % k], set(), False
    return lines, uses, True


# ---------------------------------------------------------------------------
# Module assembly.
# ---------------------------------------------------------------------------

def _function(name, uses, lines):
    body = [line for key, line in _PRELUDE if key in uses and lines] + lines
    return "def %s(wf):\n%s" % (
        name, "".join("    %s\n" % line for line in body or ["pass"]))


# Keeps its old name: perfbench/tracing.py times it as cu.superblock_build.
def build_superblocks(prepared):
    """Compile every ALU and memory plan executor of a prepared program.

    Emits each ALU plan once, which decides ``specialized``; runs the
    program-fact passes (:func:`repro.cu.facts.program_facts`) over the
    plans; re-emits the ALU plans whose VCC write is dead and emits the
    memory plans with their facts; compiles the executors as one module
    and binds ``exec_fn`` (ALU) or ``mem_fn``/``mem_timing`` (memory) on
    every plan, scales each memory plan's occupancy by its transaction
    count, and returns ``(source, facts)``.  Called once per program by
    :class:`PreparedProgram`.
    """
    ns = {**_RUNTIME, **lsu.RUNTIME}
    chunks = {}
    for plan in prepared.plans:
        if plan.kind == KIND_ALU:
            lines, uses, plan.specialized = _emit(plan.inst, plan.index, ns)
            chunks[plan.index] = _function("_plan%d" % plan.index, uses,
                                           lines)
    facts = program_facts(prepared.plans,
                          max(4, prepared.program.vgpr_count))
    for index in facts.dead_vcc:
        uses = set()
        lines = _emit_vector(prepared.plans[index].inst, index, ns, uses,
                             vcc_dead=True)
        chunks[index] = _function("_plan%d" % index, uses, lines)
    for plan in prepared.plans:
        if plan.kind == KIND_MEMORY:
            chunks[plan.index], plan.mem_timing, transactions, \
                plan.specialized = lsu.emit_memory(
                    plan.inst, "_plan%d" % plan.index,
                    uniform=plan.index in facts.uniform_loads)
            plan.occupancy *= transactions
    source = "\n".join(chunks[index] for index in sorted(chunks))
    name = getattr(prepared.program, "name", None) or "program"
    exec(compile(source, "<prepared %s>" % name, "exec"), ns)
    for plan in prepared.plans:
        if plan.kind == KIND_ALU:
            plan.exec_fn = ns["_plan%d" % plan.index]
        elif plan.kind == KIND_MEMORY:
            plan.mem_fn = ns["_plan%d" % plan.index]
    return source, facts
