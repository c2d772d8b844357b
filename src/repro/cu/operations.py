"""Functional semantics of the 156 MIAOW2.0 instructions.

Non-memory semantics live here as small pure-ish functions over
wavefront state; the load/store unit semantics (which need the memory
system) live in :mod:`repro.cu.lsu`.  The execute stage of the
pipeline dispatches through :func:`execute` after the Decode stage has
classified the instruction.

Conventions
-----------
* Scalar values are Python ints masked to 32/64 bits.
* Vector values are ``(64,) uint32`` NumPy arrays; float operations
  reinterpret them as ``float32`` (the SIMF lanes are single-precision,
  Section 2.1.3).
* Vector compares and carry-outs produce 64-bit lane masks; bits of
  inactive lanes (per EXEC) are written as zero.
* ``v_exp_f32`` / ``v_log_f32`` are base-2, as in the SI reference.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from ..isa import registers as regs
from ..isa.formats import Format
from . import vector
from .wavefront import MASK32, MASK64

# The wavefront-wide vector cores live in repro.cu.vector; the names
# below are this module's local spellings of them.
VBIN_IMPL = vector.VBIN_IMPL
VUN_IMPL = vector.VUN_IMPL
VTRI_IMPL = vector.VTRI_IMPL
_VCMP = vector.VCMP_IMPL
_fv = vector._fv
_sv = vector._sv
_from_f = vector._from_f
_mask_from_bools = vector.mask_from_bools
_bools_from_mask = vector.bools_from_mask


def _s32(x):
    """Reinterpret a 32-bit unsigned int as signed."""
    x &= MASK32
    return x - 0x100000000 if x & 0x80000000 else x


def _u32(x):
    return int(x) & MASK32


# ---------------------------------------------------------------------------
# Scalar ALU: SOP2 / SOPK / SOP1 / SOPC.
# ---------------------------------------------------------------------------

def _add_i32(a, b):
    result = (a + b) & MASK32
    overflow = ((~(a ^ b)) & (a ^ result) & 0x80000000) != 0
    return result, int(overflow)


def _sub_i32(a, b):
    result = (a - b) & MASK32
    overflow = (((a ^ b)) & (a ^ result) & 0x80000000) != 0
    return result, int(overflow)


def _bfe_u32(value, spec):
    offset = spec & 0x1F
    width = (spec >> 16) & 0x7F
    if width == 0:
        return 0
    field = (value >> offset) & ((1 << width) - 1)
    return field & MASK32


def _bfe_i32(value, spec):
    offset = spec & 0x1F
    width = (spec >> 16) & 0x7F
    if width == 0:
        return 0
    field = (value >> offset) & ((1 << width) - 1)
    if field & (1 << (width - 1)):
        field -= 1 << width
    return field & MASK32


#: SOP2 32-bit cores: name -> f(a, b, scc_in) -> (result, scc_out|None).
SOP2_IMPL = {
    "s_add_u32": lambda a, b, c: ((a + b) & MASK32, int(a + b > MASK32)),
    "s_sub_u32": lambda a, b, c: ((a - b) & MASK32, int(b > a)),
    "s_add_i32": lambda a, b, c: _add_i32(a, b),
    "s_sub_i32": lambda a, b, c: _sub_i32(a, b),
    "s_addc_u32": lambda a, b, c: ((a + b + c) & MASK32, int(a + b + c > MASK32)),
    "s_subb_u32": lambda a, b, c: ((a - b - c) & MASK32, int(b + c > a)),
    "s_min_i32": lambda a, b, c: (
        (a if _s32(a) < _s32(b) else b), int(_s32(a) < _s32(b))),
    "s_min_u32": lambda a, b, c: ((a if a < b else b), int(a < b)),
    "s_max_i32": lambda a, b, c: (
        (a if _s32(a) > _s32(b) else b), int(_s32(a) > _s32(b))),
    "s_max_u32": lambda a, b, c: ((a if a > b else b), int(a > b)),
    "s_cselect_b32": lambda a, b, c: ((a if c else b), None),
    "s_and_b32": lambda a, b, c: (a & b, int((a & b) != 0)),
    "s_or_b32": lambda a, b, c: (a | b, int((a | b) != 0)),
    "s_xor_b32": lambda a, b, c: (a ^ b, int((a ^ b) != 0)),
    "s_lshl_b32": lambda a, b, c: (
        (a << (b & 31)) & MASK32, int(((a << (b & 31)) & MASK32) != 0)),
    "s_lshr_b32": lambda a, b, c: (a >> (b & 31), int((a >> (b & 31)) != 0)),
    "s_ashr_i32": lambda a, b, c: (
        (_s32(a) >> (b & 31)) & MASK32, int(((_s32(a) >> (b & 31)) & MASK32) != 0)),
    "s_mul_i32": lambda a, b, c: ((_s32(a) * _s32(b)) & MASK32, None),
    "s_bfe_u32": lambda a, b, c: (_bfe_u32(a, b), int(_bfe_u32(a, b) != 0)),
    "s_bfe_i32": lambda a, b, c: (_bfe_i32(a, b), int(_bfe_i32(a, b) != 0)),
}

#: SOP2 64-bit cores: name -> f(a64, b64) -> (result64, scc_out).
SOP2_IMPL64 = {
    "s_and_b64": lambda a, b: (a & b, int((a & b) != 0)),
    "s_or_b64": lambda a, b: (a | b, int((a | b) != 0)),
    "s_xor_b64": lambda a, b: (a ^ b, int((a ^ b) != 0)),
}


def _popcount(x):
    return bin(x & MASK32).count("1")


def _ff1(x):
    x &= MASK32
    if x == 0:
        return MASK32  # -1
    return (x & -x).bit_length() - 1


def _flbit(x):
    x &= MASK32
    if x == 0:
        return MASK32  # -1
    return 32 - x.bit_length()


def _brev32(x):
    return int("{:032b}".format(x & MASK32)[::-1], 2)


def _sext(x, bits):
    x &= (1 << bits) - 1
    if x & (1 << (bits - 1)):
        x -= 1 << bits
    return x & MASK32


#: SOP1 32-bit cores: name -> f(a) -> (result, scc_out|None).
SOP1_IMPL = {
    "s_mov_b32": lambda a: (a, None),
    "s_not_b32": lambda a: ((~a) & MASK32, int(((~a) & MASK32) != 0)),
    "s_brev_b32": lambda a: (_brev32(a), None),
    "s_bcnt1_i32_b32": lambda a: (_popcount(a), int(_popcount(a) != 0)),
    "s_ff1_i32_b32": lambda a: (_ff1(a), None),
    "s_flbit_i32_b32": lambda a: (_flbit(a), None),
    "s_sext_i32_i8": lambda a: (_sext(a, 8), None),
    "s_sext_i32_i16": lambda a: (_sext(a, 16), None),
}

_SCMP = {
    "eq": lambda a, b: a == b,
    "lg": lambda a, b: a != b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
}


def _exec_sop2(wf, inst):
    sp, f = inst.spec, inst.fields
    if sp.op64:
        a = wf.read_scalar64(f["ssrc0"])
        b = wf.read_scalar64(f["ssrc1"])
        result, scc = SOP2_IMPL64[sp.name](a, b)
        wf.write_scalar64(f["sdst"], result)
    else:
        a = wf.read_scalar(f["ssrc0"], inst.literal)
        b = wf.read_scalar(f["ssrc1"], inst.literal)
        result, scc = SOP2_IMPL[sp.name](a, b, wf.scc)
        wf.write_scalar(f["sdst"], result)
    if sp.writes_scc and scc is not None:
        wf.scc = scc


def _exec_sopk(wf, inst):
    sp, f = inst.spec, inst.fields
    simm = f["simm16"]
    if simm >= 0x8000:
        simm -= 0x10000
    if sp.name == "s_movk_i32":
        wf.write_scalar(f["sdst"], simm & MASK32)
    elif sp.name == "s_addk_i32":
        current = wf.read_scalar(f["sdst"])
        result, scc = _add_i32(current, simm & MASK32)
        wf.write_scalar(f["sdst"], result)
        wf.scc = scc
    elif sp.name == "s_mulk_i32":
        current = wf.read_scalar(f["sdst"])
        wf.write_scalar(f["sdst"], (_s32(current) * simm) & MASK32)
    else:
        raise SimulationError("unhandled SOPK op {}".format(sp.name))


def _exec_sop1(wf, inst):
    sp, f = inst.spec, inst.fields
    if sp.name == "s_mov_b64":
        wf.write_scalar64(f["sdst"], wf.read_scalar64(f["ssrc0"]))
        return
    if sp.name == "s_not_b64":
        result = (~wf.read_scalar64(f["ssrc0"])) & MASK64
        wf.write_scalar64(f["sdst"], result)
        wf.scc = int(result != 0)
        return
    if sp.name in ("s_and_saveexec_b64", "s_or_saveexec_b64"):
        src = wf.read_scalar64(f["ssrc0"])
        old_exec = wf.exec_mask
        wf.write_scalar64(f["sdst"], old_exec)
        if sp.name.startswith("s_and"):
            wf.exec_mask = src & old_exec
        else:
            wf.exec_mask = src | old_exec
        wf.scc = int(wf.exec_mask != 0)
        return
    a = wf.read_scalar(f["ssrc0"], inst.literal)
    result, scc = SOP1_IMPL[sp.name](a)
    wf.write_scalar(f["sdst"], result)
    if sp.writes_scc and scc is not None:
        wf.scc = scc


def _exec_sopc(wf, inst):
    sp, f = inst.spec, inst.fields
    a = wf.read_scalar(f["ssrc0"], inst.literal)
    b = wf.read_scalar(f["ssrc1"], inst.literal)
    _, _, cmp_name, ty = sp.name.split("_")
    if ty == "i32":
        a, b = _s32(a), _s32(b)
    wf.scc = int(_SCMP[cmp_name](a, b))


# ---------------------------------------------------------------------------
# Program control: SOPP.
# ---------------------------------------------------------------------------

def _exec_sopp(wf, inst):
    """Execute a SOPP op.  Returns ``True`` when it ends the wavefront.

    ``s_waitcnt`` and ``s_barrier`` have timing-only semantics handled
    by the Issue stage model in the pipeline; functionally they are
    no-ops here.
    """
    sp, f = inst.spec, inst.fields
    name = sp.name
    if name == "s_endpgm":
        wf.done = True
        return True
    if name in ("s_nop", "s_waitcnt", "s_barrier"):
        return False
    simm = f["simm16"]
    if simm >= 0x8000:
        simm -= 0x10000
    target = inst.address + 4 + 4 * simm
    taken = False
    if name == "s_branch":
        taken = True
    elif name == "s_cbranch_scc0":
        taken = wf.scc == 0
    elif name == "s_cbranch_scc1":
        taken = wf.scc == 1
    elif name == "s_cbranch_vccz":
        taken = wf.vccz == 1
    elif name == "s_cbranch_vccnz":
        taken = wf.vccz == 0
    elif name == "s_cbranch_execz":
        taken = wf.execz == 1
    elif name == "s_cbranch_execnz":
        taken = wf.execz == 0
    else:
        raise SimulationError("unhandled SOPP op {}".format(name))
    if taken:
        wf.pc = target
    return False


# ---------------------------------------------------------------------------
# Vector ALU: VOP1 / VOP2 / VOPC / VOP3.  The array cores are in
# repro.cu.vector; this section only routes operands and writebacks.
# ---------------------------------------------------------------------------


def _vector_sources(wf, inst):
    """Read src0/src1/(src2) for any vector encoding."""
    f = inst.fields
    srcs = [wf.read_vector(f["src0"], inst.literal)]
    if inst.fmt in (Format.VOP2, Format.VOPC):
        srcs.append(wf.read_vgpr(f["vsrc1"]))
    elif inst.fmt is Format.VOP3:
        srcs.append(wf.read_vector(f["src1"], inst.literal))
        if inst.spec.num_srcs >= 3 or inst.spec.name == "v_mac_f32":
            srcs.append(wf.read_vector(f["src2"], inst.literal))
    return srcs


def _exec_vcmp(wf, inst, srcs):
    sp = inst.spec
    _, _, cmp_name, ty = sp.name.split("_")
    a, b = srcs[0], srcs[1]
    if ty == "f32":
        bools = _VCMP[cmp_name](_fv(a), _fv(b))
    elif ty == "i32":
        bools = _VCMP[cmp_name](_sv(a), _sv(b))
    else:
        bools = _VCMP[cmp_name](a, b)
    result = _mask_from_bools(bools, wf.active_lane_mask())
    sdst = inst.fields.get("sdst")
    if sdst is None or sdst == regs.VCC_LO:
        wf.vcc = result
    else:
        wf.write_scalar64(sdst, result)


def _exec_vector(wf, inst):
    sp = inst.spec
    name = sp.name
    f = inst.fields
    srcs = _vector_sources(wf, inst)
    lane_mask = wf.active_lane_mask()

    if name.startswith("v_cmp_"):
        _exec_vcmp(wf, inst, srcs)
        return

    if name == "v_cndmask_b32":
        if inst.fmt is Format.VOP3:
            selector = _bools_from_mask(wf.read_scalar64(f["src2"]))
            a, b = srcs[0], srcs[1]
        else:
            selector = _bools_from_mask(wf.vcc)
            a, b = srcs[0], srcs[1]
        wf.write_vgpr(f["vdst"], np.where(selector, b, a), lane_mask)
        return

    if name in vector.CARRY_OPS:
        a, b = srcs[0], srcs[1]
        if name in ("v_addc_u32", "v_subb_u32"):
            cin = _bools_from_mask(
                wf.read_scalar64(f["src2"]) if inst.fmt is Format.VOP3
                else wf.vcc)
        else:
            cin = None
        if name == "v_add_i32":
            result, carry = vector.add_with_carry(a, b)
        elif name == "v_addc_u32":
            result, carry = vector.add_with_carry(a, b, cin)
        elif name == "v_sub_i32":
            result, carry = vector.sub_with_borrow(a, b)
        elif name == "v_subrev_i32":
            result, carry = vector.sub_with_borrow(b, a)
        else:  # v_subb_u32
            result, carry = vector.sub_with_borrow(a, b, cin)
        carry_mask = _mask_from_bools(carry, lane_mask)
        sdst = f.get("sdst", regs.VCC_LO) if inst.fmt is Format.VOP3 else regs.VCC_LO
        if sdst == regs.VCC_LO:
            wf.vcc = carry_mask
        else:
            wf.write_scalar64(sdst, carry_mask)
        wf.write_vgpr(f["vdst"], result, lane_mask)
        return

    if name == "v_mac_f32":
        acc = wf.read_vgpr(f["vdst"])
        result = _from_f(_fv(srcs[0]) * _fv(srcs[1]) + _fv(acc))
        wf.write_vgpr(f["vdst"], result, lane_mask)
        return

    if name in VBIN_IMPL:
        wf.write_vgpr(f["vdst"], VBIN_IMPL[name](srcs[0], srcs[1]), lane_mask)
        return
    if name in VUN_IMPL:
        wf.write_vgpr(f["vdst"], VUN_IMPL[name](srcs[0]), lane_mask)
        return
    if name in VTRI_IMPL:
        wf.write_vgpr(f["vdst"], VTRI_IMPL[name](*srcs[:3]), lane_mask)
        return
    raise SimulationError("no semantics for vector op {}".format(name))


# ---------------------------------------------------------------------------
# Dispatcher.
# ---------------------------------------------------------------------------

def execute(wf, inst):
    """Execute a non-memory instruction on a wavefront.

    The caller (pipeline) has already advanced ``wf.pc`` past the
    instruction; branches overwrite it.  Memory instructions must go
    through :mod:`repro.cu.lsu` instead.
    """
    fmt = inst.fmt
    if fmt is Format.SOP2:
        _exec_sop2(wf, inst)
    elif fmt is Format.SOPK:
        _exec_sopk(wf, inst)
    elif fmt is Format.SOP1:
        _exec_sop1(wf, inst)
    elif fmt is Format.SOPC:
        _exec_sopc(wf, inst)
    elif fmt is Format.SOPP:
        _exec_sopp(wf, inst)
    elif fmt in (Format.VOP1, Format.VOP2, Format.VOPC, Format.VOP3):
        _exec_vector(wf, inst)
    else:
        raise SimulationError(
            "memory instruction {} routed to the ALU dispatcher".format(inst.name)
        )
