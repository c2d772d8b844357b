"""Prepared execution plans: the pipeline's trimmed hot path.

The reference interpreter in :mod:`repro.cu.pipeline` re-classifies
every instruction at every issue -- dictionary lookups on the mnemonic,
operand-code decoding in :meth:`Wavefront.read_scalar`, a fresh
``AccessInfo`` timing query, event-object guards.  None of that work
depends on anything but the *instruction encoding*, which is immutable
once a :class:`~repro.asm.program.Program` is decoded.

A :class:`PreparedProgram` hoists all of it to once-per-program cost:

* every instruction becomes an :class:`InstPlan` carrying its
  pre-classified kind, static front-end cost and unit occupancy, and a
  *bound executor closure* with operand readers/writers resolved to
  direct register-file accesses;
* plans are looked up by PC through a plain dict, replacing
  ``index_of_address`` + list indexing;
* prepared programs are memoized in a content-hash-keyed LRU shared
  with the service's artifact cache, so repeat launches of the same
  binary (service jobs, fuzz replays, benchmark repeats) skip the
  whole preparation.

Exactness contract: a plan's executor must be *observationally
identical* to ``operations.execute`` / ``lsu.execute_memory`` on the
same instruction -- same register/memory effects, same exceptions at
the same point.  Any operand shape the specializers cannot prove they
reproduce falls back to a closure over the generic dispatcher, so the
compiled path is never wrong, merely (rarely) not fast.  The
``superblock`` oracle in :mod:`repro.verify` enforces the contract
bit-for-bit over the fuzz corpus for every instruction the compiled
loop issues outside a superblock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from ..errors import DecodingError, TrimmedInstructionError
from ..isa import registers as regs
from ..isa.formats import Format
from ..mem.global_memory import _BYTE_OFFSETS, dedup_keep_last
from . import lsu, operations, vector
from .timing import (KIND_ALU, KIND_BARRIER, KIND_ENDPGM,  # noqa: F401
                     KIND_MEMORY, KIND_WAITCNT, DEFAULT_TIMING,
                     frontend_cost, get_timing_table, unit_occupancy)
from .wavefront import MASK32, MASK64


class InstPlan:
    """Per-instruction precomputation consumed by the compiled issue loop.

    Kind, front-end cost and static occupancy are read straight out of
    the program's :class:`~repro.cu.timing.TimingTable` row (built from
    :func:`frontend_cost` / :func:`unit_occupancy` once per content
    key); the plan adds what the table cannot hold -- the bound
    executor closures.
    """

    __slots__ = ("index", "address", "name", "unit", "unit_name", "kind",
                 "fe_cost", "occupancy", "pc_step", "simm16", "exec_fn",
                 "mem_fn", "inst", "specialized")

    def __init__(self, inst, index, timing, table=None):
        sp = inst.spec
        self.index = index
        self.address = inst.address
        self.name = sp.name
        self.unit = sp.unit
        self.unit_name = sp.unit.value
        self.fe_cost = (table.fe_costs[index] if table is not None
                        else frontend_cost(inst, timing))
        self.pc_step = inst.words * 4
        self.simm16 = 0
        self.exec_fn = None
        self.mem_fn = None
        self.inst = inst
        #: True when the executor is a proven specialization (not the
        #: generic-dispatcher fallback) -- the superblock compiler only
        #: fuses specialized ALU plans.
        self.specialized = False
        if sp.name == "s_endpgm":
            self.kind = KIND_ENDPGM
            self.occupancy = 0
        elif sp.name == "s_barrier":
            self.kind = KIND_BARRIER
            self.occupancy = 0
        elif sp.name == "s_waitcnt":
            self.kind = KIND_WAITCNT
            self.occupancy = 0
            self.simm16 = inst.fields["simm16"]
        elif sp.is_memory:
            self.kind = KIND_MEMORY
            # Base LSU occupancy; scaled by the access's explicit
            # transaction count at issue time, like the reference path.
            self.occupancy = (table.occupancies[index] if table is not None
                              else timing.lsu_cycles)
            if inst.fmt is Format.SMRD:
                self.mem_fn = _build_smrd(inst) or lsu._exec_smrd
            elif inst.fmt in (Format.MUBUF, Format.MTBUF):
                self.mem_fn = _build_buffer(inst) or lsu._exec_buffer
            else:
                self.mem_fn = lsu._exec_ds
        else:
            self.kind = KIND_ALU
            self.occupancy = (table.occupancies[index] if table is not None
                              else unit_occupancy(inst, timing))
            self.exec_fn, self.specialized = _build_exec(inst)


# ---------------------------------------------------------------------------
# Operand specialization.
# ---------------------------------------------------------------------------

_SPECIAL_SCALARS = frozenset((
    regs.VCC_LO, regs.VCC_HI, regs.M0, regs.EXEC_LO, regs.EXEC_HI,
    regs.VCCZ, regs.EXECZ, regs.SCC,
))


def _inline_constant(code):
    """The inline-constant value of ``code``, or None if it has none."""
    if code == regs.LITERAL or code in _SPECIAL_SCALARS \
            or code >= regs.VGPR_BASE \
            or regs.SGPR_FIRST <= code <= regs.SGPR_LAST:
        return None
    try:
        return regs.inline_value(code) & MASK32
    except DecodingError:
        return None


def _code_readable(code, literal):
    """Would the reference reader accept this source code?"""
    if code >= regs.VGPR_BASE or code in _SPECIAL_SCALARS:
        return True
    if regs.SGPR_FIRST <= code <= regs.SGPR_LAST:
        return True
    if code == regs.LITERAL:
        return literal is not None
    return _inline_constant(code) is not None


def _scalar_reader(code, literal):
    """Build ``f(wf) -> int`` matching ``wf.read_scalar(code, literal)``."""
    if regs.SGPR_FIRST <= code <= regs.SGPR_LAST:
        def read(wf, _i=code):
            return int(wf.sgprs[_i])
        return read
    if code == regs.LITERAL and literal is not None:
        value = literal & MASK32
        return lambda wf: value
    constant = _inline_constant(code)
    if constant is not None:
        return lambda wf: constant
    # VCC/EXEC/M0/SCC change at runtime; unknown codes and a missing
    # literal dword must raise exactly like the generic reader.
    return lambda wf: wf.read_scalar(code, literal)


def _scalar_writer(code):
    """Build ``f(wf, value)`` matching ``wf.write_scalar(code, value)``."""
    if regs.SGPR_FIRST <= code <= regs.SGPR_LAST:
        def write(wf, value, _i=code):
            wf.sgprs[_i] = value & MASK32
        return write
    return lambda wf, value: wf.write_scalar(code, value)


def _vector_reader(code, literal):
    """Build ``f(wf) -> (64,) uint32`` matching ``wf.read_vector``."""
    if code >= regs.VGPR_BASE:
        row = code - regs.VGPR_BASE
        def read(wf, _r=row):
            return wf.vgprs[_r]
        return read
    constant = _inline_constant(code)
    if code == regs.LITERAL and literal is not None:
        constant = literal & MASK32
    if constant is not None:
        arr = np.full(64, constant, dtype=np.uint32)
        arr.setflags(write=False)
        return lambda wf: arr
    if regs.SGPR_FIRST <= code <= regs.SGPR_LAST:
        def read(wf, _i=code):
            return np.full(64, wf.sgprs[_i], dtype=np.uint32)
        return read
    return lambda wf: wf.read_vector(code, literal)


# ---------------------------------------------------------------------------
# Per-format executor builders.  Each returns a closure observationally
# identical to the reference dispatcher, or None to fall back.
# ---------------------------------------------------------------------------

def _build_sop2(inst):
    sp, f = inst.spec, inst.fields
    if sp.op64:
        impl = operations.SOP2_IMPL64.get(sp.name)
        if impl is None:
            return None
        a_code, b_code, d_code = f["ssrc0"], f["ssrc1"], f["sdst"]
        writes_scc = sp.writes_scc

        def fn(wf):
            result, scc = impl(wf.read_scalar64(a_code), wf.read_scalar64(b_code))
            wf.write_scalar64(d_code, result)
            if writes_scc and scc is not None:
                wf.scc = scc
        return fn
    impl = operations.SOP2_IMPL.get(sp.name)
    if impl is None:
        return None
    read_a = _scalar_reader(f["ssrc0"], inst.literal)
    read_b = _scalar_reader(f["ssrc1"], inst.literal)
    write_d = _scalar_writer(f["sdst"])
    writes_scc = sp.writes_scc

    def fn(wf):
        result, scc = impl(read_a(wf), read_b(wf), wf.scc)
        write_d(wf, result)
        if writes_scc and scc is not None:
            wf.scc = scc
    return fn


def _build_sopk(inst):
    sp, f = inst.spec, inst.fields
    simm = f["simm16"]
    if simm >= 0x8000:
        simm -= 0x10000
    sdst = f["sdst"]
    read_d = _scalar_reader(sdst, None)
    write_d = _scalar_writer(sdst)
    if sp.name == "s_movk_i32":
        value = simm & MASK32
        return lambda wf: write_d(wf, value)
    if sp.name == "s_addk_i32":
        addend = simm & MASK32

        def fn(wf):
            result, scc = operations._add_i32(read_d(wf), addend)
            write_d(wf, result)
            wf.scc = scc
        return fn
    if sp.name == "s_mulk_i32":
        def fn(wf):
            write_d(wf, (operations._s32(read_d(wf)) * simm) & MASK32)
        return fn
    return None


def _build_sop1(inst):
    sp, f = inst.spec, inst.fields
    name = sp.name
    if name == "s_mov_b64":
        src, dst = f["ssrc0"], f["sdst"]
        return lambda wf: wf.write_scalar64(dst, wf.read_scalar64(src))
    if name == "s_not_b64":
        src, dst = f["ssrc0"], f["sdst"]

        def fn(wf):
            result = (~wf.read_scalar64(src)) & MASK64
            wf.write_scalar64(dst, result)
            wf.scc = int(result != 0)
        return fn
    if name in ("s_and_saveexec_b64", "s_or_saveexec_b64"):
        src, dst = f["ssrc0"], f["sdst"]
        is_and = name.startswith("s_and")

        def fn(wf):
            value = wf.read_scalar64(src)
            old_exec = wf.exec_mask
            wf.write_scalar64(dst, old_exec)
            wf.exec_mask = (value & old_exec) if is_and else (value | old_exec)
            wf.scc = int(wf.exec_mask != 0)
        return fn
    impl = operations.SOP1_IMPL.get(name)
    if impl is None:
        return None
    read_a = _scalar_reader(f["ssrc0"], inst.literal)
    write_d = _scalar_writer(f["sdst"])
    writes_scc = sp.writes_scc

    def fn(wf):
        result, scc = impl(read_a(wf))
        write_d(wf, result)
        if writes_scc and scc is not None:
            wf.scc = scc
    return fn


def _build_sopc(inst):
    sp, f = inst.spec, inst.fields
    parts = sp.name.split("_")
    if len(parts) != 4:
        return None
    cmp_fn = operations._SCMP.get(parts[2])
    if cmp_fn is None:
        return None
    signed = parts[3] == "i32"
    read_a = _scalar_reader(f["ssrc0"], inst.literal)
    read_b = _scalar_reader(f["ssrc1"], inst.literal)
    if signed:
        def fn(wf):
            wf.scc = int(cmp_fn(operations._s32(read_a(wf)),
                                operations._s32(read_b(wf))))
    else:
        def fn(wf):
            wf.scc = int(cmp_fn(read_a(wf), read_b(wf)))
    return fn


#: Branch-taken predicates; None = unconditional.
_BRANCH_TAKEN = {
    "s_branch": None,
    "s_cbranch_scc0": lambda wf: wf.scc == 0,
    "s_cbranch_scc1": lambda wf: wf.scc == 1,
    "s_cbranch_vccz": lambda wf: wf.vcc == 0,
    "s_cbranch_vccnz": lambda wf: wf.vcc != 0,
    "s_cbranch_execz": lambda wf: wf.exec_mask == 0,
    "s_cbranch_execnz": lambda wf: wf.exec_mask != 0,
}


def _build_sopp(inst):
    name = inst.spec.name
    if name == "s_nop":
        return lambda wf: None
    if name not in _BRANCH_TAKEN:
        return None
    simm = inst.fields["simm16"]
    if simm >= 0x8000:
        simm -= 0x10000
    target = inst.address + 4 + 4 * simm
    taken = _BRANCH_TAKEN[name]
    if taken is None:
        def fn(wf):
            wf.pc = target
    else:
        def fn(wf):
            if taken(wf):
                wf.pc = target
    return fn


def _build_vector(inst):
    sp, f, fmt = inst.spec, inst.fields, inst.fmt
    name = sp.name

    # Codes the reference dispatcher *reads* (even when unused by the
    # op) -- all must be acceptable to the generic reader, otherwise
    # the reference raises where the specialization would not.
    ref_codes = [f["src0"]]
    if fmt is Format.VOP3:
        ref_codes.append(f["src1"])
        if sp.num_srcs >= 3 or name == "v_mac_f32":
            ref_codes.append(f["src2"])
    if not all(_code_readable(code, inst.literal) for code in ref_codes):
        return None

    read_0 = _vector_reader(f["src0"], inst.literal)
    if fmt in (Format.VOP2, Format.VOPC):
        vsrc1 = f["vsrc1"]

        def read_1(wf, _r=vsrc1):
            return wf.vgprs[_r]
    elif fmt is Format.VOP3:
        read_1 = _vector_reader(f["src1"], inst.literal)
    else:
        read_1 = None

    if name.startswith("v_cmp_"):
        parts = name.split("_")
        if len(parts) != 4 or read_1 is None:
            return None
        pred = operations._VCMP.get(parts[2])
        if pred is None:
            return None
        ty = parts[3]
        if ty == "f32":
            view = operations._fv
        elif ty == "i32":
            view = operations._sv
        else:
            def view(a):
                return a
        sdst = f.get("sdst")
        to_vcc = sdst is None or sdst == regs.VCC_LO

        def fn(wf):
            bools = pred(view(read_0(wf)), view(read_1(wf)))
            result = operations._mask_from_bools(bools, wf.active_lane_mask())
            if to_vcc:
                wf.vcc = result
            else:
                wf.write_scalar64(sdst, result)
        return fn

    if name == "v_cndmask_b32":
        if read_1 is None:
            return None
        vdst = f["vdst"]
        if fmt is Format.VOP3:
            sel_code = f["src2"]

            def fn(wf):
                selector = operations._bools_from_mask(wf.read_scalar64(sel_code))
                wf.write_vgpr(vdst, np.where(selector, read_1(wf), read_0(wf)),
                              wf.active_lane_mask())
        else:
            def fn(wf):
                selector = operations._bools_from_mask(wf.vcc)
                wf.write_vgpr(vdst, np.where(selector, read_1(wf), read_0(wf)),
                              wf.active_lane_mask())
        return fn

    if name in ("v_add_i32", "v_sub_i32", "v_subrev_i32",
                "v_addc_u32", "v_subb_u32"):
        if read_1 is None:
            return None
        vdst = f["vdst"]
        has_cin = name in ("v_addc_u32", "v_subb_u32")
        is_vop3 = fmt is Format.VOP3
        sdst = f.get("sdst", regs.VCC_LO) if is_vop3 else regs.VCC_LO
        cin_code = f["src2"] if (has_cin and is_vop3) else None
        # Widening-free carry arithmetic (see repro.cu.vector): the
        # uint64 temporaries this closure used to allocate dominated
        # carry-heavy kernels.
        core = {
            "v_add_i32": lambda a, b, c: vector.add_with_carry(a, b),
            "v_addc_u32": lambda a, b, c: vector.add_with_carry(a, b, c),
            "v_sub_i32": lambda a, b, c: vector.sub_with_borrow(a, b),
            "v_subrev_i32": lambda a, b, c: vector.sub_with_borrow(b, a),
            "v_subb_u32": lambda a, b, c: vector.sub_with_borrow(a, b, c),
        }[name]

        def fn(wf):
            a = read_0(wf)
            b = read_1(wf)
            if has_cin:
                cin = vector.bools_from_mask(
                    wf.read_scalar64(cin_code) if cin_code is not None
                    else wf.vcc)
            else:
                cin = None
            result, carry = core(a, b, cin)
            lane_mask = wf.active_lane_mask()
            carry_mask = vector.mask_from_bools(carry, lane_mask)
            if sdst == regs.VCC_LO:
                wf.vcc = carry_mask
            else:
                wf.write_scalar64(sdst, carry_mask)
            wf.write_vgpr(vdst, result, lane_mask)
        return fn

    if name == "v_mac_f32":
        if read_1 is None:
            return None
        vdst = f["vdst"]

        def fn(wf):
            acc = wf.vgprs[vdst]
            result = operations._from_f(
                operations._fv(read_0(wf)) * operations._fv(read_1(wf))
                + operations._fv(acc))
            wf.write_vgpr(vdst, result, wf.active_lane_mask())
        return fn

    impl = operations.VBIN_IMPL.get(name)
    if impl is not None:
        if read_1 is None:
            return None
        vdst = f["vdst"]

        def fn(wf):
            wf.write_vgpr(vdst, impl(read_0(wf), read_1(wf)),
                          wf.active_lane_mask())
        return fn
    impl = operations.VUN_IMPL.get(name)
    if impl is not None:
        vdst = f["vdst"]

        def fn(wf):
            wf.write_vgpr(vdst, impl(read_0(wf)), wf.active_lane_mask())
        return fn
    impl = operations.VTRI_IMPL.get(name)
    if impl is not None:
        if read_1 is None or fmt is not Format.VOP3:
            return None
        vdst = f["vdst"]
        # VTRI_IMPL also holds two-source VOP3 ops (v_mul_lo/hi): the
        # reference passes exactly ``num_srcs`` sources through.
        if sp.num_srcs >= 3:
            read_2 = _vector_reader(f["src2"], inst.literal)

            def fn(wf):
                wf.write_vgpr(vdst, impl(read_0(wf), read_1(wf), read_2(wf)),
                              wf.active_lane_mask())
        else:
            def fn(wf):
                wf.write_vgpr(vdst, impl(read_0(wf), read_1(wf)),
                              wf.active_lane_mask())
        return fn
    return None


_FUSED_BUFFER_OPS = frozenset((
    "buffer_load_dword", "buffer_store_dword",
    "tbuffer_load_format_x", "tbuffer_store_format_x",
    "tbuffer_load_format_xy", "tbuffer_store_format_xy",
    "buffer_load_ubyte", "buffer_load_sbyte", "buffer_store_byte",
))


def _build_smrd(inst):
    """Fused executor for SMRD loads.

    The generic path calls ``GlobalMemory.read_u32`` once per dword —
    bounds check, slice, view, int conversion each time.  When the
    whole ``count``-dword window is in range, this executor reads it
    with one slice-view into the SGPR file.  Destinations or descriptor
    bases that reach past the plain SGPR file (special registers,
    IndexError territory) keep the generic path and its exact errors.
    """
    f, name = inst.fields, inst.spec.name
    count = {"dword": 1, "dwordx2": 2,
             "dwordx4": 4}.get(name.rsplit("_", 1)[-1])
    if count is None:
        return None
    base_reg = f["sbase"] << 1
    need = base_reg + (3 if "buffer" in name else 1)
    if need > regs.NUM_SGPRS:
        return None
    sdst = f["sdst"]
    if not (regs.SGPR_FIRST <= sdst and sdst + count - 1 <= regs.SGPR_LAST):
        return None
    imm, offset = f["imm"], f["offset"]
    read_offset = None if imm else _scalar_reader(offset, None)

    def fn(wf, inst, memory):
        sgprs = wf.sgprs
        base = int(sgprs[base_reg])
        addr = base + (4 * offset if imm else read_offset(wf))
        gm = memory.global_mem
        end = addr + 4 * count
        if 0 <= addr and end <= gm.size:
            sgprs[sdst:sdst + count] = gm._bytes[addr:end].view(np.uint32)
        else:
            for i in range(count):
                wf.write_scalar(sdst + i, gm.read_u32(addr + 4 * i))
        return lsu.AccessInfo(space="global", counter="lgkm", is_write=False,
                              addrs=addr, transactions=count)
    return fn


def _build_buffer(inst):
    """Fused executor for the common MUBUF/MTBUF accesses.

    The generic path derives the active-lane footprint three times per
    access (records check, functional gather/scatter, prefetch
    coverage); this executor computes it once and hands the footprint
    to the timing query through ``AccessInfo.span``.  Register effects,
    memory effects, error messages and raise points are identical to
    :func:`lsu._exec_buffer` -- any encoding outside the proven subset
    returns None and keeps the generic executor, and a multi-dword
    access that cannot be proven safe up front replays the generic
    executor wholesale (before mutating anything) so partial-effect
    raise points stay exact.
    """
    from ..errors import SimulationError

    f, name = inst.fields, inst.spec.name
    try:
        if name not in _FUSED_BUFFER_OPS:
            return None
        if f["offen"] and f["idxen"]:
            return None  # the reference raises; keep its exact error
        srsrc_base = f["srsrc"] << 2
        read_soffset = _scalar_reader(f["soffset"], None)
        const_offset = f["offset"]
        offen, idxen = f["offen"], f["idxen"]
        vaddr, vdata = f["vaddr"], f["vdata"]
    except KeyError:
        return None
    is_write = "store" in name
    byte_op = name in lsu._BYTE_OPS
    signed = name == "buffer_load_sbyte"
    dwords = lsu._BUFFER_DWORDS.get(name, 1)

    def fn(wf, inst, memory):
        sgprs = wf.sgprs
        base = int(sgprs[srsrc_base])
        size = int(sgprs[srsrc_base + 2])
        lane_mask = wf.active_lane_mask()
        offset = base + read_soffset(wf) + const_offset
        if offen:
            addrs = wf.vgprs[vaddr].astype(np.int64)
            addrs += offset
        elif idxen:
            addrs = wf.vgprs[vaddr].astype(np.int64) * 4 + offset
        else:
            addrs = np.full(64, offset, dtype=np.int64)
        active = wf.active_lanes()
        n_active = active.size
        gm = memory.global_mem
        if n_active:
            sel = addrs[active]
            lo, hi = int(sel.min()), int(sel.max())
            if size != 0 and hi >= base + size:
                raise SimulationError(
                    "{}: access at 0x{:x} beyond buffer records "
                    "[0x{:x}, 0x{:x})".format(name, hi, base, base + size))
            if byte_op:
                # gather_u8/scatter_u8 are already wavefront-wide and
                # range-check (without mutating) before moving data.
                if is_write:
                    gm.scatter_u8(addrs, wf.vgprs[vdata], lane_mask)
                else:
                    wf.write_vgpr(vdata, gm.gather_u8(addrs, lane_mask, signed),
                                  lane_mask)
                span = (n_active, lo, hi)
                return lsu.AccessInfo(space="global", counter="vm",
                                      is_write=is_write, addrs=addrs,
                                      lane_mask=lane_mask, span=span)
            if lo < 0 or hi + 4 > gm.size:
                raise SimulationError(
                    "global memory access out of range: "
                    "0x{:x}..0x{:x} (size 0x{:x})".format(lo, hi + 4, gm.size))
            aligned = not (sel & 3).any()
            if dwords > 1 and not (aligned and hi + 4 * dwords <= gm.size):
                # Unprovable multi-dword access: the per-dword generic
                # loop owns the (possibly partial) effects and raises.
                return lsu._exec_buffer(wf, inst, memory)
            if aligned:
                words = gm._bytes.view(np.uint32)
                word_idx = sel >> 2
                if is_write:
                    # Colliding lane addresses must resolve to
                    # last-active-lane-wins, like the reference loop;
                    # raw fancy assignment leaves that unspecified.
                    for i in range(dwords):
                        idx, vals = dedup_keep_last(
                            word_idx + i, wf.vgprs[vdata + i][active])
                        words[idx] = vals
                    if hi + 4 * dwords > gm.dirty_hi:
                        gm.dirty_hi = hi + 4 * dwords
                else:
                    for i in range(dwords):
                        out = np.zeros(64, dtype=np.uint32)
                        out[active] = words[word_idx + i]
                        wf.write_vgpr(vdata + i, out, lane_mask)
            elif is_write:
                byte_idx = (sel[:, None] + _BYTE_OFFSETS).ravel()
                byte_vals = np.ascontiguousarray(
                    wf.vgprs[vdata][active])[:, None].view(np.uint8).ravel()
                idx, vals = dedup_keep_last(byte_idx, byte_vals)
                gm._bytes[idx] = vals
                if hi + 4 > gm.dirty_hi:
                    gm.dirty_hi = hi + 4
            else:
                out = np.zeros(64, dtype=np.uint32)
                lane_bytes = gm._bytes[sel[:, None] + _BYTE_OFFSETS]
                out[active] = np.ascontiguousarray(lane_bytes) \
                    .view(np.uint32).ravel()
                wf.write_vgpr(vdata, out, lane_mask)
            span = (n_active, lo, hi)
        else:
            if not is_write and not byte_op:
                for i in range(dwords):
                    wf.write_vgpr(vdata + i, np.zeros(64, dtype=np.uint32),
                                  lane_mask)
            span = (0, 0, 0)
        return lsu.AccessInfo(space="global", counter="vm",
                              is_write=is_write, addrs=addrs,
                              lane_mask=lane_mask, span=span,
                              transactions=dwords)
    return fn


def _build_exec(inst):
    """Specialized executor for a non-memory instruction.

    Returns ``(fn, specialized)``.  Falls back to a closure over the
    generic dispatcher (``specialized=False``) whenever the encoding is
    one the specializers cannot prove they reproduce -- including every
    case where the reference would raise, so errors surface at the same
    execution point with the same message.
    """
    fmt = inst.fmt
    fn = None
    if fmt is Format.SOP2:
        fn = _build_sop2(inst)
    elif fmt is Format.SOPK:
        fn = _build_sopk(inst)
    elif fmt is Format.SOP1:
        fn = _build_sop1(inst)
    elif fmt is Format.SOPC:
        fn = _build_sopc(inst)
    elif fmt is Format.SOPP:
        fn = _build_sopp(inst)
    elif fmt in (Format.VOP1, Format.VOP2, Format.VOPC, Format.VOP3):
        fn = _build_vector(inst)
    if fn is None:
        return (lambda wf: operations.execute(wf, inst)), False
    return fn, True


# ---------------------------------------------------------------------------
# Prepared programs and the content-keyed cache.
# ---------------------------------------------------------------------------

class PreparedProgram:
    """Execution plans for one (program, timing) pair.

    Carries the program's :class:`~repro.cu.timing.TimingTable` (the
    static cost columns, shared through its own content-keyed LRU) next
    to the plans that bind executors to those rows.
    """

    __slots__ = ("program", "timing", "table", "plans", "by_address",
                 "_restrictions", "_superblocks", "_sb_lock")

    def __init__(self, program, timing):
        self.program = program
        self.timing = timing
        self.table = get_timing_table(program, timing)
        self.plans = [InstPlan(inst, i, timing, self.table)
                      for i, inst in enumerate(program.instructions)]
        self.by_address = {plan.address: plan for plan in self.plans}
        self._restrictions = {}
        self._superblocks = None
        self._sb_lock = threading.Lock()

    def superblocks(self):
        """Compiled superblocks for this program.

        Returns ``{address: (Superblock, offset)}`` (every in-block
        address, offset 0 being the head) or ``None`` when the program
        has no fusable run.  Nothing in a block depends on the CU
        shape (pool widths are read at run time), so the blocks are
        compiled once, lazily, and cached on the prepared program: the
        content-hash LRU that shares prepared programs across
        launches, CU shapes and service jobs shares the compiled
        superblocks too.
        """
        from .superblock import build_superblocks

        with self._sb_lock:
            if self._superblocks is None:
                self._superblocks = build_superblocks(self)
        return self._superblocks or None

    def restrictions(self, cu):
        """Addresses whose instructions fail ``cu._check_supported``.

        Returns ``None`` when every instruction is admissible (the
        common case -- the compiled loop then skips the check entirely), or
        a frozenset of byte addresses that must go through the full
        check (and raise) at issue time.
        """
        key = (cu.supported, cu.num_simd == 0, cu.num_simf == 0)
        cached = self._restrictions.get(key)
        if cached is None:
            bad = set()
            for plan in self.plans:
                try:
                    cu._check_supported(plan.inst)
                except TrimmedInstructionError:
                    bad.add(plan.address)
            cached = frozenset(bad) if bad else False
            self._restrictions[key] = cached
        return cached or None


PREPARED_CACHE_CAPACITY = 128

_cache_lock = threading.Lock()
_cache = OrderedDict()
_cache_hits = 0
_cache_misses = 0


def lookup_prepared(program, timing=DEFAULT_TIMING):
    """Return ``(PreparedProgram, hit)`` for a program/timing pair.

    Programs without a :meth:`content_key` (ad-hoc stand-ins in tests)
    are prepared uncached.
    """
    global _cache_hits, _cache_misses
    key_fn = getattr(program, "content_key", None)
    if key_fn is None:
        return PreparedProgram(program, timing), False
    key = (key_fn(), timing)
    with _cache_lock:
        prepared = _cache.get(key)
        if prepared is not None:
            _cache.move_to_end(key)
            _cache_hits += 1
            return prepared, True
        _cache_misses += 1
    prepared = PreparedProgram(program, timing)
    with _cache_lock:
        existing = _cache.get(key)
        if existing is not None:
            _cache.move_to_end(key)
            return existing, True
        _cache[key] = prepared
        while len(_cache) > PREPARED_CACHE_CAPACITY:
            _cache.popitem(last=False)
    return prepared, False


def get_prepared(program, timing=DEFAULT_TIMING):
    """The cached :class:`PreparedProgram` for a program/timing pair."""
    return lookup_prepared(program, timing)[0]


def prepared_cache_stats():
    with _cache_lock:
        return {"hits": _cache_hits, "misses": _cache_misses,
                "size": len(_cache), "capacity": PREPARED_CACHE_CAPACITY}


def prepared_cache_keys():
    """Content-key halves of the cached entries, LRU-first (tests)."""
    with _cache_lock:
        return [key[0] for key in _cache]


def clear_prepared_cache():
    global _cache_hits, _cache_misses
    with _cache_lock:
        _cache.clear()
        _cache_hits = 0
        _cache_misses = 0


def set_prepared_cache_capacity(capacity):
    """Override the LRU capacity; returns the previous value (tests)."""
    global PREPARED_CACHE_CAPACITY
    with _cache_lock:
        previous = PREPARED_CACHE_CAPACITY
        PREPARED_CACHE_CAPACITY = capacity
        while len(_cache) > PREPARED_CACHE_CAPACITY:
            _cache.popitem(last=False)
    return previous
