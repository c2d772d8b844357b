"""Emit-time program facts: what the rest of a program does with an
instruction's effects.

SCRATCH's trimming tool removes the hardware no instruction of a
kernel uses; the emitter does the same at a finer grain for the work
no later instruction looks at.  Two plain dataflow passes run over the
static control-flow graph of a prepared program (fall-through edges
plus the immediate SOPP branch targets) once, in
:func:`repro.cu.superblock.build_superblocks`:

* **Dead VCC writes** (backward liveness of VCC).  A VOPC compare, or
  a carry whose destination is VCC, overwrites all of VCC; if no path
  from it reads VCC before the next such write, its VCC result is dead.
  Readers are ``s_endpgm`` (collected registers, checkpoints and the
  oracles' final state include VCC), falling off the end of the
  program, the VCC branches, the VOP2 selector and carry-in operands
  and their VOP3 forms with a VCC ``src2``, any source field holding
  ``vcc_lo``, ``vcc_hi`` or ``vccz`` (SALU, SMRD and buffer
  ``soffset`` included), a 32-bit write to one VCC half (a read, then
  a write) and every plan run by the generic dispatcher.  The emitter
  computes a dead ``v_add/sub/subrev_i32``'s row alone, in place, and
  emits a dead compare as no lines.
* **Lane-uniform rows** (forward, meet = intersection).  A VGPR row
  is uniform when every lane active at its write got one value and
  EXEC has only narrowed since (``s_and_b64 exec, exec, x`` and
  ``s_and_saveexec_b64``); any other EXEC write clears every fact.
  ``v_mov_b32`` and the pure lane-wise cores write a uniform row when
  every source is an SGPR, a constant or a uniform row; every other
  write of a row (a VALU op, a load's data registers, a ``ds_read``
  destination, a generic-dispatch plan) clears it.  An offen buffer
  load whose address row is uniform reads one address for all its
  active lanes (:func:`repro.cu.lsu.emit_memory`).

A program with a branch target that does not resolve to an
instruction gets no facts.  Workgroups are preempted only at their
boundaries, so every fact holds from a wavefront's first instruction
to its ``s_endpgm``.
"""

from __future__ import annotations

from typing import NamedTuple

from ..isa import registers as regs
from ..isa.formats import Format
from . import vector
from .lsu import BUFFER_DWORDS, SMRD_DWORDS
from .timing import KIND_ALU

#: Successor of an instruction that falls off the end of the program.
_EXIT = -1

_VCC_CODES = frozenset((regs.VCC_LO, regs.VCC_HI, regs.VCCZ))
_EXEC_CODES = frozenset((regs.EXEC_LO, regs.EXEC_HI))

_VALU = frozenset((Format.VOP1, Format.VOP2, Format.VOPC, Format.VOP3))
_BRANCHES = frozenset((
    "s_branch", "s_cbranch_scc0", "s_cbranch_scc1", "s_cbranch_vccz",
    "s_cbranch_vccnz", "s_cbranch_execz", "s_cbranch_execnz"))

#: Carries the emitter can store without their VCC result.
_DROPPABLE_CARRIES = frozenset(("v_add_i32", "v_sub_i32", "v_subrev_i32"))

#: Lane-wise cores: a uniform result from uniform sources.
_PURE = (frozenset(vector.VBIN_IMPL) | frozenset(vector.VUN_IMPL)
         | frozenset(vector.VTRI_IMPL) | _DROPPABLE_CARRIES
         | {"v_mac_f32"})

#: Buffer loads and the data registers each writes.
_LOAD_DWORDS = {name: dwords for name, dwords in BUFFER_DWORDS.items()
                if "load" in name}


class ProgramFacts(NamedTuple):
    """Plan indices the emitter specializes further."""

    #: VCC writers whose result no path reads and that the emitter
    #: can store without it (``v_add/sub/subrev_i32``, compares).
    dead_vcc: frozenset
    #: Offen buffer loads whose address row is lane-uniform.
    uniform_loads: frozenset


NO_FACTS = ProgramFacts(frozenset(), frozenset())


def program_facts(plans, vgpr_rows):
    """Both passes over ``plans`` (a prepared program's, with
    ``specialized`` already decided for the ALU plans); ``vgpr_rows``
    is the wavefront's VGPR row count."""
    successors = _successors(plans)
    if successors is None:
        return NO_FACTS
    return ProgramFacts(_dead_vcc(plans, successors, vgpr_rows),
                        _uniform_loads(plans, successors))


def _successors(plans):
    """Successor plan indices of every plan, or None when a branch
    target is not an instruction."""
    index_of = {plan.address: plan.index for plan in plans}
    last = len(plans) - 1
    out = []
    for plan in plans:
        after = plan.index + 1 if plan.index < last else _EXIT
        if plan.name == "s_endpgm":
            out.append(())
        elif plan.name in _BRANCHES:
            simm = plan.inst.fields["simm16"]
            simm = simm - 0x10000 if simm >= 0x8000 else simm
            target = index_of.get(plan.address + 4 + 4 * simm)
            if target is None:
                return None
            out.append((target,) if plan.name == "s_branch"
                       else (target, after))
        else:
            out.append((after,))
    return out


def _generic(plan):
    return plan.kind == KIND_ALU and not plan.specialized


# ---------------------------------------------------------------------------
# VCC liveness.
# ---------------------------------------------------------------------------

def _source_codes(inst):
    """Scalar operand codes the instruction may read."""
    f, fmt = inst.fields, inst.fmt
    if fmt in (Format.SOP2, Format.SOPC):
        return (f["ssrc0"], f["ssrc1"])
    if fmt is Format.SOP1:
        return (f["ssrc0"],)
    if fmt is Format.VOP3:
        return (f["src0"], f["src1"], f["src2"])
    if fmt in (Format.VOP1, Format.VOP2, Format.VOPC):
        return (f["src0"],)
    if fmt is Format.SMRD:
        return () if f["imm"] else (f["offset"],)
    if fmt in (Format.MUBUF, Format.MTBUF):
        return (f["soffset"],)
    return ()


def _scalar_dsts(inst):
    """SGPR-file codes the instruction writes 32 bits at a time."""
    f, fmt = inst.fields, inst.fmt
    if fmt in (Format.SOP1, Format.SOP2, Format.SOPK) and not inst.spec.op64:
        return (f["sdst"],)
    if fmt is Format.SMRD:
        return range(f["sdst"], f["sdst"] + SMRD_DWORDS[inst.spec.name])
    return ()


def _reads_vcc(plan):
    inst = plan.inst
    if _generic(plan) or plan.name == "s_endpgm":
        return True
    if inst.spec.reads_vcc and inst.fmt is not Format.VOP3:
        return True
    return (any(code in _VCC_CODES for code in _source_codes(inst))
            or any(code in (regs.VCC_LO, regs.VCC_HI)
                   for code in _scalar_dsts(inst)))


def _kills_vcc(plan):
    """A compare or carry that overwrites all of VCC."""
    inst = plan.inst
    name = plan.name
    if _generic(plan) or not (name.startswith("v_cmp_")
                              or name in vector.CARRY_OPS):
        return False
    if inst.fmt is Format.VOP3:
        return inst.fields["sdst"] == regs.VCC_LO
    return inst.fmt in (Format.VOP2, Format.VOPC)


def _droppable(plan, vgpr_rows):
    if plan.name in _DROPPABLE_CARRIES:
        return True
    # A compare emitted as no lines reads no operand, so each of its
    # VGPR reads must be one that cannot raise.
    f = plan.inst.fields
    rows = [code - regs.VGPR_BASE for code in _source_codes(plan.inst)[:2]
            if code >= regs.VGPR_BASE]
    if "vsrc1" in f:
        rows.append(f["vsrc1"])
    return all(row < vgpr_rows for row in rows)


def _dead_vcc(plans, successors, vgpr_rows):
    reads = [_reads_vcc(plan) for plan in plans]
    kills = [_kills_vcc(plan) for plan in plans]
    live_in = [False] * len(plans)

    def live_out(i):
        return any(s == _EXIT or live_in[s] for s in successors[i])

    changed = True
    while changed:
        changed = False
        for i in reversed(range(len(plans))):
            live = reads[i] or (not kills[i] and live_out(i))
            if live != live_in[i]:
                live_in[i] = live
                changed = True
    return frozenset(
        i for i, plan in enumerate(plans)
        if kills[i] and not reads[i] and not live_out(i)
        and _droppable(plan, vgpr_rows))


# ---------------------------------------------------------------------------
# Lane-uniform rows.
# ---------------------------------------------------------------------------

def _uniform_source(code, rows):
    if code >= regs.VGPR_BASE:
        return rows >> (code - regs.VGPR_BASE) & 1
    return (regs.SGPR_FIRST <= code <= regs.SGPR_LAST
            or code == regs.LITERAL or code in regs.INLINE_CONSTANTS)


def _valu_sources(inst):
    f, fmt, name = inst.fields, inst.fmt, inst.spec.name
    codes = [f["src0"]]
    if fmt in (Format.VOP2, Format.VOPC):
        codes.append(regs.VGPR_BASE + f["vsrc1"])
    elif fmt is Format.VOP3:
        codes.append(f["src1"])
        if inst.spec.num_srcs >= 3:
            codes.append(f["src2"])
    if name == "v_mac_f32":
        codes.append(regs.VGPR_BASE + f["vdst"])
    return codes


def _narrows_exec(inst):
    """``s_and_b64 exec, exec, x`` and ``s_and_saveexec_b64``."""
    name, f = inst.spec.name, inst.fields
    return name == "s_and_saveexec_b64" or (
        name == "s_and_b64" and f["sdst"] == regs.EXEC_LO
        and regs.EXEC_LO in (f["ssrc0"], f["ssrc1"]))


def _transfer(plan, rows):
    """The uniform rows (a bit set) after ``plan``, from those before."""
    inst = plan.inst
    fmt, name, f = inst.fmt, plan.name, inst.fields
    if _generic(plan):
        return 0
    if fmt in (Format.SOP1, Format.SOP2, Format.SOPK):
        writes_exec = (f["sdst"] in _EXEC_CODES
                       or name == "s_or_saveexec_b64")
        return 0 if writes_exec and not _narrows_exec(inst) else rows
    if fmt is Format.SMRD:
        return 0 if any(code in _EXEC_CODES
                        for code in _scalar_dsts(inst)) else rows
    if fmt in _VALU:
        if fmt is Format.VOP3 and f.get("sdst") in _EXEC_CODES:
            return 0
        if name.startswith("v_cmp_"):
            return rows
        bit = 1 << f["vdst"]
        if name in _PURE and all(_uniform_source(code, rows)
                                 for code in _valu_sources(inst)):
            return rows | bit
        return rows & ~bit
    if name in _LOAD_DWORDS:
        return rows & ~(((1 << _LOAD_DWORDS[name]) - 1) << f["vdata"])
    if name == "ds_read_b32":
        return rows & ~(1 << f["vdst"])
    if name == "ds_read2_b32":
        return rows & ~(3 << f["vdst"])
    return rows


def _uniform_loads(plans, successors):
    if not plans:
        return frozenset()
    before = [None] * len(plans)    # None: not reached yet
    before[0] = 0                   # nothing is uniform at entry
    work = [0]
    while work:
        i = work.pop()
        after = _transfer(plans[i], before[i])
        for s in successors[i]:
            if s == _EXIT:
                continue
            meet = after if before[s] is None else before[s] & after
            if meet != before[s]:
                before[s] = meet
                work.append(s)
    return frozenset(
        plan.index for plan in plans
        if plan.name in _LOAD_DWORDS and before[plan.index] is not None
        and plan.inst.fields["offen"] and not plan.inst.fields["idxen"]
        and before[plan.index] >> plan.inst.fields["vaddr"] & 1)
