"""Superblock compiler: fused executors for straight-line ALU runs.

The prepared-plan issue loop (:meth:`ComputeUnit._run_compiled`) pays
per-instruction Python dispatch -- a scheduler pick, a dict lookup, a
closure call -- for every issue.  For ALU-dense kernels that dispatch
is the dominant cost; the actual NumPy work per VALU op is a few
microseconds.

This module partitions a prepared program into **superblocks**:
maximal straight-line runs of *specialized* ALU plans that cannot
change the wavefront scheduler's state.  Each run compiles into two
halves that the engine recombines:

* **semantics** -- one generated-and-``exec()``'d Python function
  (``sem_all``, plus the range-guarded ``sem`` for partial gang
  flushes) performing exactly the register effects of each plan's
  bound executor in program order, inlined where the operand shapes
  are provably reproducible (scalar ALU as pure Python ints, VALU
  through the same ``VBIN/VUN/VTRI`` cores and the same masked
  ``np.copyto`` write) and a direct closure call otherwise;
* **timing** -- the block's static ``steps`` rows, advanced step by
  step by :func:`~repro.cu.timing.step_advance`.  Block timing is
  data-independent, so the two halves commute.

Block-formation rules (also documented in ``docs/execution.md``):

* only ``KIND_ALU`` plans whose executor is a proven specialization;
* never across branches (taken or not), barriers, ``s_waitcnt``,
  ``s_endpgm`` or memory operations -- those interact with the
  scheduler, the barrier set or the memory timing model;
* never across an instruction that can write EXEC, M0 or an
  out-of-file scalar destination (``saveexec``, ``sdst`` above the
  plain SGPR file other than VCC);
* a block never spans a branch *target*: jumping into the middle of a
  block falls back to the per-instruction plans, which exist at every
  address regardless.

Exactness: a fused block runs in two regimes.  When the picked
wavefront is the *sole schedulable candidate*, no other wavefront can
interleave; within the block nothing changes liveness, barrier state
or EXEC, so the per-instruction issue chain collapses to
``start_{i+1} = done_i`` -- one ``sem_all`` call replays the register
effects while :func:`~repro.cu.timing.step_advance` walks the
block's static ``steps`` with the reference's per-instruction
arithmetic.  When *several* candidates all sit at block
heads, the compiled loop enters a **gang**: it replays the scheduler's
per-instruction picks (same rotation cursor, same strict-less-than
earliest-ready comparison) over each block's static cost triples
(``steps``) -- block timing is data-independent, so no register state
is needed -- and exits, with per-wavefront partial progress, at the
first pick that would leave a block.  Register effects are then
flushed one wavefront at a time through the block's range-guarded
semantics function (``sem``): ALU instructions of different
wavefronts touch disjoint state (own SGPRs/VGPRs/VCC/SCC; EXEC
writers are excluded), so any flush order reproduces the interleaved
reference state exactly.  In both regimes the arithmetic runs on the
same values as the reference loop (including unit-pool residue left
by other wavefronts), making cycles, stats and register state
bit-identical -- the ``superblock`` oracle in :mod:`repro.verify`
enforces this against the reference engine.

One deliberate asymmetry: instructions whose executor could raise
(64-bit scalar operands at the top of the SGPR file) are excluded
from blocks, so every simulation error still surfaces at its exact
per-instruction issue slot.

Debugging: set ``REPRO_SUPERBLOCK_DUMP=<dir>`` to write each generated
block's source to ``<dir>`` as it is compiled.
"""

from __future__ import annotations

import os

import numpy as np

from ..isa import registers as regs
from ..isa.formats import Format
from . import operations, vector
from .prepared import _BRANCH_TAKEN, _inline_constant, KIND_ALU
from .timing import UNIT_POOL_ID
from .wavefront import FULL_EXEC, MASK32, MASK64

#: Minimum run length worth fusing: a one-instruction block would just
#: replace one closure call with another.
MIN_BLOCK = 2

_DUMP_ENV = "REPRO_SUPERBLOCK_DUMP"


class Superblock:
    """One compiled straight-line run.

    ``sem_all`` replays the whole block's register effects (the
    sole-candidate path); ``sem`` is its range-guarded variant used to
    flush partial gang progress; ``steps`` holds the static
    ``(frontend_cost, occupancy, pool_id)`` triple per instruction
    (pool ids from :data:`repro.cu.timing.UNIT_POOL_ID`: 0 SALU,
    1 BRANCH, 2 SIMD, 3 SIMF) consumed by both
    :func:`~repro.cu.timing.step_advance` and the gang timing loop;
    ``addrs[k]`` is the address of instruction ``k`` (``addrs[count]``
    is ``end_pc``);
    ``cum_busy`` maps each functional unit to its cumulative occupancy
    prefix sums for partial-progress accounting.
    """

    __slots__ = ("head", "end_pc", "count", "indices", "last_occ",
                 "busy_totals", "sem_all", "sem", "steps", "addrs",
                 "cum_busy", "source")

    def __init__(self, head, end_pc, count, indices, last_occ,
                 busy_totals, sem_all, sem, steps, addrs, cum_busy, source):
        self.head = head
        self.end_pc = end_pc
        self.count = count
        self.indices = indices
        self.last_occ = last_occ
        self.busy_totals = busy_totals
        self.sem_all = sem_all
        self.sem = sem
        self.steps = steps
        self.addrs = addrs
        self.cum_busy = cum_busy
        self.source = source


# ---------------------------------------------------------------------------
# Runtime helpers shared by every generated function.
# ---------------------------------------------------------------------------

def _wv(row, values, mask):
    """Masked VGPR write -- exactly :meth:`Wavefront.write_vgpr`.

    ``mask is None`` means "EXEC was full at block entry" (EXEC cannot
    change inside a block), mirroring the full-EXEC fast path of
    :meth:`Wavefront.write_vgpr`.
    """
    if mask is None:
        row[...] = np.asarray(values, dtype=np.uint32)
        return
    np.copyto(row, np.asarray(values, dtype=np.uint32), where=mask)


# ---------------------------------------------------------------------------
# Eligibility and partitioning.
# ---------------------------------------------------------------------------

def _fusable(plan):
    """Can this plan live inside a superblock?"""
    if plan.kind != KIND_ALU or not plan.specialized:
        return False
    name = plan.name
    if name in _BRANCH_TAKEN or "saveexec" in name:
        return False
    fields = plan.inst.fields
    sdst = fields.get("sdst")
    if sdst is not None and sdst > regs.SGPR_LAST and sdst != regs.VCC_LO:
        # Conservative: EXEC/M0/VCC_HI (or any special) destinations
        # could perturb scheduler-visible state.
        return False
    for key in ("ssrc0", "ssrc1", "src0", "src1", "src2", "sdst"):
        if fields.get(key) == regs.SGPR_LAST:
            # A 64-bit operand starting at the top of the SGPR file
            # raises in the reference; keep such plans out of blocks so
            # the error surfaces at its exact per-instruction slot.
            return False
    return True


def _branch_targets(plans):
    targets = set()
    for plan in plans:
        if plan.name in _BRANCH_TAKEN:
            simm = plan.inst.fields["simm16"]
            if simm >= 0x8000:
                simm -= 0x10000
            targets.add(plan.inst.address + 4 + 4 * simm)
    return targets


def _partition(plans):
    """Maximal fusable runs, split at branch targets."""
    targets = _branch_targets(plans)
    runs, current = [], []
    for plan in plans:
        if current and plan.address in targets:
            runs.append(current)
            current = []
        if _fusable(plan):
            current.append(plan)
        else:
            if current:
                runs.append(current)
            current = []
    if current:
        runs.append(current)
    return [run for run in runs if len(run) >= MIN_BLOCK]


# ---------------------------------------------------------------------------
# Source emission.
# ---------------------------------------------------------------------------

_M32 = str(MASK32)


def _scalar_src(code, literal):
    """Inline expression for a scalar source, or None.

    Mirrors :func:`prepared._scalar_reader`'s provable cases only.
    """
    if regs.SGPR_FIRST <= code <= regs.SGPR_LAST:
        return "int(s[%d])" % code, True
    if code == regs.LITERAL and literal is not None:
        return str(literal & MASK32), False
    constant = _inline_constant(code)
    if constant is not None:
        return str(constant), False
    return None


def _scalar64_src(code, uses):
    """Inline expression for a 64-bit scalar source, or None.

    Mirrors :meth:`Wavefront.read_scalar64`'s provable cases only --
    the raising cases fall back to the per-instruction closure so the
    error surfaces at its exact issue slot.
    """
    if code == regs.VCC_LO:
        return "wf.vcc"
    if code == regs.EXEC_LO:
        return "wf.exec_mask"
    if regs.SGPR_FIRST <= code <= regs.SGPR_LAST - 1:
        uses.add("s")
        return "(int(s[%d]) | (int(s[%d]) << 32))" % (code, code + 1)
    if code == regs.CONST_ZERO:
        return "0"
    if regs.INT_POS_FIRST <= code <= regs.INT_NEG_LAST:
        return str(regs.inline_value(code) & MASK64)
    return None


def _mask_dst_lines(sdst, uses):
    """Source lines storing a 64-bit lane mask ``_m``, or None.

    ``sdst is None`` (VOP2/VOPC encodings) and ``VCC_LO`` both target
    VCC; an in-file SGPR pair is written exactly like
    :meth:`Wavefront.write_scalar64`.
    """
    if sdst is None or sdst == regs.VCC_LO:
        return ["wf.vcc = _m"]
    if regs.SGPR_FIRST <= sdst <= regs.SGPR_LAST - 1:
        uses.add("s")
        return ["s[%d] = _m & %s" % (sdst, _M32),
                "s[%d] = _m >> 32" % (sdst + 1)]
    return None


def _vector_src(code, literal, ns, tag):
    """Inline expression for a vector source, or None.

    Mirrors :func:`prepared._vector_reader`'s provable cases only;
    constants become prebuilt read-only arrays in the namespace.
    """
    if code >= regs.VGPR_BASE:
        return "v[%d]" % (code - regs.VGPR_BASE), "v"
    constant = _inline_constant(code)
    if code == regs.LITERAL and literal is not None:
        constant = literal & MASK32
    if constant is not None:
        arr = np.full(64, constant, dtype=np.uint32)
        arr.setflags(write=False)
        ns[tag] = arr
        return tag, None
    if regs.SGPR_FIRST <= code <= regs.SGPR_LAST:
        return "_full(64, s[%d], _u32d)" % code, "s"
    return None


def _emit_salu(plan, k, ns, uses):
    """Inline source lines for a scalar-ALU plan, or None."""
    inst = plan.inst
    sp, f, fmt = inst.spec, inst.fields, inst.fmt
    name = sp.name

    if fmt is Format.SOPP:
        if name == "s_nop":
            return []
        return None

    if fmt is Format.SOPC:
        parts = name.split("_")
        if len(parts) != 4:
            return None
        cmp_fn = operations._SCMP.get(parts[2])
        if cmp_fn is None:
            return None
        a = _scalar_src(f["ssrc0"], inst.literal)
        b = _scalar_src(f["ssrc1"], inst.literal)
        if a is None or b is None:
            return None
        if a[1] or b[1]:
            uses.add("s")
        ns["_i%d" % k] = cmp_fn
        if parts[3] == "i32":
            return ["wf.scc = int(_i%d(_s32(%s), _s32(%s)))"
                    % (k, a[0], b[0])]
        return ["wf.scc = int(_i%d(%s, %s))" % (k, a[0], b[0])]

    if fmt is Format.SOPK:
        sdst = f["sdst"]
        if not (regs.SGPR_FIRST <= sdst <= regs.SGPR_LAST):
            return None
        uses.add("s")
        simm = f["simm16"]
        if simm >= 0x8000:
            simm -= 0x10000
        if name == "s_movk_i32":
            return ["s[%d] = %d" % (sdst, simm & MASK32)]
        if name == "s_addk_i32":
            return ["_r, _c = _add32(int(s[%d]), %d)" % (sdst, simm & MASK32),
                    "s[%d] = _r & %s" % (sdst, _M32),
                    "wf.scc = _c"]
        if name == "s_mulk_i32":
            return ["s[%d] = (_s32(int(s[%d])) * %d) & %s"
                    % (sdst, sdst, simm, _M32)]
        return None

    if fmt is Format.SOP2 and not sp.op64:
        impl = operations.SOP2_IMPL.get(name)
        if impl is None:
            return None
        sdst = f["sdst"]
        if not (regs.SGPR_FIRST <= sdst <= regs.SGPR_LAST):
            return None
        a = _scalar_src(f["ssrc0"], inst.literal)
        b = _scalar_src(f["ssrc1"], inst.literal)
        if a is None or b is None:
            return None
        uses.add("s")
        ns["_i%d" % k] = impl
        lines = ["_r, _c = _i%d(%s, %s, wf.scc)" % (k, a[0], b[0]),
                 "s[%d] = _r & %s" % (sdst, _M32)]
        if sp.writes_scc:
            lines.append("if _c is not None: wf.scc = _c")
        return lines

    if fmt is Format.SOP1:
        impl = operations.SOP1_IMPL.get(name)
        if impl is None:
            return None
        sdst = f["sdst"]
        if not (regs.SGPR_FIRST <= sdst <= regs.SGPR_LAST):
            return None
        a = _scalar_src(f["ssrc0"], inst.literal)
        if a is None:
            return None
        uses.add("s")
        ns["_i%d" % k] = impl
        lines = ["_r, _c = _i%d(%s)" % (k, a[0]),
                 "s[%d] = _r & %s" % (sdst, _M32)]
        if sp.writes_scc:
            lines.append("if _c is not None: wf.scc = _c")
        return lines

    return None


def _emit_vector(plan, k, ns, uses):
    """Inline source lines for a vector-ALU plan, or None.

    Every vectorized class is emitted in array form -- plain
    VBIN/VUN/VTRI cores, compares, cndmask, mac and the carry chains
    (:data:`repro.cu.vector.CARRY_OPS`) -- one NumPy expression per
    instruction.  Unprovable operand shapes fall back to the plan's
    bound closure.
    """
    inst = plan.inst
    sp, f, fmt = inst.spec, inst.fields, inst.fmt
    name = sp.name

    def src(code, tag):
        got = _vector_src(code, inst.literal, ns, tag)
        if got is None:
            return None
        expr, used = got
        if used:
            uses.add(used)
        return expr

    a = src(f["src0"], "_c%da" % k)
    if a is None:
        return None
    if fmt in (Format.VOP2, Format.VOPC):
        b = "v[%d]" % f["vsrc1"]
        uses.add("v")
    elif fmt is Format.VOP3:
        b = src(f["src1"], "_c%db" % k)
    else:
        b = None

    if name.startswith("v_cmp_"):
        if b is None:
            return None
        ty = name.rsplit("_", 1)[1]
        cmp_fn = vector.VCMP_IMPL.get(name.split("_")[2])
        if cmp_fn is None:
            return None
        dst = _mask_dst_lines(
            f.get("sdst") if fmt is Format.VOP3 else None, uses)
        if dst is None:
            return None
        if ty == "f32":
            a, b = "_fv(%s)" % a, "_fv(%s)" % b
        elif ty == "i32":
            a, b = "_sv(%s)" % a, "_sv(%s)" % b
        ns["_p%d" % k] = cmp_fn
        uses.add("lm")
        return ["_m = _mfb(_p%d(%s, %s), lm)" % (k, a, b)] + dst

    if name == "v_cndmask_b32":
        if b is None:
            return None
        sel = ("wf.vcc" if fmt is not Format.VOP3
               else _scalar64_src(f["src2"], uses))
        if sel is None:
            return None
        uses.add("v")
        uses.add("lm")
        return ["_wv(v[%d], _where(_bfm(%s), %s, %s), lm)"
                % (f["vdst"], sel, b, a)]

    if name in vector.CARRY_OPS:
        if b is None:
            return None
        if name in ("v_addc_u32", "v_subb_u32"):
            cin = ("wf.vcc" if fmt is not Format.VOP3
                   else _scalar64_src(f["src2"], uses))
            if cin is None:
                return None
            args = "%s, %s, _bfm(%s)" % (a, b, cin)
        elif name == "v_subrev_i32":
            args = "%s, %s" % (b, a)
        else:
            args = "%s, %s" % (a, b)
        core = "_awc" if name in ("v_add_i32", "v_addc_u32") else "_swb"
        dst = _mask_dst_lines(
            f.get("sdst") if fmt is Format.VOP3 else None, uses)
        if dst is None:
            return None
        uses.add("v")
        uses.add("lm")
        return (["_r, _cb = %s(%s)" % (core, args),
                 "_m = _mfb(_cb, lm)"]
                + dst
                + ["_wv(v[%d], _r, lm)" % f["vdst"]])

    if name == "v_mac_f32":
        if b is None:
            return None
        uses.add("v")
        uses.add("lm")
        return ["_wv(v[%d], _from_f(_fv(%s) * _fv(%s) + _fv(v[%d])), lm)"
                % (f["vdst"], a, b, f["vdst"])]

    impl = operations.VBIN_IMPL.get(name)
    if impl is not None:
        if b is None:
            return None
        args = "%s, %s" % (a, b)
    else:
        impl = operations.VUN_IMPL.get(name)
        if impl is not None:
            args = a
        else:
            impl = operations.VTRI_IMPL.get(name)
            if impl is None or b is None or fmt is not Format.VOP3:
                return None
            if sp.num_srcs >= 3:
                c = src(f["src2"], "_c%dc" % k)
                if c is None:
                    return None
                args = "%s, %s, %s" % (a, b, c)
            else:
                args = "%s, %s" % (a, b)
    ns["_i%d" % k] = impl
    uses.add("v")
    uses.add("lm")
    return ["_wv(v[%d], _i%d(%s), lm)" % (f["vdst"], k, args)]


_SCALAR_FMTS = (Format.SOP2, Format.SOPK, Format.SOP1, Format.SOPC,
                Format.SOPP)
_VECTOR_FMTS = (Format.VOP1, Format.VOP2, Format.VOPC, Format.VOP3)

def _compile_block(run):
    """Emit, compile and wrap one run into a :class:`Superblock`.

    The generated source is semantics-only (timing advances through
    the block's static ``steps`` rows, shared with the engine);
    ``_superblock_sem_all`` replays the whole block and
    ``_superblock_sem`` the gang's ``[k0, k1)`` sub-range.
    """
    ns = {
        "_wv": _wv, "_full": np.full, "_u32d": np.uint32,
        "_s32": operations._s32, "_add32": operations._add_i32,
        "_FE": FULL_EXEC, "_where": np.where,
        "_fv": vector._fv, "_sv": vector._sv, "_from_f": vector._from_f,
        "_mfb": vector.mask_from_bools, "_bfm": vector.bools_from_mask,
        "_awc": vector.add_with_carry, "_swb": vector.sub_with_borrow,
    }
    uses = set()
    body = []
    sem_body = []
    busy_totals = {}
    steps = []
    for k, plan in enumerate(run):
        occ = plan.occupancy
        busy_totals[plan.unit] = busy_totals.get(plan.unit, 0) + occ
        steps.append((plan.fe_cost, occ, UNIT_POOL_ID[plan.unit]))
        if plan.inst.fmt in _SCALAR_FMTS:
            sem = _emit_salu(plan, k, ns, uses)
        elif plan.inst.fmt in _VECTOR_FMTS:
            sem = _emit_vector(plan, k, ns, uses)
        else:
            sem = None
        if sem is None:
            ns["_f%d" % k] = plan.exec_fn
            sem = ["_f%d(wf)" % k]
        body.extend(sem)
        if sem:
            sem_body.append("if k0 <= %d < k1:" % k)
            sem_body.extend("    %s" % line for line in sem)
    if not body:
        body.append("pass")
    if not sem_body:
        sem_body.append("pass")

    prelude = []
    if "s" in uses:
        prelude.append("s = wf.sgprs")
    if "v" in uses:
        prelude.append("v = wf.vgprs")
    if "lm" in uses:
        # EXEC cannot change inside a block; None means "all lanes"
        # to both _wv and the mask builders, skipping the unpack.
        prelude.append(
            "lm = None if wf.exec_mask == _FE else wf.active_lane_mask()")

    head = run[0].address
    src = (
        "def _superblock_sem_all(wf):\n"
        + "".join("    %s\n" % line for line in prelude + body)
        + "\n"
        + "def _superblock_sem(wf, k0, k1):\n"
        + "".join("    %s\n" % line for line in prelude + sem_body)
    )
    code = compile(src, "<superblock@0x%x>" % head, "exec")
    exec(code, ns)
    last = run[-1]
    cum_busy = []
    for unit in sorted(busy_totals, key=lambda u: u.value):
        cum, running = [0], 0
        for plan in run:
            if plan.unit is unit:
                running += plan.occupancy
            cum.append(running)
        cum_busy.append((unit, tuple(cum)))
    return Superblock(
        head=head,
        end_pc=last.address + last.pc_step,
        count=len(run),
        indices=tuple(plan.index for plan in run),
        last_occ=last.occupancy,
        busy_totals=tuple(sorted(busy_totals.items(),
                                 key=lambda kv: kv[0].value)),
        sem_all=ns["_superblock_sem_all"],
        sem=ns["_superblock_sem"],
        steps=tuple(steps),
        addrs=tuple(plan.address for plan in run)
        + (last.address + last.pc_step,),
        cum_busy=tuple(cum_busy),
        source=src,
    )


def _dump(prepared, block, dump_dir):
    name = getattr(prepared.program, "name", None) or "program"
    safe = "".join(ch if ch.isalnum() or ch in "-_" else "_" for ch in name)
    path = os.path.join(dump_dir, "%s_0x%x.py" % (safe, block.head))
    with open(path, "w") as fh:
        fh.write("# superblock head=0x%x count=%d end_pc=0x%x\n%s"
                 % (block.head, block.count, block.end_pc, block.source))


def build_superblocks(prepared):
    """Compile every fusable run of a prepared program.

    Returns ``{address: (Superblock, offset)}`` covering *every*
    instruction address inside a block -- the head at offset 0 plus
    each interior position, so a gang can pick up a wavefront mid-run
    (after a partial flush) exactly where it stopped.  Possibly empty.
    Called once per program by :meth:`PreparedProgram.superblocks`,
    which caches the result.
    """
    dump_dir = os.environ.get(_DUMP_ENV)
    blocks = {}
    for run in _partition(prepared.plans):
        block = _compile_block(run)
        for k in range(block.count):
            blocks[block.addrs[k]] = (block, k)
        if dump_dir:
            _dump(prepared, block, dump_dir)
    return blocks
