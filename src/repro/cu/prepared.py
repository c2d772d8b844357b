"""Prepared execution plans: the pipeline's trimmed hot path.

The reference interpreter in :mod:`repro.cu.pipeline` re-classifies
every instruction at every issue -- dictionary lookups on the mnemonic,
operand-code decoding in :meth:`Wavefront.read_scalar`, a fresh
``AccessInfo`` timing query, event-object guards.  None of that work
depends on anything but the *instruction encoding*, which is immutable
once a :class:`~repro.asm.program.Program` is decoded.

A :class:`PreparedProgram` hoists all of it to once-per-program cost:

* every instruction becomes an :class:`InstPlan` carrying its
  pre-classified kind and its static front-end cost and unit occupancy
  (rows of the program's :class:`~repro.cu.timing.TimingTable`);
* every ALU plan's executor is generated by the one ALU specializer,
  :func:`repro.cu.superblock.build_superblocks`, which compiles the
  plan executors as one module (kept on :attr:`PreparedProgram.source`
  for inspection); memory plans bind the SMRD/MUBUF executors below;
* plans are looked up by PC through a plain dict, replacing
  ``index_of_address`` + list indexing;
* prepared programs are memoized in a content-hash-keyed LRU shared
  with the service's artifact cache, so repeat launches of the same
  binary (service jobs, fuzz replays, benchmark repeats) skip the
  whole preparation.

Exactness contract: a plan's executor must be *observationally
identical* to ``operations.execute`` / ``lsu.execute_memory`` on the
same instruction -- same register/memory effects, same exceptions at
the same point.  Any shape the specializers cannot prove they
reproduce runs the generic dispatcher, so the compiled path is never
wrong, merely (rarely) not fast.  The ``superblock`` oracle in
:mod:`repro.verify` and the scalar/vector conformance matrices enforce
the contract bit-for-bit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from ..errors import TrimmedInstructionError
from ..isa import registers as regs
from ..isa.formats import Format
from ..mem.global_memory import _BYTE_OFFSETS, dedup_keep_last
from . import lsu
from .superblock import build_superblocks, inline_constant
from .timing import (KIND_ALU, KIND_BARRIER, KIND_ENDPGM,  # noqa: F401
                     KIND_MEMORY, KIND_WAITCNT, DEFAULT_TIMING,
                     get_timing_table)
from .wavefront import MASK32


class InstPlan:
    """Per-instruction precomputation consumed by the compiled issue loop.

    Kind, front-end cost and static occupancy are read straight out of
    the program's :class:`~repro.cu.timing.TimingTable` row; the plan
    adds what the table cannot hold -- the executors.  ``exec_fn`` is
    bound by :func:`~repro.cu.superblock.build_superblocks` for ALU
    plans, ``mem_fn`` here for memory plans.
    """

    __slots__ = ("index", "address", "name", "unit", "unit_name", "kind",
                 "fe_cost", "occupancy", "pc_step", "simm16", "exec_fn",
                 "mem_fn", "inst", "specialized")

    def __init__(self, inst, index, table):
        sp = inst.spec
        self.index = index
        self.address = inst.address
        self.name = sp.name
        self.unit = sp.unit
        self.unit_name = sp.unit.value
        self.kind = table.kinds[index]
        self.fe_cost = table.fe_costs[index]
        self.occupancy = table.occupancies[index]
        self.pc_step = inst.words * 4
        self.simm16 = inst.fields["simm16"] if self.kind == KIND_WAITCNT \
            else 0
        self.exec_fn = None
        self.mem_fn = None
        self.inst = inst
        #: True when the ALU executor is emitted (not the generic
        #: dispatcher).
        self.specialized = False
        if self.kind == KIND_MEMORY:
            if inst.fmt is Format.SMRD:
                self.mem_fn = _build_smrd(inst) or lsu._exec_smrd
            elif inst.fmt in (Format.MUBUF, Format.MTBUF):
                self.mem_fn = _build_buffer(inst) or lsu._exec_buffer
            else:
                self.mem_fn = lsu._exec_ds


# ---------------------------------------------------------------------------
# Memory executors.  Each returns a closure observationally
# identical to the reference LSU, or None to keep the generic one.
# ---------------------------------------------------------------------------

def _scalar_reader(code, literal):
    """Build ``f(wf) -> int`` matching ``wf.read_scalar(code, literal)``."""
    if regs.SGPR_FIRST <= code <= regs.SGPR_LAST:
        def read(wf, _i=code):
            return int(wf.sgprs[_i])
        return read
    if code == regs.LITERAL and literal is not None:
        value = literal & MASK32
        return lambda wf: value
    constant = inline_constant(code)
    if constant is not None:
        return lambda wf: constant
    # VCC/EXEC/M0/SCC change at runtime; unknown codes and a missing
    # literal dword must raise exactly like the generic reader.
    return lambda wf: wf.read_scalar(code, literal)


_SPECIALIZED_BUFFER_OPS = frozenset((
    "buffer_load_dword", "buffer_store_dword",
    "tbuffer_load_format_x", "tbuffer_store_format_x",
    "tbuffer_load_format_xy", "tbuffer_store_format_xy",
    "buffer_load_ubyte", "buffer_load_sbyte", "buffer_store_byte",
))


def _build_smrd(inst):
    """Specialized executor for SMRD loads.

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
    """Specialized executor for the common MUBUF/MTBUF accesses.

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
        if name not in _SPECIALIZED_BUFFER_OPS:
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


# ---------------------------------------------------------------------------
# Prepared programs and the content-keyed cache.
# ---------------------------------------------------------------------------

class PreparedProgram:
    """Execution plans for one (program, timing) pair.

    Carries the program's :class:`~repro.cu.timing.TimingTable` (the
    static cost columns, shared through its own content-keyed LRU) next
    to the plans that bind executors to those rows, and the generated
    ALU module's ``source``.
    """

    __slots__ = ("program", "timing", "table", "plans", "by_address",
                 "source", "_restrictions")

    def __init__(self, program, timing):
        self.program = program
        self.timing = timing
        self.table = get_timing_table(program, timing)
        self.plans = [InstPlan(inst, i, self.table)
                      for i, inst in enumerate(program.instructions)]
        self.by_address = {plan.address: plan for plan in self.plans}
        self.source = build_superblocks(self)
        self._restrictions = {}

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
