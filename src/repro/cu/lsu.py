"""Load/store unit: functional semantics of the memory instructions.

The LSU performs the address calculation before issuing the access
(Section 2.1.1) and is the gateway to three storage spaces:

* **global memory** through buffer resource descriptors (MUBUF/MTBUF)
  and scalar reads (SMRD) -- serviced by the prefetch buffer or the
  MicroBlaze relay depending on the architecture generation,
* **LDS** local memory (DS format) -- banked BRAM inside the CU,
* scalar constant data (``s_buffer_load``) through the same global
  path.

The semantics live in one place: the **memory emitter**
(:func:`emit_memory`).  For each memory instruction it writes the
source of one executor ``fn(wf, gm)`` with every static choice of the
encoding folded to a constant -- format, load or store, byte or dword,
dword count, offen/idxen/neither addressing, the ``soffset`` source,
the immediate offset, the SMRD ``sdst`` window, the DS form and
offsets.  :func:`repro.cu.superblock.build_superblocks` compiles these
executors into each prepared program's module (``InstPlan.mem_fn``),
which the issue loop calls.
Shapes the generated code cannot take on its fast path (unaligned, or
not provably in range) call the dword-by-dword runtime helpers below,
which keep the partial effects and raise points of a lane-serial
access.

One fact about the program around the instruction also shapes its
executor: an offen buffer load whose address row
:func:`repro.cu.facts.program_facts` proves lane-uniform gets the
**one-address form**.  It takes the address from the first active lane,
makes the same ``num_records`` check and the same ``<= gm.size`` fast
test as the row form, reads each dword (or byte) once and broadcasts it
into the active lanes, and falls back to the same helpers.  Its timing
tuple names the same lane addresses.  Stores keep the row form.  The
spec loop runs the executors written without facts
(:func:`repro.verify.spec.fact_free_memory`).

An executor returns a plain tuple for the timing query, whose kind is
static (:data:`MEM_LDS`, :data:`MEM_VECTOR`, :data:`MEM_SCALAR`):

* vector global -- ``(active, lo, hi, rows, offset)``: the active lane
  count, the lowest and highest active lane address, and the active
  lanes' address rows before ``offset``, from which
  :meth:`~repro.mem.system.MemorySystem.access_time` builds lane
  addresses only when its coverage test needs the per-lane scan;
* scalar global -- ``(addr,)``;
* LDS -- ``()``.

Vector global accesses join ``vmcnt``; LDS and scalar ones
``lgkmcnt``.  Functional data movement completes at issue -- the
simulator is functional-first, and ``s_waitcnt`` ordering is enforced
purely in the timing domain.

Buffer resource descriptors follow a simplified Southern Islands
layout, produced by :func:`make_buffer_descriptor`: word0 = 32-bit base
byte address, word1 = reserved (high address bits, always 0 here),
word2 = size in bytes (num_records), word3 = flags.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from ..isa import registers as regs
from ..isa.formats import Format
from ..mem.global_memory import dedup_keep_last
from .wavefront import FULL_EXEC

#: Timing query of a memory instruction -- static per instruction.
MEM_LDS = 0
MEM_VECTOR = 1
MEM_SCALAR = 2


def make_buffer_descriptor(base, size, flags=0):
    """Build the four dwords of a buffer resource descriptor."""
    return [base & 0xFFFFFFFF, 0, size & 0xFFFFFFFF, flags & 0xFFFFFFFF]


# ---------------------------------------------------------------------------
# Runtime helpers called by the generated executors.
# ---------------------------------------------------------------------------

def _smrd_dwords(wf, gm, addr, sdst, count):
    """Dword by dword, so a window straddling the end of memory or of
    the SGPR file writes its leading dwords, then raises."""
    for i in range(count):
        wf.write_scalar(sdst + i, gm.read_u32(addr + 4 * i))


def _records_error(name, hi, base, size):
    raise SimulationError(
        "{}: access at 0x{:x} beyond buffer records [0x{:x}, 0x{:x})"
        .format(name, hi, base, base + size))


def _unsupported_addressing():
    raise SimulationError("offen+idxen addressing is not supported")


def _buffer_dwords(wf, gm, addrs, vdata, dwords, store):
    """Unaligned, or not provably in range: dword by dword, so each
    dword range-checks before it moves and a later one can raise after
    an earlier one landed.  ``addrs`` are the 64 lane addresses."""
    lane_mask = wf.active_lane_mask()
    for i in range(dwords):
        lane_addrs = addrs + 4 * i
        if store:
            gm.scatter_u32(lane_addrs, wf.vgprs[vdata + i], lane_mask)
        else:
            wf.write_vgpr(vdata + i, gm.gather_u32(lane_addrs, lane_mask),
                          lane_mask)


def _buffer_byte(wf, gm, addrs, vdata, store, signed):
    """The byte forms: one range check over the active lanes, then the
    bytes move."""
    lane_mask = wf.active_lane_mask()
    if store:
        gm.scatter_u8(addrs, wf.vgprs[vdata], lane_mask)
    else:
        wf.write_vgpr(vdata, gm.gather_u8(addrs, lane_mask, signed),
                      lane_mask)


def _lds_array(wf):
    wg = wf.workgroup
    if wg is None or wg.lds is None:
        raise SimulationError("kernel uses LDS but the workgroup has none "
                              "(missing .lds directive?)")
    return wg.lds


_NO_LANES = np.empty(0, dtype=np.int64)
_NO_LANES.setflags(write=False)


def _lds_words(lds, rows, offset, name):
    """Dword indices of an LDS access's active lanes.

    ``rows`` holds the active lanes' address VGPR values; ``offset`` is
    the instruction's byte offset.  An unaligned lane, then an
    out-of-range one, raises before anything moves.
    """
    if not rows.size:
        return _NO_LANES
    if (int(np.bitwise_or.reduce(rows)) | offset) & 3:
        addrs = rows.astype(np.int64) + offset
        if (addrs & 3).any():
            raise SimulationError("{}: unaligned LDS access".format(name))
        idx = addrs >> 2
    else:
        idx = (rows >> 2) + (offset >> 2)
    if int(np.maximum.reduce(idx)) >= lds.size:
        raise SimulationError(
            "{}: LDS access out of range (size {} dwords)".format(
                name, lds.size))
    return idx


def _lds_write2(lds, idx0, idx1, data0, data1):
    """``ds_write2_b32``: per lane the hardware writes offset0 then
    offset1, lanes in order -- interleave the two streams to keep that
    order for colliding addresses."""
    pair_idx = np.empty(2 * idx0.size, dtype=np.int64)
    pair_idx[0::2] = idx0
    pair_idx[1::2] = idx1
    pair_vals = np.empty(2 * idx0.size, dtype=np.uint32)
    pair_vals[0::2] = data0
    pair_vals[1::2] = data1
    uniq, vals = dedup_keep_last(pair_idx, pair_vals)
    lds[uniq] = vals


#: Address rows that put every lane at the tuple's ``offset``: the
#: forms without a VGPR address and the one-address form.
_ZERO_ROW = np.zeros(64, dtype=np.uint32)
_ZERO_ROW.setflags(write=False)

#: Names the generated executors see (read-only; no state between calls).
RUNTIME = {
    "_FE": FULL_EXEC, "_u32": np.uint32,
    "_int8": np.int8, "_int64": np.int64, "_fill": np.full, "_ZROW": _ZERO_ROW,
    "_mn": np.minimum.reduce, "_mx": np.maximum.reduce,
    "_bor": np.bitwise_or.reduce, "_dkl": dedup_keep_last,
    "_cnz": np.count_nonzero,
    "_addat": np.add.at, "_smrd": _smrd_dwords, "_recs": _records_error,
    "_noaddr": _unsupported_addressing, "_bdw": _buffer_dwords,
    "_bbyte": _buffer_byte, "_lds": _lds_array, "_ldsw": _lds_words,
    "_ldsw2": _lds_write2,
}

def _active_rows(full, partial):
    """Lines binding ``_a``, the active lanes (None under full EXEC),
    and ``_r``, the address rows: ``full`` reads every lane straight
    from the register row, ``partial`` indexes the rows with ``_a``."""
    return ["if wf.lm is None:",
            "    _a = None",
            "    _r = " + full,
            "else:",
            "    _a = wf.active_lanes()",
            "    _r = " + partial]


def _lanes(row):
    """Expression for the active lanes of VGPR row ``row``."""
    return "(v[%d] if _a is None else v[%d][_a])" % (row, row)


def _store_lanes(row, value, indent=""):
    """Lines storing ``value`` into the active lanes of VGPR row ``row``:
    the whole row under full EXEC, ``_a``'s lanes otherwise."""
    return [indent + "if _a is None: v[%d][...] = %s" % (row, value),
            indent + "else: v[%d][_a] = %s" % (row, value)]


# ---------------------------------------------------------------------------
# The emitter.
# ---------------------------------------------------------------------------

def _scalar_expr(code):
    """Expression for ``wf.read_scalar(code)`` (SGPR, inline constant,
    or the reader itself for special and invalid codes)."""
    if regs.SGPR_FIRST <= code <= regs.SGPR_LAST:
        return "int(s[%d])" % code
    constant = regs.INLINE_CONSTANTS.get(code)
    if constant is not None:
        return str(constant)
    return "wf.read_scalar(%d)" % code


#: Dwords each SMRD form reads.
SMRD_DWORDS = {
    "s_load_dword": 1, "s_load_dwordx2": 2, "s_load_dwordx4": 4,
    "s_buffer_load_dword": 1, "s_buffer_load_dwordx2": 2,
    "s_buffer_load_dwordx4": 4,
}


def _emit_smrd(inst):
    f = inst.fields
    count = SMRD_DWORDS[inst.spec.name]
    # s_buffer_load's base is the descriptor's word0, s_load's the low
    # dword of a 64-bit address: the same register either way.
    base = "int(s[%d])" % (f["sbase"] << 1)
    if f["imm"]:
        addr = "%s + %d" % (base, 4 * f["offset"])
    else:
        addr = "%s + %s" % (base, _scalar_expr(f["offset"]))
    sdst, nbytes = f["sdst"], 4 * count
    lines = ["s = wf.sgprs", "_p = " + addr]
    if sdst + count <= regs.NUM_SGPRS:
        # The whole window in range (addresses are never negative): one
        # dword, or one slice into the SGPR file.
        load = ("s[%d] = gm.dwords[_p]" % sdst if count == 1
                else "s[%d:%d] = gm._bytes[_p:_p + %d].view(_u32)"
                % (sdst, sdst + count, nbytes))
        lines += ["if _p + %d <= gm.size:" % nbytes,
                  "    " + load,
                  "else:",
                  "    _smrd(wf, gm, _p, %d, %d)" % (sdst, count)]
    else:
        lines.append("_smrd(wf, gm, _p, %d, %d)" % (sdst, count))
    # One transaction per dword: s_load_dwordx4 moves four times the
    # data of s_load_dword and is priced (and counted) accordingly.
    return lines + ["return (_p,)"], MEM_SCALAR, count, True


#: Dwords each MUBUF/MTBUF form moves (one for the byte forms).
BUFFER_DWORDS = {
    "buffer_load_dword": 1, "buffer_store_dword": 1,
    "tbuffer_load_format_x": 1, "tbuffer_store_format_x": 1,
    "tbuffer_load_format_xy": 2, "tbuffer_store_format_xy": 2,
    "buffer_load_ubyte": 1, "buffer_load_sbyte": 1, "buffer_store_byte": 1,
}

_BYTE_OPS = {"buffer_load_ubyte", "buffer_load_sbyte", "buffer_store_byte"}


def _buffer_base(f):
    """Lines binding the descriptor base ``_b``, its ``num_records``
    ``_z`` and ``_o``, the base plus ``soffset`` plus the offset."""
    srsrc = f["srsrc"] << 2
    return ["s = wf.sgprs",
            "_b = int(s[%d])" % srsrc,
            "_z = int(s[%d])" % (srsrc + 2),
            "_o = _b + %s + %d" % (_scalar_expr(f["soffset"]), f["offset"])]


def _emit_buffer(inst):
    f = inst.fields
    name = inst.spec.name
    dwords = BUFFER_DWORDS[name]
    store = "store" in name
    vaddr, vdata = f["vaddr"], f["vdata"]
    lines = _buffer_base(f)
    if f["offen"] and f["idxen"]:
        return lines + ["_noaddr()"], MEM_VECTOR, dwords, False
    # The active lanes' address rows before ``_o`` (``_r``; under full
    # EXEC the register row itself), and the 64 lane addresses the
    # dword-by-dword path takes (``lanes``).
    if f["offen"]:
        full, partial = "v[%d]" % vaddr, "v[%d][_a]" % vaddr
        if not store and vdata <= vaddr < vdata + dwords:
            # The load overwrites its own address register; the timing
            # query still needs the addresses (``_a`` indexing copies).
            full += ".copy()"
        lanes = "v[%d].astype(_int64) + _o" % vaddr
    elif f["idxen"]:
        full = "v[%d].astype(_int64) * 4" % vaddr
        partial = "v[%d][_a].astype(_int64) * 4" % vaddr
        lanes = full + " + _o"
    else:
        full, partial = "_ZROW", "_ZROW[_a]"
        lanes = "_fill(64, _o, _int64)"
    lines += ["v = wf.rows"] + _active_rows(full, partial) + [
              "_n = len(_r)",
              "if not _n:",
              "    return (0, 0, 0, None, 0)"]
    # Addresses are sums of unsigned words, never negative.
    if store:
        # Strictly increasing lane addresses (the common base+stride
        # pattern) prove a store's lanes distinct and put the footprint
        # at the ends.
        lines += ["_u = _n < 2 or not _cnz(_r[1:] <= _r[:-1])",
                  "if _u:",
                  "    _lo = int(_r[0]) + _o",
                  "    _hi = int(_r[-1]) + _o",
                  "else:",
                  "    _lo = int(_mn(_r)) + _o",
                  "    _hi = int(_mx(_r)) + _o"]
    else:
        lines += ["_lo = int(_mn(_r)) + _o",
                  "_hi = int(_mx(_r)) + _o"]
    lines += ["if _z and _hi >= _b + _z:",
              "    _recs(%r, _hi, _b, _z)" % name]
    # In range: move the active lanes through a view of the store
    # indexed by byte address -- ``gm.dwords`` (the dword at every byte,
    # so unaligned loads need no reassembly) or the bytes themselves.
    byte = name in _BYTE_OPS
    end = "_hi + %d" % (4 * dwords if not byte else 1)
    fast = "%s <= gm.size" % end
    if store and not byte:
        # Unaligned dwords of different lanes can overlap, which only
        # the byte-ordered path resolves lane-serially.
        fast = "not (int(_bor(_r)) | _o) & 3 and " + fast
    view = ("gm._bytes.view(_int8)" if name == "buffer_load_sbyte"
            else "gm._bytes" if byte else "gm.dwords")
    lines.append("if %s:" % fast)
    if store:
        lines.append("    if %s > gm.dirty_hi: gm.dirty_hi = %s" % (end, end))
    for i in range(dwords):
        at = "%s[_o + %d:]" % (view, 4 * i) if i else "%s[_o:]" % view
        if store:
            # Colliding lane addresses resolve last-active-lane-wins;
            # raw fancy assignment leaves that unspecified.
            lines += ["    _d = " + _lanes(vdata + i),
                      "    if _u: %s[_r] = _d" % at,
                      "    else:",
                      "        _i, _d = _dkl(_r, _d)",
                      "        %s[_i] = _d" % at]
        else:
            lines += _store_lanes(vdata + i, "%s[_r]" % at, "    ")
    lines.append("else:")
    if byte:
        lines.append("    _bbyte(wf, gm, %s, %d, %s, %s)" % (
            lanes, vdata, store, name == "buffer_load_sbyte"))
    else:
        lines.append("    _bdw(wf, gm, %s, %d, %d, %s)"
                     % (lanes, vdata, dwords, store))
    return (lines + ["return (_n, _lo, _hi, _r, _o)"], MEM_VECTOR, dwords,
            True)


def _emit_uniform_load(inst):
    """An offen load whose address row is lane-uniform
    (:data:`repro.cu.facts.ProgramFacts.uniform_loads`): the first
    active lane's address serves every active lane, so each dword (or
    byte) is read once and broadcast.  Range checks, the fallback and
    the timing tuple's lane addresses are the row form's."""
    f = inst.fields
    name = inst.spec.name
    dwords = BUFFER_DWORDS[name]
    vaddr, vdata = f["vaddr"], f["vdata"]
    byte = name in _BYTE_OPS
    view = ("gm._bytes.view(_int8)" if name == "buffer_load_sbyte"
            else "gm._bytes" if byte else "gm.dwords")
    lines = _buffer_base(f) + [
             "v = wf.rows",
             "_e = wf._exec_mask",
             "if _e == _FE:",
             "    _a = None",
             "    _n = 64",
             "    _lo = int(v[%d][0]) + _o" % vaddr,
             "elif _e:",
             "    _a = wf.active_lanes()",
             "    _n = len(_a)",
             "    _lo = int(v[%d][_a[0]]) + _o" % vaddr,
             "else:",
             "    return (0, 0, 0, None, 0)",
             "if _z and _lo >= _b + _z:",
             "    _recs(%r, _lo, _b, _z)" % name,
             "if _lo + %d <= gm.size:" % (1 if byte else 4 * dwords)]
    for i in range(dwords):
        lines.append("    _x = %s[_lo + %d]" % (view, 4 * i) if i
                     else "    _x = %s[_lo]" % view)
        lines += _store_lanes(vdata + i, "_x", "    ")
    lines.append("else:")
    lanes = "v[%d].astype(_int64) + _o" % vaddr
    if byte:
        lines.append("    _bbyte(wf, gm, %s, %d, False, %s)" % (
            lanes, vdata, name == "buffer_load_sbyte"))
    else:
        lines.append("    _bdw(wf, gm, %s, %d, %d, False)"
                     % (lanes, vdata, dwords))
    # Every active lane at ``_lo``: rows of zeros after offset ``_lo``.
    return (lines + ["return (_n, _lo, _lo, _ZROW[:_n], _lo)"], MEM_VECTOR,
            dwords, True)


def _emit_ds(inst):
    f = inst.fields
    name = inst.spec.name
    addr = f["addr"]
    # ``_r`` is spent on the dword indices before any row is written, so
    # a read into its own address register needs no copy.
    lines = (["_L = _lds(wf)", "v = wf.rows"]
             + _active_rows("v[%d]" % addr, "v[%d][_a]" % addr))
    if name in ("ds_read_b32", "ds_write_b32", "ds_add_u32"):
        lines.append("_x = _ldsw(_L, _r, %d, %r)"
                     % (f["offset0"] | (f["offset1"] << 8), name))
        if name == "ds_read_b32":
            lines += _store_lanes(f["vdst"], "_L[_x]")
        elif name == "ds_write_b32":
            # Colliding addresses resolve in lane order, like the banked
            # hardware serialises conflicts: keep each address's last
            # active lane.
            lines += ["_i, _d = _dkl(_x, %s)" % _lanes(f["data0"]),
                      "_L[_i] = _d"]
        else:
            # Atomic add: uint32 wrap is associative, so an unordered
            # scatter-add matches lane-serial order.
            lines.append("_addat(_L, _x, %s)" % _lanes(f["data0"]))
        return lines + ["return ()"], MEM_LDS, 1, True
    # read2/write2: offset0/offset1 are independent dword-element offsets.
    lines += ["_x = _ldsw(_L, _r, %d, %r)" % (4 * f["offset0"], name),
              "_y = _ldsw(_L, _r, %d, %r)" % (4 * f["offset1"], name)]
    if name == "ds_read2_b32":
        lines += (_store_lanes(f["vdst"], "_L[_x]")
                  + _store_lanes(f["vdst"] + 1, "_L[_y]"))
    else:  # ds_write2_b32
        lines.append("_ldsw2(_L, _x, _y, %s, %s)"
                     % (_lanes(f["data0"]), _lanes(f["data1"])))
    return lines + ["return ()"], MEM_LDS, 2, True


_EMITTERS = {
    Format.SMRD: _emit_smrd,
    Format.MUBUF: _emit_buffer,
    Format.MTBUF: _emit_buffer,
    Format.DS: _emit_ds,
}


def emit_memory(inst, fn_name, uniform=False):
    """Source of the executor ``fn_name(wf, gm)`` of one memory
    instruction, with the names of :data:`RUNTIME` in scope.
    ``uniform`` (an offen buffer load whose address row the program
    facts prove lane-uniform) selects the one-address form.

    Returns ``(source, timing, transactions, emitted)``: the timing
    query (:data:`MEM_LDS`, :data:`MEM_VECTOR` or :data:`MEM_SCALAR`),
    the static LSU transaction count (one per dword moved), and
    whether the executor performs the access -- ``False`` only for an
    encoding every issue of which raises (offen+idxen addressing).
    """
    emitter = _emit_uniform_load if uniform else _EMITTERS.get(inst.fmt)
    if emitter is None:
        raise SimulationError(
            "{} is not a memory instruction".format(inst.name))
    lines, timing, transactions, emitted = emitter(inst)
    source = "def %s(wf, gm):\n%s" % (
        fn_name, "".join("    %s\n" % line for line in lines))
    return source, timing, transactions, emitted
