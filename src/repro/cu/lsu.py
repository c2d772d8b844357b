"""Load/store unit: functional semantics of the memory instructions.

The LSU performs the address calculation before issuing the access
(Section 2.1.1) and is the gateway to three storage spaces:

* **global memory** through buffer resource descriptors (MUBUF/MTBUF)
  and scalar reads (SMRD) -- serviced by the prefetch buffer or the
  MicroBlaze relay depending on the architecture generation,
* **LDS** local memory (DS format) -- banked BRAM inside the CU,
* scalar constant data (``s_buffer_load``) through the same global
  path.

Functions return an :class:`AccessInfo` describing the access class and
footprint; the pipeline uses it to query the memory system for timing.
Functional data movement completes here, immediately -- the simulator
is functional-first, and ``s_waitcnt`` ordering is enforced purely in
the timing domain.

Buffer resource descriptors follow a simplified Southern Islands
layout, produced by :func:`make_buffer_descriptor`: word0 = 32-bit base
byte address, word1 = reserved (high address bits, always 0 here),
word2 = size in bytes (num_records), word3 = flags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError
from ..isa.formats import Format
from ..isa.registers import NUM_SGPRS
from ..mem.global_memory import dedup_keep_last


def make_buffer_descriptor(base, size, flags=0):
    """Build the four dwords of a buffer resource descriptor."""
    return [base & 0xFFFFFFFF, 0, size & 0xFFFFFFFF, flags & 0xFFFFFFFF]


@dataclass
class AccessInfo:
    """What the pipeline needs to time one memory instruction."""

    space: str            # "global" | "lds"
    counter: str          # "vm" | "lgkm" (which s_waitcnt class it joins)
    is_write: bool
    addrs: object = None  # scalar int, or (64,) lane addresses
    lane_mask: object = None
    transactions: int = 1
    #: A vector access's ``(active_lanes, lo_addr, hi_addr)`` footprint,
    #: derived once by ``_exec_buffer`` and handed to the timing query
    #: (``MemorySystem.access_time``) so it need not re-derive it.
    span: object = None


def _descriptor(wf, first_reg):
    base = int(wf.sgprs[first_reg])
    size = int(wf.sgprs[first_reg + 2])
    return base, size


# ---------------------------------------------------------------------------
# SMRD.
# ---------------------------------------------------------------------------

_SMRD_DWORDS = {
    "s_load_dword": 1, "s_load_dwordx2": 2, "s_load_dwordx4": 4,
    "s_buffer_load_dword": 1, "s_buffer_load_dwordx2": 2,
    "s_buffer_load_dwordx4": 4,
}


def _exec_smrd(wf, inst, memory):
    f = inst.fields
    name = inst.spec.name
    count = _SMRD_DWORDS[name]
    base_reg = f["sbase"] << 1
    if "buffer" in name:
        base, _size = _descriptor(wf, base_reg)
    else:
        base = int(wf.sgprs[base_reg])  # low dword of the 64-bit address
    if f["imm"]:
        addr = base + 4 * f["offset"]
    else:
        addr = base + wf.read_scalar(f["offset"])
    gm = memory.global_mem
    sdst = f["sdst"]
    end = addr + 4 * count
    if 0 <= addr and end <= gm.size and sdst + count <= NUM_SGPRS:
        # The whole window is in range: one slice into the SGPR file.
        wf.sgprs[sdst:sdst + count] = gm._bytes[addr:end].view(np.uint32)
    else:
        # Dword by dword, so a window straddling the end of memory or
        # of the SGPR file writes its leading dwords, then raises.
        for i in range(count):
            wf.write_scalar(sdst + i, gm.read_u32(addr + 4 * i))
    # One transaction per dword, like _exec_buffer: s_load_dwordx4 moves
    # four times the data of s_load_dword and must be priced (and
    # counted by the profiler) accordingly.
    return AccessInfo(space="global", counter="lgkm", is_write=False,
                      addrs=addr, transactions=count)


# ---------------------------------------------------------------------------
# MUBUF / MTBUF.
# ---------------------------------------------------------------------------

_BUFFER_DWORDS = {
    "buffer_load_dword": 1, "buffer_store_dword": 1,
    "tbuffer_load_format_x": 1, "tbuffer_store_format_x": 1,
    "tbuffer_load_format_xy": 2, "tbuffer_store_format_xy": 2,
    "buffer_load_ubyte": 1, "buffer_load_sbyte": 1, "buffer_store_byte": 1,
}

_BYTE_OPS = {"buffer_load_ubyte", "buffer_load_sbyte", "buffer_store_byte"}


def _exec_buffer(wf, inst, memory):
    """One buffer access; the active-lane footprint is derived once.

    The footprint ``(active lanes, lo, hi)`` serves the records check,
    the in-range test and -- as ``AccessInfo.span`` -- the timing
    query's prefetch coverage test.
    """
    f = inst.fields
    name = inst.spec.name
    base, size = _descriptor(wf, f["srsrc"] << 2)
    soffset = wf.read_scalar(f["soffset"])
    lane_mask = wf.active_lane_mask()

    offset = base + soffset + f["offset"]
    if f["offen"] and f["idxen"]:
        raise SimulationError("offen+idxen addressing is not supported")
    if f["offen"]:
        addrs = wf.vgprs[f["vaddr"]].astype(np.int64)
        addrs += offset
    elif f["idxen"]:
        addrs = wf.vgprs[f["vaddr"]].astype(np.int64) * 4 + offset
    else:
        addrs = np.full(64, offset, dtype=np.int64)

    is_write = "store" in name
    dwords = _BUFFER_DWORDS[name]
    active = wf.active_lanes()
    n_active = active.size
    if n_active == 0:
        # No lane moves data: a masked write of nothing is a no-op.
        return AccessInfo(space="global", counter="vm", is_write=is_write,
                          addrs=addrs, lane_mask=lane_mask,
                          transactions=dwords, span=(0, 0, 0))
    sel = addrs[active]
    lo, hi = int(sel.min()), int(sel.max())
    if size != 0 and hi >= base + size:
        raise SimulationError(
            "{}: access at 0x{:x} beyond buffer records [0x{:x}, 0x{:x})"
            .format(name, hi, base, base + size))

    gm = memory.global_mem
    vdata = f["vdata"]
    if name in _BYTE_OPS:
        if is_write:
            gm.scatter_u8(addrs, wf.vgprs[vdata], lane_mask)
        else:
            signed = name == "buffer_load_sbyte"
            wf.write_vgpr(vdata, gm.gather_u8(addrs, lane_mask, signed),
                          lane_mask)
    elif lo >= 0 and hi + 4 * dwords <= gm.size and not (sel & 3).any():
        # Aligned and in range for every dword: move them through one
        # uint32 view of the store.
        words = gm._bytes.view(np.uint32)
        word_idx = sel >> 2
        if is_write:
            # Colliding lane addresses resolve last-active-lane-wins;
            # raw fancy assignment leaves that unspecified.
            for i in range(dwords):
                idx, vals = dedup_keep_last(word_idx + i,
                                            wf.vgprs[vdata + i][active])
                words[idx] = vals
            if hi + 4 * dwords > gm.dirty_hi:
                gm.dirty_hi = hi + 4 * dwords
        else:
            for i in range(dwords):
                out = np.zeros(64, dtype=np.uint32)
                out[active] = words[word_idx + i]
                wf.write_vgpr(vdata + i, out, lane_mask)
    else:
        # Unaligned, or not provably in range: dword by dword, so each
        # dword range-checks before it moves and a later one can raise
        # after an earlier one landed.
        for i in range(dwords):
            lane_addrs = addrs + 4 * i
            if is_write:
                gm.scatter_u32(lane_addrs, wf.vgprs[vdata + i], lane_mask)
            else:
                wf.write_vgpr(vdata + i, gm.gather_u32(lane_addrs, lane_mask),
                              lane_mask)
    return AccessInfo(space="global", counter="vm", is_write=is_write,
                      addrs=addrs, lane_mask=lane_mask, transactions=dwords,
                      span=(n_active, lo, hi))


# ---------------------------------------------------------------------------
# DS (LDS).
# ---------------------------------------------------------------------------

def _lds_array(wf):
    wg = wf.workgroup
    if wg is None or wg.lds is None:
        raise SimulationError("kernel uses LDS but the workgroup has none "
                              "(missing .lds directive?)")
    return wg.lds


def _lds_index(lds, byte_addrs, name):
    idx = np.asarray(byte_addrs, dtype=np.int64) >> 2
    if (np.asarray(byte_addrs) & 3).any():
        raise SimulationError("{}: unaligned LDS access".format(name))
    if idx.size and (int(idx.max()) >= lds.size or int(idx.min()) < 0):
        raise SimulationError(
            "{}: LDS access out of range (size {} dwords)".format(name, lds.size)
        )
    return idx


def _exec_ds(wf, inst, memory):
    f = inst.fields
    name = inst.spec.name
    lds = _lds_array(wf)
    lane_mask = wf.active_lane_mask()
    active = np.flatnonzero(lane_mask)
    vaddr = wf.read_vgpr(f["addr"]).astype(np.int64)

    if name in ("ds_read_b32", "ds_write_b32", "ds_add_u32"):
        offset = f["offset0"] | (f["offset1"] << 8)
        addrs = vaddr + offset
        if active.size:
            idx = _lds_index(lds, addrs[active], name)
        else:
            idx = np.empty(0, dtype=np.int64)
        if name == "ds_read_b32":
            out = np.zeros(64, dtype=np.uint32)
            if active.size:
                out[active] = lds[idx]
            wf.write_vgpr(f["vdst"], out, lane_mask)
        elif name == "ds_write_b32":
            data = wf.read_vgpr(f["data0"])
            # Colliding addresses resolve in lane order, like the banked
            # hardware serialises conflicts: keep each address's last
            # active lane.
            uniq, vals = dedup_keep_last(idx, data[active])
            lds[uniq] = vals
        else:  # ds_add_u32 -- atomic add; uint32 wrap is associative,
            # so an unordered scatter-add matches lane-serial order.
            data = wf.read_vgpr(f["data0"])
            np.add.at(lds, idx, data[active])
        return AccessInfo(space="lds", counter="lgkm",
                          is_write=name != "ds_read_b32", addrs=addrs)

    # read2/write2: offset0/offset1 are independent dword-element offsets.
    off0, off1 = 4 * f["offset0"], 4 * f["offset1"]
    addrs0, addrs1 = vaddr + off0, vaddr + off1
    if active.size:
        idx0 = _lds_index(lds, addrs0[active], name)
        idx1 = _lds_index(lds, addrs1[active], name)
    else:
        idx0 = idx1 = np.empty(0, dtype=np.int64)
    if name == "ds_read2_b32":
        out0 = np.zeros(64, dtype=np.uint32)
        out1 = np.zeros(64, dtype=np.uint32)
        if active.size:
            out0[active] = lds[idx0]
            out1[active] = lds[idx1]
        wf.write_vgpr(f["vdst"], out0, lane_mask)
        wf.write_vgpr(f["vdst"] + 1, out1, lane_mask)
        return AccessInfo(space="lds", counter="lgkm", is_write=False,
                          addrs=addrs0, transactions=2)
    if name == "ds_write2_b32":
        d0 = wf.read_vgpr(f["data0"])
        d1 = wf.read_vgpr(f["data1"])
        # Per lane the hardware writes offset0 then offset1, lanes in
        # order -- interleave the two streams to keep that order for
        # colliding addresses.
        pair_idx = np.empty(2 * idx0.size, dtype=np.int64)
        pair_idx[0::2] = idx0
        pair_idx[1::2] = idx1
        pair_vals = np.empty(2 * idx0.size, dtype=np.uint32)
        pair_vals[0::2] = d0[active]
        pair_vals[1::2] = d1[active]
        uniq, vals = dedup_keep_last(pair_idx, pair_vals)
        lds[uniq] = vals
        return AccessInfo(space="lds", counter="lgkm", is_write=True,
                          addrs=addrs0, transactions=2)
    raise SimulationError("unhandled DS op {}".format(name))


#: Format -> executor, shared by ``execute_memory`` (the reference loop)
#: and every prepared memory plan (the compiled loop).
EXECUTORS = {
    Format.SMRD: _exec_smrd,
    Format.MUBUF: _exec_buffer,
    Format.MTBUF: _exec_buffer,
    Format.DS: _exec_ds,
}


def execute_memory(wf, inst, memory):
    """Execute a memory instruction; returns its :class:`AccessInfo`."""
    executor = EXECUTORS.get(inst.fmt)
    if executor is None:
        raise SimulationError("{} is not a memory instruction".format(inst.name))
    return executor(wf, inst, memory)
