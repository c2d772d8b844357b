"""Wavefront state for the MIAOW2.0 compute unit.

A wavefront is "a collection of 64 work-items, which share the same
program counter" (Section 2.1.1).  Each wavefront carries its program
counter, identifier, and private views of the scalar and vector
register files, plus the architectural status bits (EXEC, VCC, SCC,
M0) that the Southern Islands ISA exposes.

The vector registers are held as a ``(vgpr_count, 64) uint32`` NumPy
array -- one row per VGPR, one column per work-item -- so the execute
units can operate on whole wavefronts at once, exactly like the
16-lane SIMD/SIMF blocks sweep the 64 work-items in four passes.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import SimulationError
from ..isa import registers as regs

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF
FULL_EXEC = MASK64
_INLINE_CONSTANTS = regs.INLINE_CONSTANTS


def pack_lanes(lanes):
    """The 64-bit mask of a ``(64,)`` bool row (lane 0 = bit 0)."""
    return int.from_bytes(
        np.packbits(lanes, bitorder="little").tobytes(), "little")


def unpack_lanes(mask):
    """The ``(64,)`` bool row of a 64-bit mask (lane 0 = bit 0); the
    inverse of :func:`pack_lanes`.  ``mask`` is an int in 64 bits."""
    return np.unpackbits(np.frombuffer(mask.to_bytes(8, "little"), np.uint8),
                         bitorder="little").view(np.bool_)


#: What :meth:`Wavefront.active_lane_mask` returns under full EXEC.
ALL_LANES = np.ones(64, dtype=np.bool_)
ALL_LANES.setflags(write=False)


class Wavefront:
    """Architectural + scheduling state of one wavefront.

    VCC is held in the form its last producer made: a packed 64-bit
    int (SALU, the reference dispatcher, every ``vcc`` store) or a
    64-lane bool row (the emitted VALU compares and carries, through
    :meth:`set_vcc_lanes`).  At least one form is set; :attr:`vcc`
    packs pending lanes once and :meth:`vcc_lanes` unpacks once, each
    caching its result until the next write.

    EXEC is held twice, both written only by the :attr:`exec_mask`
    setter: the 64-bit int ``_exec_mask`` and ``lm``, ``None`` when
    EXEC is full and its ``(64,)`` bool row otherwise.  The VGPR file
    is one ``(R, 64)`` block, ``vgprs``; ``rows`` lists a view of each
    of its rows, bound once, so ``rows[i]`` is a list index.  The
    emitted executors read ``lm``, ``_exec_mask`` and ``rows`` and
    store into a row's lanes (``rows[i][...] = x``), never rebinding
    ``vgprs`` or a ``rows`` slot.

    ``sgprs`` and ``vgprs`` may be passed in: a ``(NUM_SGPRS,)`` and a
    ``(max(4, vgpr_count), 64)`` uint32 slab the wavefront then owns
    (the dispatcher hands out rows of one block per workgroup).
    Otherwise both start zeroed.
    """

    def __init__(self, wf_id, program, workgroup=None, lane_count=64,
                 sgprs=None, vgprs=None):
        self.wf_id = wf_id
        self.program = program
        self.workgroup = workgroup
        self.lane_count = lane_count

        self.pc = 0
        self.exec_mask = FULL_EXEC if lane_count == 64 else (1 << lane_count) - 1
        self._vcc = 0
        self._vcc_lanes = None
        self.scc = 0
        self.m0 = 0
        self.done = False

        if sgprs is None:
            sgprs = np.zeros(regs.NUM_SGPRS, dtype=np.uint32)
        if vgprs is None:
            vgprs = np.zeros((max(4, program.vgpr_count), 64), dtype=np.uint32)
        self.sgprs = sgprs
        self.vgprs = vgprs
        self.rows = list(vgprs)

        # -- scheduling state (written by the CU pipeline) ------------------
        self.ready_at = 0.0
        self.at_barrier = False
        self.stall_cause = "operand-dep"  # why ready_at was last deferred
        self.outstanding_vm = []    # completion times of vector-memory ops
        self.outstanding_lgkm = []  # completion times of LDS/scalar-memory ops
        self.instructions_executed = 0

    # ------------------------------------------------------------------
    # Lane helpers.
    # ------------------------------------------------------------------

    @property
    def exec_mask(self):
        return self._exec_mask

    @exec_mask.setter
    def exec_mask(self, value):
        value = int(value) & MASK64
        self._exec_mask = value
        self.lm = None if value == FULL_EXEC else unpack_lanes(value)
        self._lane_idx_cache = None

    def active_lane_mask(self):
        """Boolean (64,) row of the lanes enabled by EXEC: ``lm``, or
        the shared read-only :data:`ALL_LANES` under full EXEC."""
        lm = self.lm
        return ALL_LANES if lm is None else lm

    def active_lanes(self):
        """Indices of EXEC-enabled lanes (cached until EXEC changes)."""
        if self._lane_idx_cache is None:
            self._lane_idx_cache = np.flatnonzero(self.active_lane_mask())
        return self._lane_idx_cache

    @property
    def vcc(self):
        """VCC as a 64-bit int (lane 0 = bit 0, inactive lanes zero)."""
        value = self._vcc
        if value is None:
            value = self._vcc = pack_lanes(self._vcc_lanes)
        return value

    @vcc.setter
    def vcc(self, value):
        self._vcc = int(value) & MASK64
        self._vcc_lanes = None

    def vcc_lanes(self):
        """VCC as a read-only-by-contract ``(64,)`` bool row (cached)."""
        lanes = self._vcc_lanes
        if lanes is None:
            lanes = self._vcc_lanes = unpack_lanes(self._vcc)
        return lanes

    def set_vcc_lanes(self, lanes):
        """Store VCC as a bool row, inactive lanes already false; the
        row is kept, not copied, so no caller may write into it."""
        self._vcc_lanes = lanes
        self._vcc = None

    @property
    def execz(self):
        return int(self._exec_mask == 0)

    @property
    def vccz(self):
        return int(self.vcc == 0)

    # ------------------------------------------------------------------
    # Scalar operand access.
    # ------------------------------------------------------------------

    def read_scalar(self, code, literal=None, as_float=False):
        """Read a 32-bit scalar operand by its SI source code.

        With ``as_float`` the operand's 32-bit pattern is reinterpreted
        as an IEEE-754 float32 and returned as a Python float -- inline
        float constants (``0.5`` ... ``-4.0``) resolve to their exact
        value, everything else is a bit reinterpretation, exactly like
        a SIMF lane consuming a scalar source.
        """
        if regs.SGPR_FIRST <= code <= regs.SGPR_LAST:
            value = int(self.sgprs[code])
        elif code in _INLINE_CONSTANTS:
            value = _INLINE_CONSTANTS[code]
        elif code == regs.VCC_LO:
            value = self.vcc & MASK32
        elif code == regs.VCC_HI:
            value = (self.vcc >> 32) & MASK32
        elif code == regs.M0:
            value = self.m0
        elif code == regs.EXEC_LO:
            value = self.exec_mask & MASK32
        elif code == regs.EXEC_HI:
            value = (self.exec_mask >> 32) & MASK32
        elif code == regs.VCCZ:
            value = self.vccz
        elif code == regs.EXECZ:
            value = self.execz
        elif code == regs.SCC:
            value = self.scc
        elif code == regs.LITERAL:
            if literal is None:
                raise SimulationError("literal operand without literal dword")
            value = literal & MASK32
        else:
            # Not a scalar source: raises DecodingError.
            value = regs.inline_value(code)
        if as_float:
            return struct.unpack("<f", struct.pack("<I", value & MASK32))[0]
        return value

    def read_scalar64(self, code):
        """Read a 64-bit scalar operand (an SGPR pair or VCC/EXEC)."""
        if code == regs.VCC_LO:
            return self.vcc
        if code == regs.EXEC_LO:
            return self.exec_mask
        if regs.SGPR_FIRST <= code <= regs.SGPR_LAST - 1:
            return int(self.sgprs[code]) | (int(self.sgprs[code + 1]) << 32)
        if code == regs.CONST_ZERO:
            return 0
        if regs.INT_POS_FIRST <= code <= regs.INT_NEG_LAST:
            return regs.inline_value(code) & MASK64
        raise SimulationError("invalid 64-bit scalar operand code {}".format(code))

    def write_scalar(self, code, value):
        value &= MASK32
        if regs.SGPR_FIRST <= code <= regs.SGPR_LAST:
            self.sgprs[code] = np.uint32(value)
        elif code == regs.VCC_LO:
            self.vcc = (self.vcc & ~MASK32) | value
        elif code == regs.VCC_HI:
            self.vcc = (self.vcc & MASK32) | (value << 32)
        elif code == regs.M0:
            self.m0 = value
        elif code == regs.EXEC_LO:
            self.exec_mask = (self.exec_mask & ~MASK32) | value
        elif code == regs.EXEC_HI:
            self.exec_mask = (self.exec_mask & MASK32) | (value << 32)
        else:
            raise SimulationError("invalid scalar destination code {}".format(code))

    def write_scalar64(self, code, value):
        value &= MASK64
        if code == regs.VCC_LO:
            self.vcc = value
        elif code == regs.EXEC_LO:
            self.exec_mask = value
        elif regs.SGPR_FIRST <= code <= regs.SGPR_LAST - 1:
            self.sgprs[code] = np.uint32(value & MASK32)
            self.sgprs[code + 1] = np.uint32(value >> 32)
        else:
            raise SimulationError(
                "invalid 64-bit scalar destination code {}".format(code)
            )

    # ------------------------------------------------------------------
    # Vector operand access.
    # ------------------------------------------------------------------

    def read_vector(self, code, literal=None):
        """Read a 9-bit vector source: a VGPR row or broadcast scalar."""
        if code >= regs.VGPR_BASE:
            return self.rows[code - regs.VGPR_BASE]
        scalar = self.read_scalar(code, literal)
        return np.full(64, scalar, dtype=np.uint32)

    def read_vgpr(self, index):
        return self.rows[index]

    def write_vgpr(self, index, values, lane_mask=None):
        """Write a VGPR row, honouring EXEC (or an explicit lane mask)."""
        row = self.rows[index]
        if self.lm is None and (lane_mask is None or lane_mask is ALL_LANES):
            row[...] = np.asarray(values, dtype=np.uint32)
            return
        if lane_mask is None:
            lane_mask = self.lm
        np.copyto(row, np.asarray(values, dtype=np.uint32), where=lane_mask)

    # ------------------------------------------------------------------
    # Introspection / debugging.
    # ------------------------------------------------------------------

    def sgpr_f32(self, index):
        """Read an SGPR reinterpreted as float32 (debug helper)."""
        return struct.unpack("<f", struct.pack("<I", int(self.sgprs[index])))[0]

    def __repr__(self):
        return "Wavefront(id={}, pc=0x{:x}, done={})".format(
            self.wf_id, self.pc, self.done
        )
