"""The in-FPGA prefetch memory buffer (Section 2.1.4).

A set of BRAM blocks instantiated next to the compute unit.  At the
start of execution, MicroBlaze commands pre-load it with application
data; during execution, any access falling inside a covered address
range is serviced at BRAM latency instead of going through the
MicroBlaze relay.

Functionally, the buffer is *coherent by construction* in this model:
it fronts the same :class:`GlobalMemory` image (the preload copies
data, and stores write through), so only timing differs between a hit
and a miss.  The paper's host templates handle exactly this preload
and write-back choreography (Section 3.3).

Capacity matters: the buffer is built from the FPGA's spare BRAM (the
Figure 6 baseline devotes 928 of 1151 RAMB36 blocks to it), so
:meth:`preload` refuses ranges that exceed it -- the runtime then keeps
the overflow in global memory, which is how large-input sweeps in
Figure 7 naturally shift from compute-bound to memory-bound.
"""

from __future__ import annotations

from ..errors import SimulationError

#: Usable bytes per RAMB36 block (36 Kb with parity -> 4 KiB of data).
BRAM_BYTES = 4096


class PrefetchBuffer:
    """Address-range tracker for the BRAM prefetch memory."""

    def __init__(self, bram_blocks=928):
        self.bram_blocks = int(bram_blocks)
        self.capacity = self.bram_blocks * BRAM_BYTES
        #: Resident (start, end) half-open byte ranges, in preload order;
        #: MemorySystem.access_time scans them on every global access.
        self.ranges = []
        self._used = 0

    @property
    def used_bytes(self):
        return self._used

    @property
    def free_bytes(self):
        return self.capacity - self._used

    def clear(self):
        self.ranges = []
        self._used = 0

    def preload(self, start, nbytes):
        """Mark ``[start, start+nbytes)`` as resident in the buffer.

        Returns True when the range fits (and records it), False when
        the buffer is full -- callers fall back to global memory, they
        do not partially load.
        """
        if nbytes < 0:
            raise SimulationError("negative prefetch range")
        if nbytes == 0:
            return True
        if nbytes > self.free_bytes:
            return False
        self.ranges.append((start, start + nbytes))
        self._used += nbytes
        return True

    def covers(self, addr):
        """Whether a single address hits the buffer."""
        for start, end in self.ranges:
            if start <= addr < end:
                return True
        return False

    def covers_range(self, lo, hi):
        """Whether one resident range covers ``[lo, hi]`` entirely.

        The single-range special case of :meth:`covers_all`, for
        callers that already know the access footprint; discontiguous
        coverage still needs the per-lane fallback there.
        """
        for start, end in self.ranges:
            if start <= lo and hi < end:
                return True
        return False

    def covers_all(self, lanes):
        """Whether every lane address in ``lanes`` hits the buffer.

        ``lanes`` holds the active lanes' addresses of one vector
        access: MIAOW2.0 services a wavefront's memory instruction as
        one transaction, so a single miss sends the whole transaction
        down the MicroBlaze path.
        """
        if not len(lanes):
            return True
        if self.covers_range(int(lanes.min()), int(lanes.max())):
            return True
        # Ranges may be discontiguous; fall back to the per-lane check.
        return all(self.covers(int(a)) for a in lanes)
