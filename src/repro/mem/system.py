"""Memory system: functional state + per-architecture access timing.

One :class:`MemorySystem` instance is shared by every compute unit of a
configuration.  It owns:

* the :class:`GlobalMemory` image (functional data),
* the shared MicroBlaze relay **channel** -- one request at a time, at
  a latency set by the clock-domain configuration.  This is the
  serialisation bottleneck the dual-clock domain and prefetch memory
  attack, and it is what keeps multi-CU scaling sub-linear for
  memory-hungry kernels in Figure 7A,
* one :class:`PrefetchBuffer` per compute unit (BRAM is instantiated
  "near the CU", Section 2.1.4), each with its own pipelined port.

Timing entry points return the **completion time** of a request given
the requested start time; functional data movement happens separately
through the ``global_mem`` accessors so the functional result never
depends on the architecture generation.
"""

from __future__ import annotations

import numpy as np

from ..obs.events import MemAccess
from .global_memory import GlobalMemory
from .params import MemoryTimingParams
from .prefetch import PrefetchBuffer


class _Channel:
    """A resource that admits one request per ``interval`` cycles.

    Pipelined channels (``interval`` set) re-admit after the initiation
    interval; unpipelined ones only after completion.  The admission
    arithmetic lives in :meth:`MemorySystem.access_time`.
    """

    def __init__(self, interval_pipelined=None):
        self.busy_until = 0.0
        self.interval = interval_pipelined
        self.requests = 0

    def reset(self):
        self.busy_until = 0.0
        self.requests = 0


class MemorySystem:
    """Shared memory hierarchy for one simulated configuration."""

    def __init__(self, params=None, num_cus=1, global_size=1 << 24,
                 prefetch_brams=928, global_mem=None):
        self.params = params or MemoryTimingParams()
        #: The functional image; a board retargeted to a new
        #: configuration passes its existing one in (``global_size`` is
        #: then ignored), so only the timing side is rebuilt.
        self.global_mem = (global_mem if global_mem is not None
                           else GlobalMemory(global_size))
        self.relay = _Channel()  # the MicroBlaze/MIG path: serialised
        per_cu_brams = max(1, prefetch_brams // max(1, num_cus))
        self.prefetch = [PrefetchBuffer(per_cu_brams) for _ in range(num_cus)]
        self._prefetch_ports = [
            _Channel(self.params.prefetch_issue_interval) for _ in range(num_cus)
        ]
        # prefetch_hits + prefetch_misses == every global transaction:
        # a "miss" is any access the prefetch memory could not serve
        # (including all of them on configurations without one), so a
        # hit *rate* is always computable.  relay_accesses counts the
        # MicroBlaze-relay path and equals prefetch_misses today, but
        # stays separate: the relay is a contended channel and future
        # backends may miss to something other than the relay.
        self.stats = {"relay_accesses": 0, "prefetch_hits": 0,
                      "prefetch_misses": 0, "lds_accesses": 0}
        #: Observation slot (see repro.obs): ``None`` or the board's hub.
        self.obs = None

    # -- preload (MicroBlaze command, Section 2.1.4) -------------------------

    def preload(self, cu_index, start, nbytes):
        """Preload a range into one CU's prefetch buffer, if present.

        No-op (returns False) when the configuration has no prefetch
        memory; the host templates call this unconditionally so kernels
        are identical across generations.
        """
        if not self.params.prefetch_enabled:
            return False
        return self.prefetch[cu_index].preload(start, nbytes)

    def preload_all(self, start, nbytes):
        """Preload the same range into every CU's buffer."""
        return all(self.preload(i, start, nbytes) for i in range(len(self.prefetch)))

    # -- timing ---------------------------------------------------------------

    def access_time(self, cu_index, now, access, scalar=False):
        """Completion time of a global access starting at ``now``.

        ``access`` is the LSU's timing tuple (see :mod:`repro.cu.lsu`):
        ``(active, lo, hi, rows, offset)`` for a vector access, or
        ``(addr,)`` for a scalar (SMRD) read with ``scalar``.  The
        prefetch test is one range check on the ``[lo, hi]`` footprint
        (``[addr, addr]`` for a scalar read); only a vector access none
        of whose resident ranges covers it builds its lane addresses
        ``rows + offset``, for the per-lane scan over discontiguous
        residency.  The hit then issues on the CU's prefetch port, a
        miss on the relay.  One call: the coverage loop and the channel
        arithmetic are inline.
        """
        if scalar:
            lo = hi = access[0]
            active, rows = 1, None
        else:
            active, lo, hi, rows, offset = access
        params = self.params
        stats = self.stats
        hit = False
        if params.prefetch_enabled:
            if active:
                buf = self.prefetch[cu_index]
                for start, end in buf.ranges:
                    if start <= lo and hi < end:
                        hit = True
                        break
                else:
                    if rows is not None:
                        hit = buf.covers_all(rows.astype(np.int64) + offset)
            else:
                hit = True
        if hit:
            stats["prefetch_hits"] += 1
            channel = self._prefetch_ports[cu_index]
            latency = params.prefetch_hit_cycles
        else:
            stats["prefetch_misses"] += 1
            stats["relay_accesses"] += 1
            channel = self.relay
            latency = params.relay_cycles
        busy = channel.busy_until
        start = busy if busy > now else now
        done = start + latency
        channel.busy_until = (start + channel.interval if channel.interval
                              else done)
        channel.requests += 1
        if self.obs is not None:
            self.obs.emit_mem_access(MemAccess(
                cycle=now, cu_index=cu_index, space="global",
                kind="scalar" if scalar else "vector", hit=hit,
                completed=done))
        return done

    def lds_access_time(self, now, cu_index=0):
        """Completion time of an LDS access (always in-CU BRAM)."""
        self.stats["lds_accesses"] += 1
        done = now + self.params.lds_cycles
        if self.obs is not None:
            self.obs.emit_mem_access(MemAccess(
                cycle=now, cu_index=cu_index, space="lds",
                kind="lds", hit=None, completed=done))
        return done

    def reset_timing(self):
        """Clear channel occupancy and counters between kernel launches."""
        self.relay.reset()
        for port in self._prefetch_ports:
            port.reset()
        for key in self.stats:
            self.stats[key] = 0
