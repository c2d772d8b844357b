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

from ..obs.events import MemAccess
from .global_memory import GlobalMemory
from .params import MemoryTimingParams
from .prefetch import PrefetchBuffer


class _Channel:
    """A resource that admits one request per ``interval`` cycles."""

    def __init__(self, interval_pipelined=None):
        self.busy_until = 0.0
        self.interval = interval_pipelined
        self.requests = 0

    def reset(self):
        self.busy_until = 0.0
        self.requests = 0

    def issue(self, now, latency):
        """Issue a request at >= ``now``; returns its completion time.

        Pipelined channels (``interval`` set) re-admit after the
        initiation interval; unpipelined ones only after completion.
        """
        start = max(now, self.busy_until)
        done = start + latency
        self.busy_until = (start + self.interval) if self.interval else done
        self.requests += 1
        return done


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

    def _note(self, *keys):
        stats = self.stats
        for key in keys:
            stats[key] += 1

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

    def access_time(self, cu_index, now, addrs, mask, span):
        """Completion time of a vector global access starting at ``now``.

        ``span`` is the access's ``(active, lo, hi)`` lane footprint
        (``AccessInfo.span``): the coverage test reduces to one range
        check, falling back to the per-lane scan only for discontiguous
        residency.
        """
        active, lo, hi = span
        covered = self.params.prefetch_enabled and (
            active == 0
            or self.prefetch[cu_index].covers_range(lo, hi)
            or self.prefetch[cu_index].covers_all(addrs, mask))
        if covered:
            self._note("prefetch_hits")
            done = self._prefetch_ports[cu_index].issue(
                now, self.params.prefetch_hit_cycles)
            hit = True
        else:
            self._note("prefetch_misses", "relay_accesses")
            done = self.relay.issue(now, self.params.relay_cycles)
            hit = False
        if self.obs is not None:
            self.obs.emit_mem_access(MemAccess(
                cycle=now, cu_index=cu_index, space="global",
                kind="vector", hit=hit, completed=done))
        return done

    def scalar_access_time(self, cu_index, now, addr):
        """Completion time of a scalar (SMRD) read starting at ``now``."""
        if self.params.prefetch_enabled and self.prefetch[cu_index].covers(addr):
            self._note("prefetch_hits")
            done = self._prefetch_ports[cu_index].issue(
                now, self.params.prefetch_hit_cycles)
            hit = True
        else:
            self._note("prefetch_misses", "relay_accesses")
            done = self.relay.issue(now, self.params.relay_cycles)
            hit = False
        if self.obs is not None:
            self.obs.emit_mem_access(MemAccess(
                cycle=now, cu_index=cu_index, space="global",
                kind="scalar", hit=hit, completed=done))
        return done

    def lds_access_time(self, now, cu_index=0):
        """Completion time of an LDS access (always in-CU BRAM)."""
        self._note("lds_accesses")
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
