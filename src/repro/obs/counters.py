"""Hierarchical performance counters with stall attribution.

:class:`CounterSet` is a cheap bag of dotted-path counters
(``"issue.unit.simd"``, ``"stall.memory"``); :class:`PerfCounters` is
the observer that fills one from the board's event stream.  Together
they are the software version of the per-unit activity counters the
paper reads off the FPGA (Section 2.2.1) and the per-stage
occupancy/throughput counters the scalable soft-GPGPU literature uses
to justify scaling decisions.

The taxonomy (all cycle figures in CU-domain cycles):

==============================  =========================================
``issue.total``                 instructions issued
``issue.unit.<unit>``           issues per functional unit (salu, simd,
                                simf, lsu, branch)
``cycles.total``                summed workgroup-execution cycles
``cycles.active``               front-end busy cycles (fetch/decode/issue)
``stall.<cause>``               front-end idle cycles by cause
                                (operand-dep, fu-busy, memory, barrier,
                                drain)
``mem.global.hits``             global accesses served by the prefetch
                                buffer
``mem.global.misses``           global accesses that fell back to the
                                MicroBlaze relay
``mem.lds.accesses``            LDS (in-CU BRAM) accesses
``occupancy.wavefronts``        wavefronts executed
``occupancy.workgroups``        workgroups executed
``occupancy.peak_wavefronts``   largest single-workgroup wavefront count
``span.<kind>.count/cycles``    kernel / host_phase / preload spans
==============================  =========================================

**Accounting invariant** (pinned by the tier-1 micro-kernel test): for
every workgroup, ``cycles.active`` plus the sum of every
``stall.<cause>`` equals ``cycles.total`` -- each front-end cycle of
each workgroup execution is attributed exactly once.  Likewise
``mem.global.hits + mem.global.misses`` equals the total number of
global-memory transactions issued to the memory system.

Two sources fill the same taxonomy.  :class:`PerfCounters` attached as
an observer counts the event stream; :func:`aggregate_counters` builds
it from the run aggregates the issue loop keeps anyway, observed or
not (:class:`~repro.cu.pipeline.CuRunStats`, the board's span
intervals and memory counters), which is how ``profile=True`` counts
without an observer.  The ``counters``
fuzz oracle holds the two equal, exactly: board times are multiples of
a quarter cycle far below 2**50, so every sum is exact in any order,
and the only differences (span lengths) use the same ``end - start``.
"""

from __future__ import annotations

from .events import STALL_CAUSES
from .observer import Observer
from .serialize import SerializableMixin, flatten, nest


#: Counters that record a maximum, not a count.
PEAK_COUNTERS = frozenset({"occupancy.peak_wavefronts"})


class CounterSet(SerializableMixin):
    """A mapping of dotted counter paths to numeric values.

    Hierarchy is by naming convention: ``add("stall.memory", 3)`` and
    the ``to_dict()`` rendering groups everything under ``stall``.
    """

    def __init__(self, values=None):
        self._values = dict(values or {})

    # -- recording ---------------------------------------------------------

    def add(self, path, amount=1):
        """Increment one counter (creating it at zero)."""
        self._values[path] = self._values.get(path, 0) + amount

    def merge(self, other):
        """Accumulate another counter set into this one.

        Every counter sums except the high-water marks
        (:data:`PEAK_COUNTERS`), which take the larger value -- so the
        merge of two windows' counters is the counters of both.
        """
        for path, value in other.items():
            if path in PEAK_COUNTERS:
                self._values[path] = max(self._values.get(path, value), value)
            else:
                self.add(path, value)
        return self

    # -- access ------------------------------------------------------------

    def get(self, path, default=0):
        return self._values.get(path, default)

    def __getitem__(self, path):
        return self._values[path]

    def __contains__(self, path):
        return path in self._values

    def __len__(self):
        return len(self._values)

    def __eq__(self, other):
        if not isinstance(other, CounterSet):
            return NotImplemented
        return self._values == other._values

    def items(self):
        return self._values.items()

    def group(self, prefix):
        """All counters under ``prefix.``, keyed by their remainder."""
        start = prefix + "."
        return {path[len(start):]: value
                for path, value in self._values.items()
                if path.startswith(start)}

    def total(self, prefix):
        """Sum of every counter under ``prefix.``."""
        return sum(self.group(prefix).values())

    def clear(self):
        self._values.clear()

    # -- serialization (repo-wide convention) ------------------------------

    def to_dict(self):
        return nest(self._values)

    @classmethod
    def from_dict(cls, tree):
        """Rebuild from a ``to_dict()`` payload (round-trip safe)."""
        return cls(flatten(tree))

    def render(self, indent=""):
        lines = []
        for path in sorted(self._values):
            value = self._values[path]
            text = ("{:.1f}".format(value) if isinstance(value, float)
                    else str(value))
            lines.append("{}{:<28} {:>14}".format(indent, path, text))
        return "\n".join(lines)

    def __repr__(self):
        return "CounterSet({} counters)".format(len(self._values))


def aggregate_counters(stats, spans, memory):
    """The counter taxonomy from run aggregates, with no observer.

    ``stats`` is a merged :class:`~repro.cu.pipeline.CuRunStats` of
    every workgroup run in the window, ``spans`` the window's
    ``(kind, start, end)`` kernel / host-phase / preload intervals in
    emission order, and ``memory`` the window's increments of the
    memory system's ``prefetch_hits`` / ``prefetch_misses`` /
    ``lds_accesses``.  Returns the :class:`CounterSet` an attached
    :class:`PerfCounters` would hold -- the same keys (a counter the
    event stream never touches is absent, not zero) and the same
    values.
    """
    c = CounterSet()
    if stats.instructions:
        c.add("issue.total", stats.instructions)
        for unit, count in stats.per_unit.items():
            c.add("issue.unit." + unit, count)
        c.add("cycles.active", stats.active_cycles)
    for cause, cycles in stats.stalls.items():
        c.add("stall." + cause, cycles)
    if stats.workgroups:
        c.add("cycles.total", stats.cycles)
        c.add("occupancy.wavefronts", stats.wavefronts)
        c.add("occupancy.workgroups", stats.workgroups)
        if stats.peak_wavefronts:
            c.add("occupancy.peak_wavefronts", stats.peak_wavefronts)
        for cu_index, cycles in stats.cu_cycles.items():
            c.add("cu.{}.cycles".format(cu_index), cycles)
            c.add("cu.{}.workgroups".format(cu_index),
                  stats.cu_workgroups[cu_index])
    for path, key in (("mem.global.hits", "prefetch_hits"),
                      ("mem.global.misses", "prefetch_misses"),
                      ("mem.lds.accesses", "lds_accesses")):
        if memory.get(key):
            c.add(path, memory[key])
    for kind, start, end in spans:
        c.add("span.{}.count".format(kind))
        c.add("span.{}.cycles".format(kind), end - start)
    return c


class PerfCounters(Observer):
    """The standard counter-collecting observer.

    Attach to a device, run, detach; ``counters`` then holds the full
    taxonomy and :meth:`derived` the ratios (prefetch hit rate, IPC,
    stall fractions) computed *from* the counters -- never recorded
    separately, so they cannot drift from the raw numbers.  Passing a
    filled ``counters`` set (from :func:`aggregate_counters`) gives the
    same view of an unobserved run.
    """

    def __init__(self, counters=None):
        self.counters = counters if counters is not None else CounterSet()

    # -- event hooks -------------------------------------------------------

    def on_issue(self, event):
        c = self.counters
        c.add("issue.total")
        c.add("issue.unit." + event.unit)
        c.add("cycles.active", event.frontend_cycles)

    def on_stall(self, event):
        self.counters.add("stall." + event.cause, event.cycles)

    def on_mem_access(self, event):
        c = self.counters
        if event.space == "lds":
            c.add("mem.lds.accesses")
        elif event.hit:
            c.add("mem.global.hits")
        else:
            c.add("mem.global.misses")

    def on_span(self, event):
        c = self.counters
        if event.kind == "workgroup":
            c.add("cycles.total", event.cycles)
            meta = event.meta_dict()
            wavefronts = meta.get("wavefronts", 0)
            c.add("occupancy.wavefronts", wavefronts)
            c.add("occupancy.workgroups")
            peak = c.get("occupancy.peak_wavefronts")
            if wavefronts > peak:
                c._values["occupancy.peak_wavefronts"] = wavefronts
            if event.cu_index is not None:
                c.add("cu.{}.cycles".format(event.cu_index), event.cycles)
                c.add("cu.{}.workgroups".format(event.cu_index))
        else:
            c.add("span.{}.count".format(event.kind))
            c.add("span.{}.cycles".format(event.kind), event.cycles)

    # -- derived quantities ------------------------------------------------

    def derived(self):
        """Ratio metrics computed from the raw counters."""
        c = self.counters
        hits = c.get("mem.global.hits")
        misses = c.get("mem.global.misses")
        total_cycles = c.get("cycles.total")
        active = c.get("cycles.active")
        stalls = {cause: c.get("stall." + cause) for cause in STALL_CAUSES}
        stall_total = sum(stalls.values())
        out = {
            "prefetch_hit_rate": (hits / (hits + misses)
                                  if hits + misses else 0.0),
            "issue_ipc": (c.get("issue.total") / total_cycles
                          if total_cycles else 0.0),
            "active_fraction": active / total_cycles if total_cycles else 0.0,
            "stall_fraction": (stall_total / total_cycles
                               if total_cycles else 0.0),
            "avg_wavefronts_per_workgroup": (
                c.get("occupancy.wavefronts")
                / c.get("occupancy.workgroups")
                if c.get("occupancy.workgroups") else 0.0),
        }
        for cause, cycles in stalls.items():
            out["stall_fraction_" + cause.replace("-", "_")] = (
                cycles / total_cycles if total_cycles else 0.0)
        return out

    def to_dict(self):
        payload = self.counters.to_dict()
        payload["derived"] = self.derived()
        return payload

    def render(self):
        lines = ["performance counters", self.counters.render(indent="  ")]
        lines.append("derived")
        for key, value in sorted(self.derived().items()):
            lines.append("  {:<28} {:>13.1%}".format(key, value)
                         if "fraction" in key or "rate" in key
                         else "  {:<28} {:>14.2f}".format(key, value))
        return "\n".join(lines)
