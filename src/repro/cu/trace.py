"""Execution tracing: per-instruction event capture for kernel debugging.

Attach an :class:`ExecutionTracer` to a device and every issued
instruction is recorded with its issue cycle, wavefront and executing
unit -- the software equivalent of watching MIAOW2.0's internal cycle
counter and per-stage activity on the FPGA (the paper's debugging
setup of Section 2.2.1, JTAG + memory-mapped state reads).

The tracer is one observer of the :mod:`repro.obs` event stream; it
can share a run with counter sets and trace exporters::

    from repro.cu.trace import ExecutionTracer
    from repro.exec import ExecutionRequest, execute

    tracer = ExecutionTracer()
    execute(ExecutionRequest(benchmark="matrix_add_i32",
                             observers=(tracer,)))
    print(tracer.render(limit=40))
    print(tracer.histogram())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..obs.observer import Observer


@dataclass(frozen=True)
class TraceEvent:
    """One issued instruction."""

    cycle: float
    cu_index: int
    wf_id: int
    address: int
    name: str
    unit: str

    def __str__(self):
        return "[{:>10.1f}] cu{} wf{} 0x{:04x} {:<6} {}".format(
            self.cycle, self.cu_index, self.wf_id, self.address,
            self.unit, self.name)


class ExecutionTracer(Observer):
    """Collects :class:`TraceEvent` records from compute units.

    Bounded: past ``max_events`` records, further instructions are
    counted in ``dropped`` instead of stored, so tracing a runaway
    kernel cannot exhaust memory.  ``render()`` reports the dropped
    tail.
    """

    def __init__(self, max_events=1_000_000):
        self.events: List[TraceEvent] = []
        self.max_events = max_events
        self.dropped = 0

    # -- observer hook -------------------------------------------------------

    def on_issue(self, event):
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(TraceEvent(
            cycle=event.cycle, cu_index=event.cu_index, wf_id=event.wf_id,
            address=event.address, name=event.name, unit=event.unit))

    def __len__(self):
        return len(self.events)

    def clear(self):
        self.events = []
        self.dropped = 0

    # -- views ---------------------------------------------------------------

    def for_wavefront(self, wf_id, cu_index=None):
        return [e for e in self.events
                if e.wf_id == wf_id
                and (cu_index is None or e.cu_index == cu_index)]

    def histogram(self):
        """Issue counts per mnemonic, most frequent first."""
        counts = {}
        for event in self.events:
            counts[event.name] = counts.get(event.name, 0) + 1
        return dict(sorted(counts.items(), key=lambda kv: -kv[1]))

    def unit_utilisation(self):
        """Issue counts per functional unit."""
        counts = {}
        for event in self.events:
            counts[event.unit] = counts.get(event.unit, 0) + 1
        return counts

    def render(self, limit=50):
        """The first ``limit`` events as a readable timeline."""
        shown = self.events[:limit]
        lines = [str(e) for e in shown]
        remaining = len(self.events) - len(shown) + self.dropped
        if remaining > 0:
            lines.append("... {} more events".format(remaining))
        return "\n".join(lines)
