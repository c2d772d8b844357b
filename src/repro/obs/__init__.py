"""repro.obs: the unified observability subsystem.

Three pieces, one event stream:

* **Counters** -- :class:`PerfCounters` fills a hierarchical
  :class:`CounterSet` with stall-attributed cycle accounting, per-unit
  issue histograms, prefetch hit/miss, LDS traffic and occupancy.
* **Traces** -- :class:`~repro.cu.trace.ExecutionTracer` records
  per-instruction events; :class:`ChromeTrace` exports the whole run
  (spans + instructions + stalls) as Chrome trace-event JSON for
  chrome://tracing / Perfetto.
* **Surface** -- ``repro profile <kernel>`` (see
  :func:`profile_kernel`), and one ``to_dict()``/``to_json()``
  serialization convention (:mod:`repro.obs.serialize`) shared by
  every result object the toolchain emits.

Observation is requested through the execution layer -- the executor
attaches counters/trace for the run and detaches them before the board
returns to the pool::

    from repro.exec import ExecutionRequest, execute

    result = execute(ExecutionRequest(benchmark="matrix_add_i32",
                                      profile=True, trace=True))
    print(result.counters.render())
    result.trace.write("out.json")

(Custom observers go in ``ExecutionRequest(observers=(...,))``; the
low-level ``device.attach``/``device.detach`` API remains for code
that owns a raw board.)

With no observer attached, every hook point in the simulator is a
single ``if obs is not None`` guard -- the instrumentation is free
when unused (pinned by ``benchmarks/test_obs_overhead.py``).
"""

from .chrome_trace import ChromeTrace, validate_chrome_trace
from .counters import CounterSet, PerfCounters
from .events import (STALL_CAUSES, InstructionIssue, MemAccess, Span, Stall,
                     WavefrontStep)
from .observer import Observer, ObserverHub
from .serialize import (SerializableMixin, dump_json, flatten, json_ready,
                        nest)

# The profiler pulls in the runtime/core layers, which themselves
# import repro.obs for the event types -- load it lazily so importing
# any instrumented layer never recurses back through this package.
_LAZY = {"ProfileResult", "profile_kernel"}


def __getattr__(name):
    if name in _LAZY:
        from . import profiler

        return getattr(profiler, name)
    raise AttributeError("module {!r} has no attribute {!r}".format(
        __name__, name))

__all__ = [
    "Observer", "ObserverHub",
    "CounterSet", "PerfCounters",
    "ChromeTrace", "validate_chrome_trace",
    "InstructionIssue", "Stall", "MemAccess", "Span", "WavefrontStep",
    "STALL_CAUSES",
    "ProfileResult", "profile_kernel",
    "SerializableMixin", "dump_json", "json_ready", "nest", "flatten",
]
