"""OBSERVABILITY -- what instrumentation costs, and that "off" is free.

The ``repro.obs`` hook points are single ``if obs is not None``
guards, so an unobserved run must do no event construction and no
dispatch at all (``hub.dispatched == 0`` proves it structurally; the
wall-clock comparison below bounds it empirically).  Attaching
observers is allowed to cost -- this module reports how much, for the
standard combinations:

* none (the production path),
* PerfCounters (counter aggregation only),
* PerfCounters + ChromeTrace (full slice capture).

Rows land in ``benchmarks/out/obs_overhead.json``.  Set
``REPRO_OBS_SMOKE=1`` (the CI smoke mode) to run one repetition of a
smaller kernel instead of the full measurement; the smoke run checks
the same assertions but writes no row.
"""

import os
import time

from repro.core.config import ArchConfig
from repro.kernels import MatrixAddI32
from repro.obs import ChromeTrace, PerfCounters
from repro.runtime import SoftGpu

from conftest import write_json

SMOKE = bool(os.environ.get("REPRO_OBS_SMOKE"))
N = 32 if SMOKE else 64
REPEATS = 1 if SMOKE else 5


def timed_run(observers=()):
    """One full benchmark run; returns (wall seconds, dispatched)."""
    device = SoftGpu(ArchConfig.baseline())
    for observer in observers:
        device.attach(observer())
    start = time.perf_counter()
    MatrixAddI32(n=N).run_on(device, verify=False)
    wall = time.perf_counter() - start
    return wall, device.gpu.hub.dispatched


def best_of(observers=()):
    return min(timed_run(observers) for _ in range(REPEATS))


def test_disabled_observers_cost_nothing(benchmark, out_dir):
    def measure():
        timed_run()  # warm-up: imports, allocator, numpy caches
        disabled, dispatched_off = best_of()
        counters, _ = best_of((PerfCounters,))
        full, dispatched_full = best_of((PerfCounters, ChromeTrace))
        return {
            "kernel": "matrix_add_i32(n={})".format(N),
            "repeats": REPEATS,
            "disabled_s": disabled,
            "counters_s": counters,
            "counters_and_trace_s": full,
            "counters_overhead": counters / disabled - 1.0,
            "trace_overhead": full / disabled - 1.0,
            "dispatched_disabled": dispatched_off,
            "dispatched_full": dispatched_full,
        }

    row = benchmark.pedantic(measure, rounds=1, iterations=1)
    if not SMOKE:
        write_json(out_dir, "obs_overhead.json", row)

    # Structural guarantee: no observer, no dispatch -- ever.
    assert row["dispatched_disabled"] == 0
    assert row["dispatched_full"] > 0
    # Empirical sanity: the unobserved run is never slower than the
    # fully observed one (generous slack: both are noisy wall-clock).
    assert row["disabled_s"] <= row["counters_and_trace_s"] * 1.25

    print("\n{:>24} {:>12} {:>10}".format("mode", "seconds", "overhead"))
    print("{:>24} {:>12.4f} {:>10}".format(
        "disabled", row["disabled_s"], "--"))
    print("{:>24} {:>12.4f} {:>9.1%}".format(
        "counters", row["counters_s"], row["counters_overhead"]))
    print("{:>24} {:>12.4f} {:>9.1%}".format(
        "counters+trace", row["counters_and_trace_s"],
        row["trace_overhead"]))
