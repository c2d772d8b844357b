"""``repro bench``: exact simulated tables and service/DSE counts.

The conformance suite (:mod:`repro.verify`) pins down *what* the
simulator computes, and perfbench measures how fast the host computes
it.  This package keeps three checked-in payloads at the repo root,
each of deterministic values only:

* ``BENCH_simulator.json`` -- simulated instructions and seconds per
  bench kernel, the per-class CPI table and the plan-coverage table;
* ``BENCH_service.json`` -- the cache and warm-board rates of a fixed
  job mix through a one-worker inline service, and the preemption
  count of a sliced round;
* ``BENCH_dse.json`` -- the DSE smoke sweep's points, frontier and
  store hit rate on resume.

``repro bench --check`` compares all three with
:func:`check_exact`.  See ``docs/benchmarking.md`` for the workflow.
"""

from .baselines import check_exact, load_baseline, write_baseline
from .dse import DSE_BASELINE_FILE, bench_dse
from .harness import percentile
from .service import SERVICE_BASELINE_FILE, bench_preemption, bench_service
from .simulator import (
    BENCH_KERNELS,
    SIMULATOR_BASELINE_FILE,
    bench_simulator,
    cpi_table,
)

__all__ = [
    "BENCH_KERNELS", "DSE_BASELINE_FILE", "SERVICE_BASELINE_FILE",
    "SIMULATOR_BASELINE_FILE", "bench_dse", "bench_preemption",
    "bench_service", "bench_simulator", "check_exact", "cpi_table",
    "load_baseline", "percentile", "write_baseline",
]
