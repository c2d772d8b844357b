"""``repro bench``: exact simulated tables and service/DSE benchmarks.

The conformance suite (:mod:`repro.verify`) pins down *what* the
simulator computes, and perfbench measures how fast the host computes
it.  This package keeps three checked-in payloads at the repo root:

* ``BENCH_simulator.json`` -- simulated instructions and seconds per
  bench kernel, plus the per-class CPI table, all compared exactly;
* ``BENCH_service.json`` -- service job throughput, latency
  percentiles, cache and warm-board rates, and the preemption
  scenario;
* ``BENCH_dse.json`` -- the DSE smoke sweep, cold and resumed.

See ``docs/benchmarking.md`` for the workflow.
"""

from .baselines import (
    REGRESSION_THRESHOLD,
    Regression,
    check_exact,
    compare_reports,
    load_baseline,
    write_baseline,
)
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
    "BENCH_KERNELS", "DSE_BASELINE_FILE", "REGRESSION_THRESHOLD",
    "Regression", "SERVICE_BASELINE_FILE", "SIMULATOR_BASELINE_FILE",
    "bench_dse", "bench_preemption", "bench_service", "bench_simulator",
    "check_exact", "compare_reports", "cpi_table", "load_baseline",
    "percentile", "write_baseline",
]
