"""Wall-clock performance-regression harness behind ``repro bench``.

The conformance suite (:mod:`repro.verify`) pins down *what* the
simulator computes; this package pins down *how fast* the host computes
it.  It measures three things:

* simulated-instructions-per-second per kernel, for the reference
  interpreter (timed observed) and the compiled (superblock) loop,
* end-to-end launch makespan (wall clock per full benchmark run),
* service job throughput and latency percentiles.

Results are written to machine-readable baseline files at the repo
root (``BENCH_simulator.json`` / ``BENCH_service.json``) and compared
against the checked-in baselines with a regression threshold, so a
change that quietly makes the simulator 20% slower fails CI the same
way a wrong cycle count would.

See ``docs/benchmarking.md`` for the workflow.
"""

from .baselines import (
    REGRESSION_THRESHOLD,
    Regression,
    check_cpi,
    compare_reports,
    load_baseline,
    write_baseline,
)
from .dse import DSE_BASELINE_FILE, bench_dse
from .harness import Measurement, measure, percentile
from .service import SERVICE_BASELINE_FILE, bench_preemption, bench_service
from .simulator import (
    BENCH_KERNELS,
    SIMULATOR_BASELINE_FILE,
    SMOKE_KERNELS,
    bench_kernel,
    bench_simulator,
    cpi_table,
)

__all__ = [
    "BENCH_KERNELS", "DSE_BASELINE_FILE", "Measurement",
    "REGRESSION_THRESHOLD", "Regression", "SERVICE_BASELINE_FILE",
    "SIMULATOR_BASELINE_FILE", "SMOKE_KERNELS", "bench_dse",
    "bench_kernel", "bench_preemption", "bench_service", "bench_simulator",
    "check_cpi", "compare_reports", "cpi_table",
    "load_baseline", "measure", "percentile", "write_baseline",
]
