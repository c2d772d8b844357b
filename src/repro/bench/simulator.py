"""The simulator half of ``repro bench``: an exact table of simulated
metrics.

How fast the host runs the simulator is perfbench's to measure (its
``eval_sim`` workload times the issue loop on the evaluation apps).
This module records only deterministic numbers:

* ``kernels`` -- for each :data:`BENCH_KERNELS` entry, one verified,
  unobserved run through the :mod:`repro.exec` layer gives the
  simulated ``instructions`` and ``sim_seconds``;
* ``cpi`` -- cycles-per-instruction for each
  :data:`repro.kernels.cpi.CPI_SUITE` class;
* ``coverage`` -- for each :data:`BENCH_KERNELS` entry, the static
  coverage of its programs' prepared plans: how many plans, ALU plans
  with an emitted or a generic executor, memory plans and emitted
  memory plans.

Every field is compared *exactly* against the checked-in baseline
(:func:`repro.bench.baselines.check_exact`) -- a timing-model
tripwire, not a perf metric (see docs/benchmarking.md).
"""

from __future__ import annotations

from ..core.config import ArchConfig
from ..cu.prepared import KIND_ALU, KIND_MEMORY, get_prepared
from ..exec import ExecutionRequest, Executor
from ..kernels import KERNELS

#: Baseline file at the repo root (see docs/benchmarking.md).
SIMULATOR_BASELINE_FILE = "BENCH_simulator.json"

#: The benchmarked kernels: the paper's Figure 6 evaluation core plus
#: a scan-heavy SDK kernel, spanning int/float ALU, LDS traffic,
#: barriers and both memory footprint extremes.
BENCH_KERNELS = (
    "matrix_mul_i32",
    "matrix_add_i32",
    "matrix_transpose_i32",
    "conv2d_i32",
    "bitonic_sort_i32",
    "kmeans_f32",
    "cnn_i32",
    "scan_large_arrays",
    "prefix_sum",
)

#: Problem sizes where they differ from the kernel's test default.
#: The checked-in table was recorded at these sizes, so changing one
#: moves its kernel's row.
BENCH_PARAMS = {
    "matrix_mul_i32": {"n": 32},
}


#: The benchmark's own executor: a private pool so the table's runs
#: neither use nor disturb other subsystems' warm boards.
_BENCH_EXECUTOR = Executor()


def _run(name, params=None):
    """One verified, unobserved run through the exec layer."""
    return _BENCH_EXECUTOR.execute(ExecutionRequest(
        benchmark=name,
        params=params or {},
        arch=ArchConfig.baseline(),
        verify=True,
    ))


def cpi_table(log=None):
    """Deterministic cycles-per-instruction per CPI microbenchmark.

    Each :data:`repro.kernels.cpi.CPI_SUITE` kernel runs once,
    verified; the ratio of simulated CU cycles to executed
    instructions is exact and machine-independent.
    """
    log = log or (lambda message: None)
    from ..kernels.cpi import CPI_SUITE

    table = {}
    for cls in CPI_SUITE:
        log("cpi {} ...".format(cls.name))
        result = _run(cls.name)
        table[cls.name] = {
            "instructions": result.instructions,
            "cu_cycles": result.cu_cycles,
            "cpi": result.cu_cycles / result.instructions,
        }
    return table


def plan_coverage(name, params=None):
    """Static plan coverage of one benchmark's programs."""
    row = dict.fromkeys(("plans", "alu_emitted", "alu_generic", "memory",
                         "memory_emitted"), 0)
    for program in KERNELS[name](**(params or {})).programs():
        for plan in get_prepared(program).plans:
            row["plans"] += 1
            if plan.kind == KIND_ALU:
                row["alu_emitted" if plan.specialized else "alu_generic"] += 1
            elif plan.kind == KIND_MEMORY:
                row["memory"] += 1
                row["memory_emitted"] += plan.specialized
    return row


def bench_simulator(log=None):
    """The ``BENCH_simulator`` payload: the exact kernel, CPI and plan
    coverage tables."""
    log = log or (lambda message: None)
    kernels = {}
    coverage = {}
    for name in BENCH_KERNELS:
        log("bench {} ...".format(name))
        result = _run(name, BENCH_PARAMS.get(name))
        kernels[name] = {
            "instructions": result.instructions,
            "sim_seconds": result.seconds,
        }
        coverage[name] = plan_coverage(name, BENCH_PARAMS.get(name))
    return {"schema": 7, "kernels": kernels, "cpi": cpi_table(log=log),
            "coverage": coverage}


def render_simulator(payload):
    """Human-readable tables for one ``bench_simulator`` payload."""
    lines = ["{:<24} {:>12} {:>12}".format("kernel", "sim inst", "sim s")]
    for name, entry in payload["kernels"].items():
        lines.append("{:<24} {:>12} {:>12.6g}".format(
            name, entry["instructions"], entry["sim_seconds"]))
    lines.append("")
    lines.append("{:<24} {:>12} {:>12} {:>8}".format(
        "cpi kernel", "sim inst", "cu cycles", "cpi"))
    for name, entry in payload["cpi"].items():
        lines.append("{:<24} {:>12} {:>12.1f} {:>8.3f}".format(
            name, entry["instructions"], entry["cu_cycles"], entry["cpi"]))
    lines.append("")
    lines.append("{:<24} {:>6} {:>11} {:>11} {:>14}".format(
        "plan coverage", "plans", "alu emitted", "alu generic",
        "memory emitted"))
    for name, row in payload["coverage"].items():
        lines.append("{:<24} {:>6} {:>11} {:>11} {:>14}".format(
            name, row["plans"], row["alu_emitted"], row["alu_generic"],
            "{}/{}".format(row["memory_emitted"], row["memory"])))
    return "\n".join(lines)
