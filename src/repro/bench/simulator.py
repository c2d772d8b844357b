"""Per-kernel simulator throughput benchmarks.

Each kernel is run end to end (prepare -> preload -> execute) through
the :mod:`repro.exec` layer -- warm-board leasing included, exactly
like production callers -- once per CU issue loop:

* ``reference``  -- the interpreter loop, which a launch runs whenever
  an observer is attached; timed with a no-op
  :class:`~repro.obs.Observer` attached, as every observed run is,
* ``superblock`` -- the compiled loop (every instruction issued from
  its prepared plan) that every unobserved run takes.

Reported per kernel: simulated instructions, simulated seconds
(deterministic -- a change here is a model change, not a perf
regression), wall-clock medians per loop, simulated-instructions-
per-second on the superblock loop, and the machine-independent
``speedup_superblock_vs_reference`` ratio CI enforces.

The payload also carries the ``cpi`` table: deterministic
cycles-per-instruction for each :data:`repro.kernels.cpi.CPI_SUITE`
class, compared *exactly* against the baseline -- a timing-model
tripwire, not a perf metric (see docs/benchmarking.md).
"""

from __future__ import annotations

from ..core.config import ArchConfig
from ..errors import ReproError
from ..exec import ExecutionRequest, Executor
from ..obs import Observer
from .harness import measure

#: Baseline file at the repo root (see docs/benchmarking.md).
SIMULATOR_BASELINE_FILE = "BENCH_simulator.json"

#: Default benchmarked kernels: the paper's Figure 6 evaluation core
#: plus a scan-heavy SDK kernel, spanning int/float ALU, LDS traffic,
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

#: The two fastest kernels of the suite -- the CI smoke set.
SMOKE_KERNELS = ("scan_large_arrays", "prefix_sum")

#: Benchmark problem sizes where they differ from the kernel's test
#: default.  The headline matrix multiply runs at n=32 so the simulated
#: work (not per-launch board setup, which both loops pay equally)
#: dominates the wall clock being compared.
BENCH_PARAMS = {
    "matrix_mul_i32": {"n": 32},
}


#: The benchmark's own executor: a private pool so bench timings are
#: not perturbed by (and do not perturb) other subsystems' warm boards.
_BENCH_EXECUTOR = Executor()


def _run_once(name, observed, verify=False):
    """One full benchmark run through the exec layer; returns the result.

    ``observed`` attaches a no-op observer, which runs the reference
    loop; otherwise the run takes the compiled loop.
    """
    return _BENCH_EXECUTOR.execute(ExecutionRequest(
        benchmark=name,
        params=BENCH_PARAMS.get(name, {}),
        arch=ArchConfig.baseline(),
        observers=(Observer(),) if observed else (),
        verify=verify,
    ))


#: Minimum wall-clock per timed sample.  Kernels cheaper than this are
#: batched (several full runs per sample, identical for both loops,
#: samples normalised back to per-run) so the speedup ratio is not
#: dominated by scheduler noise on millisecond runs.
TARGET_SAMPLE_S = 0.05


def bench_kernel(name, repeat=3, warmup=1):
    """Benchmark one kernel on both loops; returns a metrics dict."""
    import time

    from ..kernels import KERNELS

    if name not in KERNELS:
        raise ReproError("unknown benchmark kernel {!r}; available: {}"
                         .format(name, ", ".join(sorted(KERNELS))))

    # One verified run up front: a benchmark of wrong outputs is
    # meaningless.  Also records the deterministic simulation metrics.
    result = _run_once(name, observed=False, verify=True)
    instructions = result.instructions
    sim_seconds = result.seconds

    started = time.perf_counter()
    _run_once(name, observed=True)
    probe = time.perf_counter() - started
    inner = max(1, min(25, int(round(TARGET_SAMPLE_S / max(probe, 1e-6)))))

    def batched(observed):
        def run():
            for _ in range(inner):
                _run_once(name, observed)
        return run

    reference = measure(batched(True), repeat=repeat, warmup=warmup)
    superblock = measure(batched(False), repeat=repeat, warmup=warmup)
    for m in (reference, superblock):
        m.samples = [s / inner for s in m.samples]
        m.warmup_samples = [s / inner for s in m.warmup_samples]
    return {
        "inner_loops": inner,
        "instructions": instructions,
        "sim_seconds": sim_seconds,
        "wall_reference": reference.to_dict(),
        "wall_superblock": superblock.to_dict(),
        "wall_reference_s": reference.median,
        "wall_superblock_s": superblock.median,
        "inst_per_s_superblock": (instructions / superblock.median
                                  if superblock.median else 0.0),
        "speedup_superblock_vs_reference": (
            reference.median / superblock.median
            if superblock.median else 0.0),
    }


def cpi_table(log=None):
    """Deterministic cycles-per-instruction per CPI microbenchmark.

    Each :data:`repro.kernels.cpi.CPI_SUITE` kernel runs once,
    verified, on the superblock loop; the ratio of simulated CU
    cycles to executed instructions is exact and machine-independent,
    so the baseline comparison is equality, not a threshold.
    """
    log = log or (lambda message: None)
    from ..kernels.cpi import CPI_SUITE

    table = {}
    for cls in CPI_SUITE:
        log("cpi {} ...".format(cls.name))
        result = _run_once(cls.name, observed=False, verify=True)
        table[cls.name] = {
            "instructions": result.instructions,
            "cu_cycles": result.cu_cycles,
            "cpi": result.cu_cycles / result.instructions,
        }
    return table


def bench_simulator(kernels=None, repeat=3, warmup=1, log=None):
    """Benchmark a kernel set; returns the ``BENCH_simulator`` payload."""
    log = log or (lambda message: None)
    kernels = tuple(kernels or BENCH_KERNELS)
    entries = {}
    for name in kernels:
        log("bench {} ...".format(name))
        entries[name] = bench_kernel(name, repeat=repeat, warmup=warmup)
    payload = {
        "schema": 5,
        "repeat": repeat,
        "kernels": entries,
        "cpi": cpi_table(log=log),
    }
    # Totals are only comparable between runs of the same kernel set;
    # a subset run (--smoke, --kernels) omits them so a regression
    # check against a full-set baseline does not see a phantom drop.
    if set(kernels) == set(BENCH_KERNELS):
        payload["totals"] = _totals(entries)
    return payload


def _totals(entries):
    total_ref = sum(e["wall_reference_s"] for e in entries.values())
    total_sb = sum(e["wall_superblock_s"] for e in entries.values())
    total_inst = sum(e["instructions"] for e in entries.values())
    return {
        "instructions": total_inst,
        "wall_reference_s": total_ref,
        "wall_superblock_s": total_sb,
        "inst_per_s_superblock": total_inst / total_sb if total_sb else 0.0,
        "speedup_superblock_vs_reference": (total_ref / total_sb
                                            if total_sb else 0.0),
    }


def render_simulator(payload):
    """Human-readable table for one ``bench_simulator`` payload."""
    fmt = "{:<24} {:>12} {:>9} {:>9} {:>12} {:>8}"
    row = "{:<24} {:>12} {:>9.3f} {:>9.3f} {:>12.3e} {:>7.2f}x"
    lines = [fmt.format("kernel", "sim inst", "ref s", "sb s", "inst/s",
                        "speedup")]

    def _row(name, entry):
        return row.format(
            name, entry["instructions"], entry["wall_reference_s"],
            entry["wall_superblock_s"], entry["inst_per_s_superblock"],
            entry["speedup_superblock_vs_reference"])

    for name, entry in payload["kernels"].items():
        lines.append(_row(name, entry))
    totals = payload.get("totals") or _totals(payload["kernels"])
    lines.append(_row("TOTAL", totals))
    cpi = payload.get("cpi")
    if cpi:
        lines.append("")
        lines.append("{:<24} {:>12} {:>12} {:>8}".format(
            "cpi kernel", "sim inst", "cu cycles", "cpi"))
        for name, entry in cpi.items():
            lines.append("{:<24} {:>12} {:>12.1f} {:>8.3f}".format(
                name, entry["instructions"], entry["cu_cycles"],
                entry["cpi"]))
    return "\n".join(lines)
