"""ScratchFlow: the end-to-end SCRATCH pipeline (Figure 3).

One object that walks an application through the whole toolchain:

1. **compile** -- the benchmark's kernels are assembled to Southern
   Islands binaries (our stand-in for AMD CodeXL),
2. **analyse** -- Algorithm 1 step one builds the per-functional-unit
   required-instruction dictionary,
3. **trim** -- Algorithm 1 step two prunes the architecture; the
   synthesis model prices the result (our stand-in for Vivado),
4. **re-invest** -- the parallelism planner grows CUs or VALUs into
   the freed area,
5. **run** -- the benchmark executes on the simulated board and the
   metrics layer reports time, power, energy and instructions/Joule.

Example::

    flow = ScratchFlow(MatrixAddI32(n=64))
    result = flow.trim()                      # TrimResult
    arch = flow.plan("multicore")             # e.g. 3 CUs
    metrics = flow.run(arch)                  # RunMetrics
    base = flow.run(ArchConfig.original())
    print(metrics.speedup_vs(base))
"""

from __future__ import annotations

from ..errors import TrimError
from ..exec import BenchmarkWorkload, ExecutionRequest, execute
from ..fpga.resources import XC7VX690T
from ..fpga.synthesis import Synthesizer
from ..runtime.metrics import RunMetrics
from .config import ARCH_LABELS, FIXED_LABELS, ArchConfig
from .parallelize import plan as plan_parallelism
from .trimmer import TrimmingTool, TrimResult


class ScratchFlow:
    """Drives one benchmark through compile/trim/plan/run."""

    def __init__(self, benchmark, baseline=None, device=XC7VX690T,
                 max_groups=None):
        self.benchmark = benchmark
        self.baseline = baseline or ArchConfig.baseline()
        self.device = device
        self.synthesizer = Synthesizer(device=device)
        self.tool = TrimmingTool(synthesizer=self.synthesizer)
        self.max_groups = max_groups
        self._trim_result = None

    # -- pipeline steps ------------------------------------------------------

    @property
    def programs(self):
        """The application's assembled kernels (the CodeXL step)."""
        return self.benchmark.programs()

    def trim(self) -> TrimResult:
        """Analyse + trim (cached -- the result is deterministic)."""
        if self._trim_result is None:
            self._trim_result = self.tool.trim(
                self.programs, baseline=self.baseline,
                datapath_bits=self.benchmark.datapath_bits)
        return self._trim_result

    def plan(self, mode) -> ArchConfig:
        """Re-invest freed area: ``"multicore"`` or ``"multithread"``."""
        return plan_parallelism(self.trim().config, mode,
                                synthesizer=self.synthesizer,
                                device=self.device)

    def arch(self, label) -> ArchConfig:
        """The architecture one of the six :data:`ARCH_LABELS` names
        for this application.

        ``baseline`` is the flow's own baseline (the one it trims
        against), the other fixed generations come from
        :meth:`ArchConfig.named`, and ``trimmed``, ``multicore`` and
        ``multithread`` run the trim and re-investment steps.
        """
        if label not in ARCH_LABELS:
            raise TrimError(
                "unknown architecture label {!r}; expected one of {}".format(
                    label, ", ".join(ARCH_LABELS)))
        if label == "baseline":
            return self.baseline
        if label in FIXED_LABELS:
            return ArchConfig.named(label)
        if label == "trimmed":
            return self.trim().config
        return self.plan(label)

    # -- execution -------------------------------------------------------------

    def run(self, arch=None, verify=True, max_groups=None) -> RunMetrics:
        """Execute the benchmark on ``arch`` and measure it.

        ``arch=None`` runs the (trimmed, single-CU) architecture.  The
        synthesis report of the architecture supplies the power figures
        for the energy metrics.  Execution goes through the shared
        :mod:`repro.exec` layer, so repeated runs of one configuration
        (CLI ``--repeat``, the Figure 7 sweeps) reuse warm boards.
        """
        arch = arch or self.trim().config
        report = self.synthesizer.synthesize(arch)
        request = ExecutionRequest(
            workload=BenchmarkWorkload(instance=self.benchmark),
            arch=arch,
            verify=verify,
            max_groups=(max_groups if max_groups is not None
                        else self.max_groups),
            report=report,
            label="{}@{}".format(self.benchmark.name, arch.describe()),
        )
        return execute(request).metrics

    def evaluate(self, modes=("multicore", "multithread"), verify=True,
                 max_groups=None):
        """Run the full Figure 7 comparison set for this benchmark.

        Returns ``{label: RunMetrics}`` for original, dcd, baseline,
        trimmed, and each requested parallelism mode.
        """
        labels = FIXED_LABELS + ("trimmed",) + tuple(modes)
        return {label: self.run(self.arch(label), verify, max_groups)
                for label in labels}

    @staticmethod
    def for_kernel(benchmark_cls, **params):
        """Convenience: build a flow from a benchmark class."""
        return ScratchFlow(benchmark_cls(**params))
