"""The ``repro profile`` engine: one profiled run, fully accounted.

Runs a benchmark from the suite on one architecture configuration
with ``profile=True`` -- the :class:`PerfCounters` taxonomy built from
the run's aggregates -- plus a :class:`ChromeTrace` observer when a
trace is requested (the counters come out identical either way).  The
result is packaged behind the repo-wide serialization convention, so
``repro profile <kernel> --json`` emits the same shape of payload as
``run --json`` and ``serve --json``.
"""

from __future__ import annotations

from ..core.flow import ScratchFlow
from ..errors import LaunchError
from .events import STALL_CAUSES
from .serialize import SerializableMixin


class ProfileResult(SerializableMixin):
    """Everything one profiled run produced.

    A thin view over the :class:`~repro.exec.ExecutionResult` envelope
    that keeps the ``repro profile`` payload shape stable.
    """

    def __init__(self, benchmark, config, result):
        self.benchmark = benchmark
        self.config = config
        self.result = result

    @property
    def metrics(self):
        return self.result.metrics

    @property
    def perf(self):
        return self.result.counters

    @property
    def trace(self):
        return self.result.trace

    @property
    def counters(self):
        return self.perf.counters

    def to_dict(self):
        return {
            "benchmark": self.benchmark,
            "config": self.config,
            "metrics": self.metrics.to_dict(),
            "counters": self.perf.to_dict(),
            "memory_stats": dict(self.result.memory_stats),
        }

    def render(self):
        """The human-readable profile table."""
        c = self.counters
        derived = self.perf.derived()
        total = c.get("cycles.total")
        lines = [
            "profile: {} on {}".format(self.benchmark,
                                       self.result.arch.describe()),
            "",
            "  {:<26} {:>14.6f}".format("simulated seconds",
                                        self.metrics.seconds),
            "  {:<26} {:>14}".format("instructions",
                                     self.metrics.instructions),
            "  {:<26} {:>14.1f}".format("board cycles (timeline)",
                                        self.result.cu_cycles),
            "",
            "cycle attribution ({:.1f} workgroup-execution cycles)"
            .format(total),
        ]

        def frac(v):
            return v / total if total else 0.0

        lines.append("  {:<26} {:>14.1f}  {:>6.1%}".format(
            "issue-active", c.get("cycles.active"),
            frac(c.get("cycles.active"))))
        for cause in STALL_CAUSES:
            cycles = c.get("stall." + cause)
            lines.append("  {:<26} {:>14.1f}  {:>6.1%}".format(
                "stall: " + cause, cycles, frac(cycles)))
        lines.append("")
        lines.append("issue mix ({} instructions issued)".format(
            c.get("issue.total")))
        for unit, count in sorted(c.group("issue.unit").items(),
                                  key=lambda kv: -kv[1]):
            lines.append("  {:<26} {:>14}  {:>6.1%}".format(
                unit, count,
                count / c.get("issue.total") if c.get("issue.total") else 0))
        lines.append("")
        lines.append("memory")
        lines.append("  {:<26} {:>14}".format("prefetch hits",
                                              c.get("mem.global.hits")))
        lines.append("  {:<26} {:>14}".format("prefetch misses",
                                              c.get("mem.global.misses")))
        lines.append("  {:<26} {:>13.1%}".format(
            "prefetch hit rate", derived["prefetch_hit_rate"]))
        lines.append("  {:<26} {:>14}".format("lds accesses",
                                              c.get("mem.lds.accesses")))
        lines.append("")
        lines.append("occupancy")
        lines.append("  {:<26} {:>14}".format(
            "workgroups", c.get("occupancy.workgroups")))
        lines.append("  {:<26} {:>14}".format(
            "wavefronts", c.get("occupancy.wavefronts")))
        lines.append("  {:<26} {:>14.2f}".format(
            "avg wavefronts/group",
            derived["avg_wavefronts_per_workgroup"]))
        if self.trace is not None:
            lines.append("")
            lines.append("trace: {} events recorded".format(len(self.trace)))
        return "\n".join(lines)


def profile_kernel(benchmark_name, params=None, config="baseline",
                   max_groups=None, verify=True, trace=False):
    """Run one benchmark with full accounting; returns ProfileResult.

    ``trace=True`` additionally records a Chrome trace (see
    :meth:`ProfileResult.trace` / :meth:`ChromeTrace.write`).
    """
    from ..exec import BenchmarkWorkload, ExecutionRequest, execute
    from ..kernels import KERNELS

    if benchmark_name not in KERNELS:
        raise LaunchError(
            "unknown benchmark {!r}; available: {}".format(
                benchmark_name, ", ".join(sorted(KERNELS))))
    bench = KERNELS[benchmark_name](**(params or {}))
    flow = ScratchFlow(bench)
    arch = flow.arch(config)
    result = execute(ExecutionRequest(
        workload=BenchmarkWorkload(instance=bench),
        arch=arch,
        max_groups=max_groups,
        verify=verify,
        profile=True,
        trace=trace,
        report=flow.synthesizer.synthesize(arch),
        label="{}@{}".format(bench.name, arch.describe()),
    ))
    return ProfileResult(benchmark=benchmark_name, config=config,
                         result=result)
