"""The SCRATCH core-trimming tool (Algorithm 1, second step).

Given the required-instruction dictionary from the analyser, the
trimmer produces an application-specific architecture:

* functional units with no required instructions are removed outright
  (lines 13-19 -- their instantiation deleted and output signals
  grounded; here, the unit count drops to zero and the area model
  removes the block and its register-file ports),
* within surviving units, unsupported instructions are deleted from
  both the unit's second-stage decode and the main Decode unit
  (lines 20-28).

The result is a :class:`TrimResult`: the trimmed
:class:`~repro.core.config.ArchConfig`, its synthesis report, and the
resource savings relative to the untrimmed baseline -- the quantities
Figure 6's per-benchmark panels report.

Trimming never touches behaviour: the surviving set is exactly what
the binary can execute, so runtime is unchanged and the gains are all
area/power (Section 3.2).  The safety property (running a *different*
binary must fail loudly) is enforced by the compute-unit simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from ..errors import TrimError
from ..fpga.synthesis import Synthesizer, SynthesisReport
from ..isa.categories import FunctionalUnit
from ..isa.tables import ISA
from ..obs.serialize import SerializableMixin
from .analyzer import KernelRequirements, analyze_application, analyze_program
from .config import ArchConfig


@dataclass
class TrimResult(SerializableMixin):
    """Everything the trimming tool reports for one application."""

    requirements: KernelRequirements
    baseline: ArchConfig
    config: ArchConfig
    baseline_report: SynthesisReport
    report: SynthesisReport
    usage: Dict[FunctionalUnit, float] = field(default_factory=dict)

    @property
    def savings(self):
        """Fractional resource savings over the baseline (Figure 6)."""
        return self.report.savings_vs(self.baseline_report)

    @property
    def removed_units(self):
        out = []
        if self.config.num_simf == 0:
            out.append(FunctionalUnit.SIMF)
        if self.config.num_simd == 0:
            out.append(FunctionalUnit.SIMD)
        return out

    @property
    def instructions_kept(self):
        return len(self.config.supported)

    @property
    def instructions_removed(self):
        return len(ISA.implemented()) - self.instructions_kept

    def power_saving(self):
        """Fractional total-power reduction vs the baseline."""
        base = self.baseline_report.power.total
        return (base - self.report.power.total) / base

    def to_dict(self):
        """The trim report under the repo-wide serialization convention.

        This is what ``repro trim --json`` prints (the CLI adds the
        optional parallel-planning block on top).  Besides the derived
        summary, the payload carries the full constituent state --
        requirements, both configurations, both synthesis reports -- so
        :meth:`from_dict` rebuilds an equal :class:`TrimResult` (the
        lossless round trip the DSE result store relies on).
        """
        return {
            "kernels": list(self.requirements.kernels),
            "instructions_kept": self.instructions_kept,
            "instructions_removed": self.instructions_removed,
            "removed_units": [u.value for u in self.removed_units],
            "usage": {u.value: f for u, f in sorted(
                self.usage.items(), key=lambda kv: kv[0].value)},
            "savings": dict(self.savings),
            "power_w": {
                "baseline": self.baseline_report.power.total,
                "trimmed": self.report.power.total,
                "saving_fraction": self.power_saving(),
            },
            "requirements": self.requirements.to_dict(),
            "baseline_arch": self.baseline.to_dict(),
            "arch": self.config.to_dict(),
            "baseline_report": self.baseline_report.to_dict(),
            "report": self.report.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload):
        """Rebuild from a :meth:`to_dict` payload (derived summary keys
        are ignored and recomputed)."""
        return cls(
            requirements=KernelRequirements.from_dict(
                payload["requirements"]),
            baseline=ArchConfig.from_dict(payload["baseline_arch"]),
            config=ArchConfig.from_dict(payload["arch"]),
            baseline_report=SynthesisReport.from_dict(
                payload["baseline_report"]),
            report=SynthesisReport.from_dict(payload["report"]),
            usage={FunctionalUnit(unit): fraction
                   for unit, fraction in payload["usage"].items()},
        )

    def summary(self):
        lines = [
            "SCRATCH trim report for {}".format(
                ", ".join(self.requirements.kernels) or "<application>"),
            "  instructions: {} kept / {} removed (of {})".format(
                self.instructions_kept, self.instructions_removed,
                len(ISA.implemented())),
            "  removed units: {}".format(
                ", ".join(u.value for u in self.removed_units) or "none"),
        ]
        for unit, frac in sorted(self.usage.items(), key=lambda kv: kv[0].value):
            lines.append("  usage {:>5}: {:5.1%}".format(unit.value, frac))
        for res, frac in sorted(self.savings.items()):
            lines.append("  saved {:>5}: {:5.1%}".format(res, frac))
        lines.append("  power: {} -> {}".format(
            self.baseline_report.power, self.report.power))
        return "\n".join(lines)


class TrimmingTool:
    """The compile-time architecture specialisation tool (Figure 3)."""

    def __init__(self, synthesizer=None):
        self.synthesizer = synthesizer or Synthesizer()

    # -- Algorithm 1 -------------------------------------------------------

    def analyze(self, programs):
        """Step one: required instructions per functional unit."""
        if hasattr(programs, "instructions"):  # a single Program
            return analyze_program(programs)
        return analyze_application(programs)

    def trim(self, programs, baseline=None, datapath_bits=32):
        """Run both steps and synthesise the trimmed architecture.

        ``programs`` is one assembled kernel or an iterable of them (an
        application).  ``baseline`` defaults to the paper's DCD+PM
        configuration; the generation carries over, so one can also
        trim the original architecture for ablation studies.
        """
        baseline = baseline or ArchConfig.baseline()
        requirements = self.analyze(programs)
        supported = requirements.names
        if not supported:
            raise TrimError("application binary contains no instructions")

        uses_simd = requirements.uses_unit(FunctionalUnit.SIMD)
        uses_simf = requirements.uses_unit(FunctionalUnit.SIMF)
        if not (uses_simd or uses_simf):
            # A compute unit keeps at least one (integer) vector ALU:
            # the dispatcher's ID registers land in VGPRs.
            uses_simd = True
        config = replace(
            baseline,
            supported=frozenset(supported),
            num_simd=baseline.num_simd if uses_simd else 0,
            num_simf=baseline.num_simf if uses_simf else 0,
            datapath_bits=datapath_bits,
            label="{}+trim".format(baseline.label or baseline.generation.value),
        )
        baseline_report = self.synthesizer.synthesize(baseline)
        report = self.synthesizer.synthesize(config)
        return TrimResult(
            requirements=requirements,
            baseline=baseline,
            config=config,
            baseline_report=baseline_report,
            report=report,
            usage=requirements.usage_by_unit(),
        )
