"""Kernel requirements identification (Algorithm 1, first step).

This is the paper's lines 2-11: walk the application's binary, decode
every instruction (``miaow.decode(line)``), and build the dictionary
of required instructions per functional unit.  The analysis is static
-- it runs at compile time on the binary alone, before anything
executes -- which is what lets SCRATCH emit a trimmed architecture
without profiling hardware.

A *dynamic* analysis (instruction execution counts, via the simulator)
also lives here because Figure 4's characterisation and Figure 6's
instruction-usage panels are built from executed-instruction
statistics; the trimming decision itself uses only the static set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set

from ..isa.categories import FunctionalUnit
from ..isa.tables import ISA


@dataclass
class KernelRequirements:
    """The required-instruction dictionary of Algorithm 1.

    ``per_unit`` maps each functional unit to the set of instruction
    mnemonics the analysed binaries need from it; ``names`` is the flat
    union.  Requirements from several kernels merge with ``|=`` --
    per-application trimming (Section 4.3) is the union over the
    application's kernels.
    """

    per_unit: Dict[FunctionalUnit, Set[str]] = field(default_factory=dict)
    kernels: List[str] = field(default_factory=list)

    @property
    def names(self) -> FrozenSet[str]:
        out = set()
        for names in self.per_unit.values():
            out |= names
        return frozenset(out)

    def required_units(self):
        """Functional units with at least one required instruction."""
        return {unit for unit, names in self.per_unit.items() if names}

    def uses_unit(self, unit):
        return bool(self.per_unit.get(unit))

    @property
    def uses_float(self):
        return self.uses_unit(FunctionalUnit.SIMF)

    def __ior__(self, other):
        for unit, names in other.per_unit.items():
            self.per_unit.setdefault(unit, set()).update(names)
        self.kernels.extend(k for k in other.kernels if k not in self.kernels)
        return self

    def usage_fraction(self, unit):
        """Fraction of the unit's supported instructions the app uses.

        This is the "Instruction Usage (percentage over supported
        instructions)" panel of Figure 6.
        """
        supported = ISA.for_unit(unit)
        if not supported:
            return 0.0
        used = self.per_unit.get(unit, set())
        return len(used & {s.name for s in supported}) / len(supported)

    def usage_by_unit(self):
        return {
            unit: self.usage_fraction(unit)
            for unit in (FunctionalUnit.SALU, FunctionalUnit.SIMD,
                         FunctionalUnit.SIMF, FunctionalUnit.LSU)
        }

    def to_dict(self):
        """Lossless snapshot of the requirements dictionary."""
        return {
            "per_unit": {unit.value: sorted(names)
                         for unit, names in sorted(
                             self.per_unit.items(),
                             key=lambda kv: kv[0].value)},
            "kernels": list(self.kernels),
        }

    @classmethod
    def from_dict(cls, payload):
        return cls(
            per_unit={FunctionalUnit(value): set(names)
                      for value, names in payload["per_unit"].items()},
            kernels=list(payload["kernels"]),
        )


def analyze_program(program):
    """Algorithm 1, step one, over a single assembled kernel.

    Every decoded instruction contributes ``(opcode, type)`` to its
    functional unit's required list; the Branch & Message path is
    included so the surviving ISA always contains the control
    instructions the binary needs (``s_endpgm`` at minimum).
    """
    req = KernelRequirements(kernels=[program.name])
    for inst in program.instructions:
        req.per_unit.setdefault(inst.spec.unit, set()).add(inst.spec.name)
    return req


def analyze_application(programs):
    """Union of requirements over an application's kernels."""
    merged = KernelRequirements()
    for program in programs:
        merged |= analyze_program(program)
    return merged


def dynamic_counts(per_name_counts):
    """Aggregate executed-instruction counts per functional unit."""
    per_unit = {}
    for name, count in per_name_counts.items():
        unit = ISA.by_name(name).unit
        per_unit[unit] = per_unit.get(unit, 0) + count
    return per_unit
