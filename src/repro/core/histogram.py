"""Instruction-mix histograms: the Figure 4 taxonomy.

The paper characterises 25 AMD APP SDK benchmarks by classifying every
executed instruction into scalar/vector x INT/SP-FP/DP-FP x the ten
computational categories of Section 3.1, grouped into seven lettered
bars (A: binary/logic/shift, B/C/D: arithmetic by numeric type,
E: conversions, F: control, G: memory).

:class:`InstructionMix` accepts either static occurrence counts (from
a binary) or dynamic execution counts (from the simulator's per-name
statistics) and renders both the full matrix and the Figure 4 bars.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..isa.categories import (
    ARITHMETIC_CATEGORIES,
    DataType,
    FunctionalUnit,
    OpCategory,
)
from ..isa.tables import ISA

#: Figure 4's lettered groups, with the paper's legend text.
GROUP_TITLES = {
    "A": "Binary, logic and shift operations",
    "B": "Integer (INT) arithmetic",
    "C": "Single-precision (SP) floating-point (FP) arithmetic",
    "D": "Double-precision (DP) floating-point (FP) arithmetic",
    "E": "Numerical conversion",
    "F": "Control operations (excluding comparison)",
    "G": "Memory operations",
}

_AB_CATEGORIES = (OpCategory.MOV, OpCategory.LOGIC, OpCategory.SHIFT,
                  OpCategory.BITWISE)


def classify(spec):
    """Map an instruction spec to its Figure 4 group letter."""
    if spec.category is OpCategory.MEMORY:
        return "G"
    if spec.category is OpCategory.CONTROL:
        return "F"
    if spec.category is OpCategory.CONVERT:
        return "E"
    if spec.category in _AB_CATEGORIES:
        return "A"
    # Arithmetic: split by numeric type.
    if spec.dtype is DataType.FP64:
        return "D"
    if spec.dtype is DataType.FP32:
        return "C"
    return "B"


@dataclass
class InstructionMix:
    """Counts per (group, category, scalar/vector, dtype)."""

    benchmark: str
    counts: Dict[tuple, int] = field(default_factory=dict)
    total: int = 0

    @staticmethod
    def from_counts(benchmark, per_name_counts):
        """Build a mix from ``{mnemonic: count}`` statistics."""
        mix = InstructionMix(benchmark=benchmark)
        for name, count in per_name_counts.items():
            spec = ISA.by_name(name)
            is_vector = spec.unit.is_vector or (
                spec.unit is FunctionalUnit.LSU and spec.fmt.value in
                ("mubuf", "mtbuf", "ds"))
            key = (classify(spec), spec.category, is_vector, spec.dtype)
            mix.counts[key] = mix.counts.get(key, 0) + count
            mix.total += count
        return mix

    @staticmethod
    def from_program(program):
        """Static mix: one count per instruction occurrence in a binary."""
        per_name = {}
        for name in program.instruction_names():
            per_name[name] = per_name.get(name, 0) + 1
        return InstructionMix.from_counts(program.name, per_name)

    # ------------------------------------------------------------------

    def fraction(self, group=None, category=None, vector=None, dtype=None):
        """Fraction of instructions matching the given filters."""
        if self.total == 0:
            return 0.0
        matched = 0
        for (g, cat, vec, dt), count in self.counts.items():
            if group is not None and g != group:
                continue
            if category is not None and cat is not category:
                continue
            if vector is not None and vec != vector:
                continue
            if dtype is not None and dt is not dtype:
                continue
            matched += count
        return matched / self.total

    def group_fractions(self):
        """The seven Figure 4 bars, as fractions of executed instructions."""
        return {g: self.fraction(group=g) for g in "ABCDEFG"}

    def category_fractions(self):
        return {cat: self.fraction(category=cat) for cat in OpCategory}

    def arithmetic_profile(self):
        """Arithmetic breakdown by (dtype, category) -- the B/C/D detail."""
        out = {}
        for dtype in (DataType.INT, DataType.FP32, DataType.FP64):
            for cat in ARITHMETIC_CATEGORIES:
                frac = self.fraction(category=cat, dtype=dtype)
                if frac:
                    out[(dtype, cat)] = frac
        return out

    @property
    def uses_scalar_only(self):
        return self.fraction(vector=True) == 0.0

    @property
    def uses_vector(self):
        return self.fraction(vector=True) > 0.0

    @property
    def uses_double(self):
        return self.fraction(dtype=DataType.FP64) > 0.0

    @property
    def uses_float(self):
        return self.fraction(dtype=DataType.FP32) > 0.0

    def render(self, width=40):
        """ASCII rendering of the seven bars (one benchmark column)."""
        lines = ["{}  ({} instructions)".format(self.benchmark, self.total)]
        for group, frac in self.group_fractions().items():
            bar = "#" * int(round(frac * width))
            lines.append("  {} |{:<{w}}| {:5.1%}  {}".format(
                group, bar, frac, GROUP_TITLES[group], w=width))
        return "\n".join(lines)
