"""Architecture configurations of the SCRATCH design space.

An :class:`ArchConfig` pins down everything the evaluation varies:

* the **generation** -- Original MIAOW, DCD (dual clock domain), or
  DCD+PM (dual clock + prefetch memory, the paper's *Baseline*),
* the **instruction set** -- full 156-instruction decode, or the
  surviving set after SCRATCH trimming,
* the **parallel shape** -- number of compute units (multi-core) and
  of integer/FP VALU blocks per CU (multi-thread), the two
  re-investment strategies of Section 4.2,
* the **datapath width** -- 32-bit, or the shortened 8-bit format the
  NIN benchmark explores ("following recent trends in DNNs, we also
  vary the numerical precision from a 32-bit format to shortened
  8-bit", Section 4.2).

Configs are immutable value objects; the trimming tool and parallelism
planner derive new ones rather than mutating.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import FrozenSet, Optional

from ..errors import TrimError
from ..isa.tables import ISA
from ..mem.params import (
    DCD_PM_TIMING,
    DCD_TIMING,
    ORIGINAL_TIMING,
    MemoryTimingParams,
)

#: Architectural VALU limit of the MIAOW compute unit (Section 2.1).
MAX_VALUS_PER_CU = 4

#: Practical cap on CU count: the single ultra-threaded dispatcher and
#: the AXI interconnect fan-out stop scaling usefully beyond this.
MAX_CUS = 8

#: The six architecture labels of the evaluation (Section 4, Figures 6
#: and 7), in figure order: three fixed generations, then the trimmed
#: architecture and its two re-investments, which the static flow
#: derives per application (:meth:`repro.core.flow.ScratchFlow.arch`).
ARCH_LABELS = ("original", "dcd", "baseline", "trimmed",
               "multicore", "multithread")

#: The labels :meth:`ArchConfig.named` resolves without an application.
FIXED_LABELS = ARCH_LABELS[:3]


class Generation(enum.Enum):
    """The three fixed-function system generations of Figure 6."""

    ORIGINAL = "original"
    DCD = "dcd"
    DCD_PM = "dcd+pm"

    @property
    def memory_timing(self):
        return {
            Generation.ORIGINAL: ORIGINAL_TIMING,
            Generation.DCD: DCD_TIMING,
            Generation.DCD_PM: DCD_PM_TIMING,
        }[self]

    @property
    def clock_ratio(self):
        return self.memory_timing.clock_ratio


@dataclass(frozen=True)
class ArchConfig:
    """One point in the SCRATCH architecture design space."""

    generation: Generation = Generation.DCD_PM
    num_cus: int = 1
    num_simd: int = 1
    num_simf: int = 1
    supported: Optional[FrozenSet[str]] = None  # None = full 156-instruction set
    datapath_bits: int = 32
    label: str = ""

    def __post_init__(self):
        for name in ("num_cus", "num_simd", "num_simf"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TrimError(
                    "{} must be an integer, got {!r}".format(name, value))
        if self.num_cus < 1:
            raise TrimError("an architecture needs at least one compute unit")
        if self.num_cus > MAX_CUS:
            raise TrimError(
                "num_cus={} exceeds the {}-CU dispatcher/interconnect "
                "limit".format(self.num_cus, MAX_CUS))
        if self.num_simd < 0 or self.num_simf < 0:
            raise TrimError("negative VALU counts are not a thing")
        if self.num_simd == 0 and self.num_simf == 0:
            raise TrimError("a compute unit needs at least one vector ALU")
        if max(self.num_simd, self.num_simf) > MAX_VALUS_PER_CU:
            raise TrimError(
                "{} VALUs of one kind exceed the MIAOW compute unit's "
                "{}-VALU limit".format(max(self.num_simd, self.num_simf),
                                       MAX_VALUS_PER_CU))
        if self.datapath_bits not in (8, 16, 32):
            raise TrimError("datapath width must be 8, 16 or 32 bits")

    # ------------------------------------------------------------------

    @property
    def trimmed(self):
        return self.supported is not None

    @property
    def instruction_count(self):
        if self.supported is None:
            return len(ISA.implemented())
        return len(self.supported)

    def supports(self, name):
        if self.supported is None:
            return name in ISA and ISA.by_name(name).implemented
        return name in self.supported

    @property
    def memory_timing(self) -> MemoryTimingParams:
        return self.generation.memory_timing

    @property
    def has_prefetch(self):
        return self.generation is Generation.DCD_PM

    def describe(self):
        shape = "{}CU x ({} SIMD + {} SIMF)".format(
            self.num_cus, self.num_simd, self.num_simf)
        trim = "trimmed to {} instructions".format(self.instruction_count) \
            if self.trimmed else "full ISA"
        return "{} [{}] {} @{}b".format(
            self.label or self.generation.value, shape, trim, self.datapath_bits)

    def to_dict(self):
        """Full semantic state (lossless -- see :meth:`from_dict`)."""
        return {
            "generation": self.generation.value,
            "num_cus": self.num_cus,
            "num_simd": self.num_simd,
            "num_simf": self.num_simf,
            "supported": (None if self.supported is None
                          else sorted(self.supported)),
            "datapath_bits": self.datapath_bits,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, payload):
        """Rebuild a configuration from a :meth:`to_dict` payload."""
        supported = payload.get("supported")
        return cls(
            generation=Generation(payload["generation"]),
            num_cus=payload["num_cus"],
            num_simd=payload["num_simd"],
            num_simf=payload["num_simf"],
            supported=None if supported is None else frozenset(supported),
            datapath_bits=payload["datapath_bits"],
            label=payload.get("label", ""),
        )

    def with_parallelism(self, num_cus=None, num_simd=None, num_simf=None):
        return replace(
            self,
            num_cus=self.num_cus if num_cus is None else num_cus,
            num_simd=self.num_simd if num_simd is None else num_simd,
            num_simf=self.num_simf if num_simf is None else num_simf,
        )

    # -- canonical configurations ----------------------------------------

    @staticmethod
    def original():
        """The original MIAOW FPGA system (single clock, no prefetch)."""
        return ArchConfig(generation=Generation.ORIGINAL, label="original")

    @staticmethod
    def dcd():
        """Original + dual clock domain."""
        return ArchConfig(generation=Generation.DCD, label="dcd")

    @staticmethod
    def baseline():
        """DCD + prefetch memory: the paper's Baseline architecture."""
        return ArchConfig(generation=Generation.DCD_PM, label="baseline")

    @staticmethod
    def named(label):
        """The fixed generation named ``label``, one of
        :data:`FIXED_LABELS`; raises :class:`TrimError` for any other
        label."""
        if label not in FIXED_LABELS:
            raise TrimError(
                "{!r} names no fixed generation; expected one of {}".format(
                    label, ", ".join(FIXED_LABELS)))
        return getattr(ArchConfig, label)()
