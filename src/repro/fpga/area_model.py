"""Analytic FPGA area model of the MIAOW2.0 system.

Stands in for Vivado synthesis in the SCRATCH flow.  The model is
compositional: a compute unit is the sum of its front-end, register
file, decode logic and functional units; each functional unit splits
into a structural base (operand routing, pipeline registers) and a
per-instruction portion weighted by computational category.  Trimming
an instruction removes its decode and execute share; trimming a whole
unit removes the unit *and* its register-file port logic.

Calibrated against the paper's Figure 6 utilisation numbers -- see
:mod:`repro.fpga.calibration` for the decomposition table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..isa.categories import FunctionalUnit
from ..isa.tables import ISA
from . import calibration as cal
from .resources import ResourceVector, ZERO

_TRIMMABLE = (FunctionalUnit.SALU, FunctionalUnit.SIMD,
              FunctionalUnit.SIMF, FunctionalUnit.LSU)


def _weight(spec):
    return cal.CATEGORY_WEIGHT[spec.category]


@dataclass
class CuAreaBreakdown:
    """Per-component area of one compute unit."""

    components: Dict[str, ResourceVector] = field(default_factory=dict)

    @property
    def total(self):
        total = ZERO
        for vec in self.components.values():
            total = total + vec
        return total


class AreaModel:
    """Prices compute units and full systems in FPGA resources."""

    def __init__(self):
        self._unit_weight_totals = {}
        for unit in _TRIMMABLE:
            specs = ISA.for_unit(unit)
            self._unit_weight_totals[unit] = sum(_weight(s) for s in specs)
        self._decode_weight_total = sum(
            _weight(s) for s in ISA.implemented())

    # ------------------------------------------------------------------

    def kept_fraction(self, unit, supported):
        """Weighted fraction of ``unit``'s instructions that survive.

        ``supported=None`` means the full ISA (fraction 1.0).
        """
        if supported is None:
            return 1.0
        total = self._unit_weight_totals[unit]
        if total == 0:
            return 0.0
        kept = sum(
            _weight(s) for s in ISA.for_unit(unit)
            if s.name in supported
        )
        return kept / total

    def decode_kept_fraction(self, supported):
        if supported is None:
            return 1.0
        kept = sum(
            _weight(s) for s in ISA.implemented()
            if s.name in supported
        )
        return kept / self._decode_weight_total

    def unit_present(self, unit, supported, num_simd=1, num_simf=1):
        """Whether any logic of ``unit`` remains after trimming."""
        if unit is FunctionalUnit.SIMD and num_simd == 0:
            return False
        if unit is FunctionalUnit.SIMF and num_simf == 0:
            return False
        return self.kept_fraction(unit, supported) > 0.0

    # ------------------------------------------------------------------

    def _fu_area(self, unit, supported, datapath_bits):
        """Area of one instance of a (possibly trimmed) functional unit.

        A fully removed unit costs nothing.  A retained unit keeps its
        structural base plus the per-instruction share of the kept
        instructions; the freed share applies fully to FF/LUT but
        barely to DSP48s and not at all to BRAM (see the sensitivity
        constants in :mod:`repro.fpga.calibration`).
        """
        kept = self.kept_fraction(unit, supported)
        if kept == 0.0:
            return ZERO
        full = cal.FU_AREA[unit]
        freed = (1.0 - cal.FU_BASE_FRACTION[unit]) * (1.0 - kept)
        area = full - full.scale_each(
            ff=freed, lut=freed,
            dsp=freed * cal.DSP_TRIM_SENSITIVITY,
            bram=freed * cal.BRAM_TRIM_SENSITIVITY,
        )
        if unit in (FunctionalUnit.SIMD, FunctionalUnit.SIMF):
            area = area.scale(cal.datapath_scale(datapath_bits))
        return area

    def cu_area(self, supported=None, num_simd=1, num_simf=1,
                datapath_bits=32, prefetch=True, prefetch_brams=None):
        """Break down one compute unit's area.

        ``supported`` is the surviving mnemonic set (or ``None`` for the
        full ISA).  VALU counts beyond the first replicate trimmed
        copies of the unit plus extra register-file ports.
        """
        bd = CuAreaBreakdown()
        ds = cal.datapath_scale(datapath_bits)
        bd.components["frontend"] = cal.FRONTEND_AREA

        regfile = cal.REGFILE_AREA.scale(0.35 + 0.65 * ds)
        for unit, share in cal.REGFILE_PORT_SHARE.items():
            count = num_simd if unit is FunctionalUnit.SIMD else num_simf
            if not self.unit_present(unit, supported, num_simd, num_simf):
                regfile = regfile - cal.REGFILE_AREA.scale(share).scale(
                    0.35 + 0.65 * ds)
            elif count > 1:
                extra = cal.REGFILE_AREA.scale(share * 0.6 * (count - 1))
                regfile = regfile + extra.scale(0.35 + 0.65 * ds)
        bd.components["regfile"] = regfile

        decode_fraction = (cal.DECODE_BASE_FRACTION
                           + (1 - cal.DECODE_BASE_FRACTION)
                           * self.decode_kept_fraction(supported))
        bd.components["decode"] = cal.DECODE_AREA.scale(decode_fraction)

        bd.components["salu"] = self._fu_area(
            FunctionalUnit.SALU, supported, 32)
        bd.components["lsu"] = self._fu_area(FunctionalUnit.LSU, supported, 32)
        simd_one = self._fu_area(FunctionalUnit.SIMD, supported, datapath_bits)
        simf_one = self._fu_area(FunctionalUnit.SIMF, supported, datapath_bits)
        bd.components["simd"] = simd_one.scale(num_simd)
        bd.components["simf"] = simf_one.scale(num_simf)

        if prefetch:
            pm = cal.PREFETCH_CTRL_AREA
            brams = (cal.PREFETCH_BASELINE_BRAMS if prefetch_brams is None
                     else prefetch_brams)
            bd.components["prefetch"] = pm + ResourceVector(bram=brams)
        return bd

    def cu_area_for_config(self, config, prefetch_brams=None):
        """CU breakdown for an :class:`~repro.core.config.ArchConfig`."""
        return self.cu_area(
            supported=config.supported,
            num_simd=config.num_simd,
            num_simf=config.num_simf,
            datapath_bits=config.datapath_bits,
            prefetch=config.has_prefetch,
            prefetch_brams=prefetch_brams,
        )

    def soc_area(self, prefetch=True):
        """Area of the non-CU system (MicroBlaze, MIG, AXI, debug)."""
        if prefetch:
            return cal.SOC_AREA
        return cal.SOC_AREA + cal.RELAY_DATAPATH_AREA
