"""MicroBlaze host model and clock domains."""

import pytest

from repro.soc.clocks import DUAL_DOMAIN, SINGLE_DOMAIN, ClockDomains
from repro.soc.microblaze import (ALU_OP_CYCLES, CALL_OVERHEAD_CYCLES,
                                  FP_OP_CYCLES, MEM_TOUCH_CYCLES, MicroBlaze)


class TestMicroBlaze:
    def test_phase_accounting(self):
        mb = MicroBlaze()
        spent = mb.run_phase("recentre", alu_ops=100, fp_ops=10,
                             mem_touches=20)
        assert spent == pytest.approx(
            CALL_OVERHEAD_CYCLES + 100 * ALU_OP_CYCLES
            + 10 * FP_OP_CYCLES + 20 * MEM_TOUCH_CYCLES)
        assert mb.cycles == spent
        assert mb.phases == [("recentre", spent)]

    def test_fp_costs_more_than_alu(self):
        assert FP_OP_CYCLES > ALU_OP_CYCLES

    def test_charge_raw_cycles(self):
        mb = MicroBlaze()
        mb.charge_cycles("dispatch", 123.0)
        assert mb.cycles == 123.0

    def test_reset(self):
        mb = MicroBlaze()
        mb.run_phase("x", alu_ops=1)
        mb.reset()
        assert mb.cycles == 0 and mb.phases == []

    def test_phases_accumulate(self):
        mb = MicroBlaze()
        mb.run_phase("a", alu_ops=10)
        mb.run_phase("b", alu_ops=20)
        assert len(mb.phases) == 2
        assert mb.cycles == sum(c for _, c in mb.phases)


class TestClockDomains:
    def test_paper_frequencies(self):
        assert SINGLE_DOMAIN.cu_hz == 50e6
        assert SINGLE_DOMAIN.mb_hz == 50e6
        assert DUAL_DOMAIN.mb_hz == 200e6

    def test_conversions(self):
        clocks = ClockDomains(cu_hz=50e6, mb_hz=200e6)
        assert clocks.ratio == 4
        assert clocks.cu_cycles_to_seconds(50e6) == 1.0
        assert clocks.mb_cycles_to_seconds(200e6) == 1.0
        assert clocks.mb_cycles_to_cu_cycles(400) == 100
