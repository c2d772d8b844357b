"""MicroBlaze host-processor model.

The MicroBlaze plays two roles in the MIAOW2.0 system (Section 2.2.2):
it is the *host processor* -- running the non-accelerated application
code, initialising data, pre-loading the prefetch memory and
retrieving results -- and it is the *ultra-threaded dispatcher* that
launches workgroups (modelled in :mod:`repro.soc.dispatcher`).

Host-side computation (e.g. K-means cluster recentring between
iterations, or the back-substitution phase of Gaussian elimination)
executes functionally in Python and is *priced* with a simple
operation-count model: a soft in-order MicroBlaze retires roughly one
simple ALU operation per cycle and pays a DDR latency for each
non-sequential memory touch.  The cycle total lives in the MicroBlaze
clock domain, so the dual-clock design speeds every host phase up by
the clock ratio -- one of the two effects that Figure 7's "vs
Original" bars combine.
"""

from __future__ import annotations

#: Per-operation MicroBlaze cycle prices.
ALU_OP_CYCLES = 1.0
FP_OP_CYCLES = 6.0          # soft FPU, multi-cycle
MEM_TOUCH_CYCLES = 8.0      # cached DDR access, amortised
CALL_OVERHEAD_CYCLES = 50.0


class MicroBlaze:
    """Accumulates host-phase cycles in the MicroBlaze clock domain."""

    def __init__(self):
        self.cycles = 0.0
        self.phases = []

    def reset(self):
        self.cycles = 0.0
        self.phases = []

    def run_phase(self, name, alu_ops=0, fp_ops=0, mem_touches=0):
        """Charge one host-code phase and record it by name."""
        spent = (CALL_OVERHEAD_CYCLES
                 + alu_ops * ALU_OP_CYCLES
                 + fp_ops * FP_OP_CYCLES
                 + mem_touches * MEM_TOUCH_CYCLES)
        self.cycles += spent
        self.phases.append((name, spent))
        return spent

    def charge_cycles(self, name, cycles):
        """Charge a pre-computed cycle amount (e.g. dispatch costs)."""
        self.cycles += cycles
        self.phases.append((name, cycles))
        return cycles
