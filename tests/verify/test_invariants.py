"""The architectural-state invariant checker."""

import numpy as np
import pytest

from repro.asm import assemble
from repro.cu.wavefront import Wavefront
from repro.cu.workgroup import Workgroup
from repro.obs.events import WavefrontStep
from repro.verify import InvariantChecker, InvariantViolation, generate_case
from repro.verify.oracles import run_case
from repro.verify.spec import spec_execution
from repro.core.config import ArchConfig


def make_step(wf, cycle=0.0):
    inst = wf.program.instructions[0]
    return WavefrontStep(cycle=cycle, cu_index=0, wf=wf, inst=inst)


@pytest.fixture
def wf():
    program = assemble(".vgprs 8\ns_nop\ns_endpgm")
    wg = Workgroup((0, 0, 0), program, (16, 1, 1))
    w = Wavefront(0, program, workgroup=wg, lane_count=16)
    wg.add_wavefront(w)
    return w


class TestDirectViolations:
    def test_clean_state_passes(self, wf):
        checker = InvariantChecker()
        checker.on_step(make_step(wf))
        checker.on_step(make_step(wf))
        assert checker.steps == 2

    def test_exec_escape_detected(self, wf):
        wf.exec_mask = 1 << 20  # beyond lane_count=16
        with pytest.raises(InvariantViolation, match="EXEC confinement"):
            InvariantChecker().on_step(make_step(wf))

    def test_vcc_escape_detected(self, wf):
        wf.vcc = 1 << 16
        with pytest.raises(InvariantViolation, match="VCC confinement"):
            InvariantChecker().on_step(make_step(wf))

    def test_scc_out_of_range_detected(self, wf):
        wf.scc = 2
        with pytest.raises(InvariantViolation, match="SCC range"):
            InvariantChecker().on_step(make_step(wf))

    def test_inactive_lane_write_detected(self, wf):
        checker = InvariantChecker()
        checker.on_step(make_step(wf))           # snapshot: lanes 0-15 active
        wf.vgprs[3, 40] = 0xDEAD                 # lane 40 is off
        with pytest.raises(InvariantViolation, match="lane masking"):
            checker.on_step(make_step(wf))

    def test_active_lane_write_allowed(self, wf):
        checker = InvariantChecker()
        checker.on_step(make_step(wf))
        wf.vgprs[3, 2] = 0xBEEF                  # lane 2 is active
        checker.on_step(make_step(wf))
        assert checker.steps == 2

    def test_mask_is_one_step_delayed(self, wf):
        # An instruction that narrows EXEC may legally have written the
        # then-active lanes; the checker must judge step N+1 by the
        # mask that held when N+1 executed, not the narrowed one.
        checker = InvariantChecker()
        checker.on_step(make_step(wf))           # active: lanes 0-15
        wf.vgprs[2, 10] = 7                      # write under old mask
        wf.exec_mask = 0b1                       # then narrow
        checker.on_step(make_step(wf))
        assert checker.steps == 2


class TestAttachedToDevice:
    def test_fuzz_case_runs_clean(self):
        case = generate_case(3)
        snap = run_case(case, ArchConfig.baseline(), check_invariants=True)
        assert snap.registers  # every wavefront's final state captured

    def test_unmasked_vgpr_write_caught_end_to_end(self, monkeypatch):
        # Corrupt the simulator: VGPR writes ignore the lane mask.  A
        # partial-wavefront program (local=16, lanes 16-63 dead) must
        # then trip the lane-masking invariant during a real run on the
        # spec loop, the invariants oracle's reference, whose ALU
        # semantics write through Wavefront.write_vgpr.
        case = generate_case(2)
        assert case.local_size == 16
        original = Wavefront.write_vgpr

        def unmasked(self, index, values, lane_mask=None):
            return original(self, index, values,
                            lane_mask=np.ones(64, dtype=bool))

        monkeypatch.setattr(Wavefront, "write_vgpr", unmasked)
        with pytest.raises(InvariantViolation), spec_execution():
            run_case(case, ArchConfig.baseline(), check_invariants=True)

    @staticmethod
    def _launch16(body):
        """One 16-item workgroup under the checker: a partial
        wavefront, dispatched with ``lane_count`` 16."""
        from repro.runtime.device import SoftGpu

        device = SoftGpu(ArchConfig.baseline())
        checker = device.attach(InvariantChecker())
        device.run(assemble(".vgprs 4\n" + body + "\n  s_endpgm"),
                   (16,), (16,))
        return checker

    def test_dispatched_partial_wavefront_runs_clean(self):
        assert self._launch16("  v_mov_b32 v1, 0").steps == 2

    def test_resurrected_lanes_caught_end_to_end(self):
        with pytest.raises(InvariantViolation, match="EXEC confinement"):
            self._launch16("  s_mov_b64 exec, -1\n  v_mov_b32 v1, 0")
