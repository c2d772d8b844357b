"""Wavefront state: operand access, EXEC handling, special registers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.asm import assemble
from repro.cu import operations
from repro.cu.prepared import get_prepared
from repro.cu.wavefront import (ALL_LANES, FULL_EXEC, MASK32, Wavefront,
                                unpack_lanes)
from repro.errors import DecodingError, SimulationError
from repro.isa import registers as regs
from repro.mem.system import MemorySystem
from repro.soc.dispatcher import Dispatcher, LaunchGeometry


@pytest.fixture
def wf():
    program = assemble(".vgprs 16\ns_endpgm")
    return Wavefront(0, program)


class TestScalarAccess:
    def test_sgpr_roundtrip(self, wf):
        wf.write_scalar(17, 0xDEADBEEF)
        assert wf.read_scalar(17) == 0xDEADBEEF

    def test_vcc_halves(self, wf):
        wf.vcc = 0x1234567890ABCDEF
        assert wf.read_scalar(regs.VCC_LO) == 0x90ABCDEF
        assert wf.read_scalar(regs.VCC_HI) == 0x12345678
        wf.write_scalar(regs.VCC_HI, 0)
        assert wf.vcc == 0x90ABCDEF

    def test_exec_halves(self, wf):
        wf.write_scalar(regs.EXEC_LO, 0xF)
        wf.write_scalar(regs.EXEC_HI, 0)
        assert wf.exec_mask == 0xF

    def test_status_bits(self, wf):
        wf.vcc = 0
        assert wf.read_scalar(regs.VCCZ) == 1
        wf.vcc = 1
        assert wf.read_scalar(regs.VCCZ) == 0
        wf.exec_mask = 0
        assert wf.read_scalar(regs.EXECZ) == 1
        wf.scc = 1
        assert wf.read_scalar(regs.SCC) == 1

    def test_inline_constants(self, wf):
        assert wf.read_scalar(regs.CONST_ZERO) == 0
        assert wf.read_scalar(193) == MASK32  # -1

    def test_literal_requires_value(self, wf):
        with pytest.raises(SimulationError):
            wf.read_scalar(regs.LITERAL, literal=None)
        assert wf.read_scalar(regs.LITERAL, literal=99) == 99

    def test_every_source_code(self, wf):
        """Each code 0-255 reads its SGPR, special register or inline
        constant; any other code raises the inline-constant
        DecodingError, message included."""
        wf.sgprs[:] = np.arange(regs.NUM_SGPRS, dtype=np.uint32) * 0x01010101
        wf.vcc = 0x1111222233334444
        wf.exec_mask = 0x5555666677778888
        wf.m0 = 0x9999
        wf.scc = 1
        constants = {
            128: 0,
            240: 0x3F000000, 241: 0xBF000000, 242: 0x3F800000,
            243: 0xBF800000, 244: 0x40000000, 245: 0xC0000000,
            246: 0x40800000, 247: 0xC0800000,
        }
        constants.update({128 + n: n for n in range(1, 65)})
        constants.update({192 + n: -n & MASK32 for n in range(1, 17)})
        assert regs.INLINE_CONSTANTS == constants
        expected = {
            regs.VCC_LO: 0x33334444, regs.VCC_HI: 0x11112222,
            regs.M0: 0x9999,
            regs.EXEC_LO: 0x77778888, regs.EXEC_HI: 0x55556666,
            regs.VCCZ: 0, regs.EXECZ: 0, regs.SCC: 1,
            **constants,
        }
        expected.update({code: code * 0x01010101
                         for code in range(regs.NUM_SGPRS)})
        for code in range(256):
            if code == regs.LITERAL:
                with pytest.raises(SimulationError,
                                   match="literal operand without"):
                    wf.read_scalar(code)
            elif code in expected:
                assert wf.read_scalar(code) == expected[code], code
            else:
                with pytest.raises(DecodingError) as info:
                    wf.read_scalar(code)
                assert str(info.value) == \
                    "code {} is not an inline constant".format(code)

    @given(value=st.integers(0, (1 << 64) - 1))
    def test_scalar64_roundtrip(self, value):
        program = assemble("s_endpgm")
        w = Wavefront(0, program)
        w.write_scalar64(10, value)
        assert w.read_scalar64(10) == value
        assert w.read_scalar(10) == value & MASK32
        assert w.read_scalar(11) == value >> 32

    def test_scalar64_vcc_exec(self, wf):
        wf.write_scalar64(regs.VCC_LO, 0xAB)
        assert wf.vcc == 0xAB
        wf.write_scalar64(regs.EXEC_LO, 0x3)
        assert wf.exec_mask == 0x3

    def test_bad_destination_rejected(self, wf):
        with pytest.raises(SimulationError):
            wf.write_scalar(regs.LITERAL, 1)


class TestVectorAccess:
    def test_vgpr_write_respects_exec(self, wf):
        wf.exec_mask = 0b1010
        wf.write_vgpr(4, np.full(64, 7, dtype=np.uint32))
        row = wf.read_vgpr(4)
        assert row[1] == 7 and row[3] == 7
        assert row[0] == 0 and row[2] == 0

    def test_scalar_broadcast(self, wf):
        wf.write_scalar(9, 42)
        vec = wf.read_vector(9)
        assert (vec == 42).all()

    def test_vgpr_code_reads_row(self, wf):
        wf.exec_mask = FULL_EXEC
        wf.write_vgpr(5, np.arange(64, dtype=np.uint32))
        vec = wf.read_vector(regs.VGPR_BASE + 5)
        assert (vec == np.arange(64)).all()

    def test_lane_mask_cache_invalidation(self, wf):
        wf.exec_mask = 0b1
        assert wf.active_lane_mask().sum() == 1
        wf.exec_mask = 0b111
        assert wf.active_lane_mask().sum() == 3

    @given(mask=st.integers(0, (1 << 64) - 1))
    def test_lane_mask_matches_bits(self, mask):
        program = assemble("s_endpgm")
        w = Wavefront(0, program)
        w.exec_mask = mask
        lanes = w.active_lane_mask()
        assert int(lanes.sum()) == bin(mask).count("1")
        for lane in (0, 13, 63):
            assert bool(lanes[lane]) == bool(mask >> lane & 1)


class TestReadScalarAsFloat:
    """Regression: ``read_scalar(code, as_float=True)`` used to ignore
    the flag entirely and hand a raw bit pattern to float consumers."""

    def test_inline_float_constant(self, wf):
        # code 240 is the inline constant 0.5
        assert wf.read_scalar(240, as_float=True) == 0.5
        assert wf.read_scalar(240) == 0x3F000000

    def test_inline_negative_float_constant(self, wf):
        for code, expected in regs.FLOAT_CONSTS.items():
            assert wf.read_scalar(code, as_float=True) == expected

    def test_sgpr_bit_reinterpretation(self, wf):
        wf.write_scalar(10, 0x40490FDB)  # pi as IEEE-754 bits
        value = wf.read_scalar(10, as_float=True)
        assert abs(value - 3.14159265) < 1e-6
        assert wf.read_scalar(10) == 0x40490FDB

    def test_inline_int_converts_to_float(self, wf):
        # Integer inline constants present their *bit pattern* to a
        # float consumer (5 is a denormal, not 5.0) -- SI semantics.
        value = wf.read_scalar(regs.INT_POS_FIRST + 4, as_float=True)
        import struct as _struct
        assert value == _struct.unpack("<f", _struct.pack("<I", 5))[0]

    def test_literal_as_float(self, wf):
        assert wf.read_scalar(regs.LITERAL, literal=0xBF800000,
                              as_float=True) == -1.0


#: EXEC values the lane-row checks start from and write: full, empty,
#: each half, a prefix and a scattered mask.
LANE_ROW_MASKS = (FULL_EXEC, 0, 0xFFFFFFFF, 0xFFFFFFFF00000000,
                  (1 << 40) - 1, 0x5555AAAA0F0F3C3C)


def _assert_lane_row(wf):
    """``wf.lm`` is EXEC's lane row, ``None`` exactly when EXEC is
    full."""
    if wf.exec_mask == FULL_EXEC:
        assert wf.lm is None
        assert wf.active_lane_mask() is ALL_LANES
    else:
        assert wf.lm is not None
        assert np.array_equal(wf.lm, unpack_lanes(wf.exec_mask))
        assert wf.active_lane_mask() is wf.lm
    assert np.array_equal(wf.active_lanes(),
                          np.flatnonzero(unpack_lanes(wf.exec_mask)))


#: One instruction per EXEC writer of the ALU, reading s[10:11] / s10 /
#: s11 and VCC as its sources.
EXEC_WRITERS = {
    "s_mov_b64": "s_mov_b64 exec, s[10:11]",
    "s_and_b64": "s_and_b64 exec, exec, vcc",
    "s_and_saveexec_b64": "s_and_saveexec_b64 s[12:13], s[10:11]",
    "s_or_saveexec_b64": "s_or_saveexec_b64 s[12:13], s[10:11]",
    "exec_lo": "s_mov_b32 exec_lo, s10",
    "exec_hi": "s_mov_b32 exec_hi, s11",
}


class TestExecLaneRow:
    """Every EXEC writer leaves ``lm`` equal to EXEC's lane row."""

    @pytest.mark.parametrize("before", LANE_ROW_MASKS)
    @pytest.mark.parametrize("value", LANE_ROW_MASKS)
    def test_wavefront_writers(self, wf, before, value):
        writes = (
            lambda: setattr(wf, "exec_mask", value),
            lambda: wf.write_scalar(regs.EXEC_LO, value & MASK32),
            lambda: wf.write_scalar(regs.EXEC_HI, value >> 32),
            lambda: wf.write_scalar64(regs.EXEC_LO, value),
        )
        for write in writes:
            wf.exec_mask = before
            active = wf.active_lanes()      # cached until EXEC changes
            _assert_lane_row(wf)
            write()
            _assert_lane_row(wf)
            assert wf.active_lanes() is not active

    def test_initial_exec(self):
        program = assemble("s_endpgm")
        _assert_lane_row(Wavefront(0, program))
        narrow = Wavefront(0, program, lane_count=16)
        assert narrow.exec_mask == 0xFFFF
        _assert_lane_row(narrow)

    @pytest.mark.parametrize("before", LANE_ROW_MASKS)
    @pytest.mark.parametrize("name", sorted(EXEC_WRITERS))
    def test_alu_writers(self, name, before):
        """The emitted executor and the reference dispatcher write the
        same EXEC and both keep ``lm`` in step with it."""
        program = assemble("  {}\n  s_endpgm".format(EXEC_WRITERS[name]))
        plan = get_prepared(program).plans[0]
        assert plan.specialized
        for value in LANE_ROW_MASKS:
            states = []
            for run in (plan.exec_fn,
                        lambda w: operations.execute(
                            w, program.instructions[0])):
                w = Wavefront(0, program)
                w.write_scalar64(10, value)
                w.vcc = 0x00FF00FF00FF00FF
                w.exec_mask = before
                run(w)
                _assert_lane_row(w)
                states.append((w.exec_mask, w.scc, w.sgprs.tobytes()))
            assert states[0] == states[1], (name, before, value)

    def test_dispatcher_prefix_exec(self):
        memory = MemorySystem(global_size=1 << 16)
        disp = Dispatcher(memory, uav_base=0x1000, uav_size=0x1000,
                          cb0_base=0x100, cb1_base=0x200, cb1_size=0x100)
        # 160 work-items: two full wavefronts and a 32-lane prefix.
        geometry = LaunchGeometry.of((160,), (160,))
        wg = disp.build_workgroup(assemble("s_endpgm"), geometry, (0, 0, 0))
        assert [w.exec_mask for w in wg.wavefronts] == [
            FULL_EXEC, FULL_EXEC, (1 << 32) - 1]
        for w in wg.wavefronts:
            _assert_lane_row(w)
