"""VCC held as lanes: the hand-off between its producers and readers.

The emitted VOPC compares and ``v_add/sub/subrev_i32`` carries leave
VCC as a 64-lane bool row (:meth:`Wavefront.set_vcc_lanes`); the
emitted ``v_cndmask_b32``/``v_addc_u32``/``v_subb_u32`` read that row,
and every other reader -- SALU, branches, ``read_scalar`` -- sees the
packed int through :attr:`Wavefront.vcc`.  Each program below hands VCC
from one form to the other and runs on the issue loop and on the spec
loop (whose ALU semantics, ``operations.execute``, only ever see the
int) under the four EXEC masks of the vector matrix; both must agree
on every register, VCC, EXEC, SCC and the cycle count.
"""

import contextlib

import numpy as np
import pytest

from repro.asm import assemble
from repro.cu.pipeline import ComputeUnit
from repro.cu.prepared import get_prepared
from repro.cu.wavefront import MASK64, Wavefront, pack_lanes, unpack_lanes
from repro.cu.workgroup import Workgroup
from repro.isa import registers as regs
from repro.mem.params import DCD_PM_TIMING
from repro.mem.system import MemorySystem
from repro.verify.spec import spec_execution

from .test_vector_conformance import EXEC_MASKS

#: A mask unlike any compare result below: what ``s[20:21]`` holds.
PRESET = 0x0123456789ABCDEF

PROGRAMS = {
    "cmp-cndmask": """
      v_cmp_gt_u32 vcc, v1, v2
      v_cndmask_b32 v3, v1, v2, vcc
      v_cmp_lt_i32 vcc, v1, v2
      v_cndmask_b32 v4, v2, v1, vcc
      v_cmp_eq_u32 vcc, v1, v1
      v_cndmask_b32 v5, v1, v2, vcc
      s_endpgm
    """,
    "carry-in-from-lanes": """
      v_add_i32 v3, vcc, v1, v2
      v_addc_u32 v4, vcc, v2, v1, vcc
      v_sub_i32 v5, vcc, v1, v2
      v_subb_u32 v6, vcc, v2, v1, vcc
      v_subrev_i32 v7, vcc, v1, v2
      v_cndmask_b32 v8, v1, v2, vcc
      v_add_i32 v9, vcc, v1, 5
      v_addc_u32 v10, vcc, v9, v1, vcc
      s_endpgm
    """,
    "salu-readers": """
      v_cmp_gt_u32 vcc, v1, v2
      s_mov_b64 s[24:25], vcc
      s_mov_b32 s26, vcc_hi
      s_mov_b32 s27, vcc_lo
      s_cbranch_vccz skip
      s_mov_b32 s28, 1
    skip:
      v_cmp_lt_u32 vcc, v1, v2
      s_cbranch_vccnz taken
      s_mov_b32 s29, 1
    taken:
      s_and_b64 exec, exec, vcc
      v_mov_b32 v3, v1
      s_endpgm
    """,
    "vop3-sgpr-pair": """
      v_cmp_gt_u32 s[24:25], v1, v2
      v_cndmask_b32 v3, v1, v2, s[24:25]
      v_cmp_lt_u32 vcc, v1, v2
      v_cmp_ge_u32 s[26:27], v1, v2
      v_cndmask_b32 v4, v1, v2, vcc
      s_endpgm
    """,
    "vcc-write-after-lanes": """
      v_cmp_gt_u32 vcc, v1, v2
      s_mov_b64 vcc, s[20:21]
      v_cndmask_b32 v3, v1, v2, vcc
      v_addc_u32 v4, vcc, v1, v2, vcc
      v_cmp_lt_u32 vcc, v1, v2
      s_mov_b32 vcc_lo, s22
      v_cndmask_b32 v5, v1, v2, vcc
      s_mov_b64 s[28:29], vcc
      s_endpgm
    """,
}


def _run(source, exec_mask, loop):
    program = assemble(source)
    memory = MemorySystem(params=DCD_PM_TIMING)
    cu = ComputeUnit(memory)
    wg = Workgroup((0, 0, 0), program, (64, 1, 1))
    wf = Wavefront(0, program)
    rng = np.random.default_rng(5)
    wf.vgprs[1] = rng.integers(0, 1 << 32, 64, dtype=np.uint32)
    wf.vgprs[2] = rng.integers(0, 1 << 32, 64, dtype=np.uint32)
    wf.vgprs[2][::7] = wf.vgprs[1][::7]     # ties for the ge/eq forms
    wf.sgprs[20] = PRESET & 0xFFFFFFFF
    wf.sgprs[21] = PRESET >> 32
    wf.sgprs[22] = 0xFFFF0000
    wf.exec_mask = exec_mask
    wg.add_wavefront(wf)
    context = spec_execution() if loop == "spec" else contextlib.nullcontext()
    with context:
        end, stats = cu.run_workgroup(wg)
    return wf, {"vgprs": wf.vgprs.tobytes(), "sgprs": wf.sgprs.tobytes(),
                "vcc": wf.vcc, "exec": wf.exec_mask, "scc": wf.scc,
                "end": end, "instructions": stats.instructions}


@pytest.mark.parametrize("mask_id,exec_mask", EXEC_MASKS,
                         ids=[m[0] for m in EXEC_MASKS])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_issue_loop_matches_spec_loop(name, mask_id, exec_mask):
    _, want = _run(PROGRAMS[name], exec_mask, "spec")
    _, got = _run(PROGRAMS[name], exec_mask, "issue")
    for key in want:
        assert got[key] == want[key], "{} under {} EXEC: {}".format(
            name, mask_id, key)


def test_producers_and_readers_are_emitted_as_lanes():
    # Without lanes on both sides the matrix above would compare two
    # int-only paths.
    source = get_prepared(assemble(PROGRAMS["carry-in-from-lanes"])).source
    plans = source.split("def ")[1:]
    # Seven carries write VCC; addc, subb, cndmask and addc read it.
    assert sum("wf.set_vcc_lanes(" in plan for plan in plans) == 7
    assert sum("wf.vcc_lanes()" in plan for plan in plans) == 4


@pytest.mark.parametrize("mask_id,exec_mask", EXEC_MASKS,
                         ids=[m[0] for m in EXEC_MASKS])
def test_salu_sees_the_packed_compare(mask_id, exec_mask):
    wf, _ = _run(PROGRAMS["salu-readers"], exec_mask, "issue")
    v1, v2 = wf.vgprs[1], wf.vgprs[2]
    active = unpack_lanes(exec_mask)
    gt = pack_lanes((v1 > v2) & active)
    assert int(wf.sgprs[24]) | int(wf.sgprs[25]) << 32 == gt
    assert int(wf.sgprs[26]) == gt >> 32
    assert int(wf.sgprs[27]) == gt & 0xFFFFFFFF
    assert int(wf.sgprs[28]) == (1 if gt else 0)
    lt = pack_lanes((v1 < v2) & active)
    assert wf.vcc == lt
    assert int(wf.sgprs[29]) == (0 if lt else 1)
    assert wf.exec_mask == exec_mask & lt


def test_vcc_write_replaces_pending_lanes():
    wf, _ = _run(PROGRAMS["vcc-write-after-lanes"], MASK64, "issue")
    v1, v2 = wf.vgprs[1], wf.vgprs[2]
    preset = unpack_lanes(PRESET)
    assert np.array_equal(wf.vgprs[3], np.where(preset, v2, v1))
    lt = pack_lanes(v1 < v2)
    want = (lt & ~0xFFFFFFFF) | 0xFFFF0000
    assert int(wf.sgprs[28]) | int(wf.sgprs[29]) << 32 == want
    assert np.array_equal(wf.vgprs[5], np.where(unpack_lanes(want), v2, v1))


@pytest.fixture
def wf():
    return Wavefront(0, assemble("s_endpgm"))


class TestVccForms:
    def test_setter_drops_pending_lanes(self, wf):
        wf.set_vcc_lanes(np.ones(64, dtype=np.bool_))
        wf.vcc = 0x5
        assert wf.vcc == 0x5
        assert np.array_equal(wf.vcc_lanes(), unpack_lanes(0x5))

    def test_set_lanes_drops_the_int(self, wf):
        wf.vcc = PRESET
        wf.vcc_lanes()
        lanes = np.zeros(64, dtype=np.bool_)
        lanes[[0, 33, 63]] = True
        wf.set_vcc_lanes(lanes)
        assert wf.vcc == (1 | 1 << 33 | 1 << 63)

    def test_pending_lanes_pack_once(self, wf):
        lanes = unpack_lanes(PRESET)
        wf.set_vcc_lanes(lanes)
        first = wf.vcc
        assert first == PRESET
        assert wf.vcc is first          # cached, not packed again
        assert wf.vcc_lanes() is lanes  # reading the int keeps the row

    def test_int_unpacks_once(self, wf):
        wf.vcc = PRESET
        lanes = wf.vcc_lanes()
        assert pack_lanes(lanes) == PRESET
        assert wf.vcc_lanes() is lanes
        assert wf.vcc == PRESET

    def test_half_write_keeps_the_other_half_of_pending_lanes(self, wf):
        wf.set_vcc_lanes(unpack_lanes(PRESET))
        wf.write_scalar(regs.VCC_HI, 0)
        assert wf.vcc == PRESET & 0xFFFFFFFF
        assert wf.read_scalar(regs.VCCZ) == 0

    def test_setter_keeps_64_bits(self, wf):
        wf.vcc = -1
        assert wf.vcc == MASK64
        assert wf.vcc_lanes().all()
