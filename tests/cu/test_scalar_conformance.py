"""Per-instruction conformance matrix for the emitted scalar executors.

Every SOP1/SOP2/SOPK/SOPC form the ALU specializer emits -- 32-bit
and 64-bit operands, ``saveexec``, special sources and destinations,
inline constants and literals -- plus every SOPP branch runs two ways
on wavefronts seeded with edge-value SGPRs: the reference dispatcher
(``operations.execute``) and the prepared plan's emitted executor.
Both must agree bit-for-bit on every SGPR, SCC, VCC, EXEC, M0 and the
PC, under each SCC input, two VCC patterns and the four EXEC masks of
the vector matrix.

On PRs a deterministic stride sample of the states runs; exporting
``REPRO_CONFORMANCE_FULL=1`` (the main-branch CI job) runs them all.
"""

import itertools
import os

import pytest

from repro.asm import assemble
from repro.cu import operations
from repro.cu.prepared import get_prepared
from repro.cu.wavefront import Wavefront

from .test_vector_conformance import EXEC_MASKS, INT_EDGES, VCC_INIT

FULL_GRID = os.environ.get("REPRO_CONFORMANCE_FULL") == "1"

#: Sources live in s4..s7 (s[4:5] and s[6:7] as pairs); results land
#: in s10/s[10:11] unless the form targets a special register.
_SOP2_32 = ["{} s10, s4, s5".format(name)
            for name in sorted(operations.SOP2_IMPL)]
_SOP2_64 = ["{} s[10:11], s[4:5], s[6:7]".format(name)
            for name in sorted(operations.SOP2_IMPL64)]
_SOP1_32 = ["{} s10, s4".format(name)
            for name in sorted(operations.SOP1_IMPL)]
_SOPC = ["{} s4, s5".format(name) for name in (
    "s_cmp_{}_{}".format(cmp, ty)
    for ty in ("i32", "u32")
    for cmp in ("eq", "lg", "gt", "ge", "lt", "le"))]

FORMS = _SOP2_32 + _SOP2_64 + _SOP1_32 + _SOPC + [
    # Special, inline-constant and literal operands.
    "s_add_u32 s10, s4, 0x12345678",
    "s_sub_i32 s10, -16, s5",
    "s_addc_u32 vcc_lo, s4, 64",
    "s_and_b32 m0, exec_lo, s5",
    "s_or_b32 exec_hi, vcc_hi, s4",
    "s_cselect_b32 s10, scc, m0",
    "s_xor_b32 s10, vccz, execz",
    "s_mov_b32 m0, s4",
    "s_not_b32 vcc_hi, s4",
    "s_cmp_lt_i32 s4, -3",
    "s_cmp_ge_u32 m0, 0xfffffff0",
    "s_and_b64 vcc, vcc, exec",
    "s_or_b64 exec, exec, s[4:5]",
    "s_xor_b64 s[10:11], -1, s[6:7]",
    # 64-bit moves, not and saveexec.
    "s_mov_b64 s[10:11], s[4:5]",
    "s_mov_b64 exec, s[6:7]",
    "s_mov_b64 vcc, exec",
    "s_mov_b64 s[10:11], 0",
    "s_not_b64 s[10:11], s[4:5]",
    "s_not_b64 vcc, vcc",
    "s_and_saveexec_b64 s[10:11], s[4:5]",
    "s_or_saveexec_b64 s[10:11], s[6:7]",
    "s_and_saveexec_b64 s[10:11], vcc",
    "s_and_saveexec_b64 vcc, exec",
    # SOPK.
    "s_movk_i32 s10, 0x8001",
    "s_movk_i32 m0, 0x7fff",
    "s_addk_i32 s4, -7",
    "s_addk_i32 s5, 0x7fff",
    "s_addk_i32 vcc_lo, 1",
    "s_mulk_i32 s4, -3",
    "s_mulk_i32 s5, 0x4000",
    # Program control.
    "s_nop 0",
    "s_branch L",
    "s_cbranch_scc0 L",
    "s_cbranch_scc1 L",
    "s_cbranch_vccz L",
    "s_cbranch_vccnz L",
    "s_cbranch_execz L",
    "s_cbranch_execnz L",
]

#: (s4, s5) edge pairs x SCC in x VCC x EXEC; s[6:7] mirrors s[4:5].
STATES = list(itertools.product(
    itertools.product(INT_EDGES, repeat=2), (0, 1), (VCC_INIT, 0),
    [mask for _, mask in EXEC_MASKS]))
if not FULL_GRID:
    STATES = STATES[::7]

M0_INIT = 0x0BADF00D

_PROGRAMS = {}


def _program_for(line):
    if line not in _PROGRAMS:
        _PROGRAMS[line] = assemble(
            "  s_nop 0\n  {}\n  s_nop 0\nL:\n  s_endpgm".format(line))
    return _PROGRAMS[line]


def _run(line, state, emitted):
    (a, b), scc, vcc, exec_mask = state
    program = _program_for(line)
    wf = Wavefront(0, program)
    wf.sgprs[:] = range(0xC0DE0000, 0xC0DE0000 + len(wf.sgprs))
    wf.sgprs[4:8] = (a, b, b, a)
    wf.scc, wf.vcc, wf.exec_mask, wf.m0 = scc, vcc, exec_mask, M0_INIT
    inst = program.instructions[1]
    wf.pc = inst.address + inst.words * 4
    if emitted:
        get_prepared(program).plans[1].exec_fn(wf)
    else:
        operations.execute(wf, inst)
    return {"sgprs": wf.sgprs.tobytes(), "scc": wf.scc, "vcc": wf.vcc,
            "exec": wf.exec_mask, "m0": wf.m0, "pc": wf.pc}


@pytest.mark.parametrize("line", FORMS)
def test_conformance(line):
    plan = get_prepared(_program_for(line)).plans[1]
    assert plan.specialized, "{}: not emitted".format(line)
    for state in STATES:
        want = _run(line, state, emitted=False)
        got = _run(line, state, emitted=True)
        for key in want:
            assert got[key] == want[key], (
                "{} {}: emitted executor diverges in {}".format(
                    line, state, key))


def test_forms_cover_every_scalar_format():
    """The matrix spans all five scalar encodings and both widths."""
    fmts = {get_prepared(_program_for(line)).plans[1].inst.fmt.name
            for line in FORMS}
    assert fmts == {"SOP1", "SOP2", "SOPK", "SOPC", "SOPP"}
