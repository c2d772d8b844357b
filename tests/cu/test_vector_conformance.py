"""Per-instruction golden-vector conformance matrix.

Every opcode in ``repro.cu.vector.VECTOR_OPS`` is executed three ways
on wavefronts packed with edge-value operands -- the per-lane golden
model (``execute_lanewise``, the scalar interpreter), the array VALU
path (``operations.execute``) and the prepared plan's emitted
executor -- under full, empty, alternating and single-lane EXEC
masks.  All three must agree bit-for-bit on every VGPR, VCC, SCC and
EXEC, and inactive destination lanes must keep their sentinel.  Every
two- and three-source opcode also runs with ``src0`` read from an SGPR
(``VectorOpSpec.sgpr_line``), one edge value broadcast to every lane:
the emitted executor passes that SGPR to the core as a NumPy scalar.

Two families of variant rows pin the emitted forms that the template
lines do not reach.  Every two-source and carry opcode runs with its
destination aliasing a source (``vdst`` equal to ``src0``, to
``vsrc1``, and to ``vsrc1`` next to an SGPR ``src0``): the emitted
executor computes in full before it writes the row.  Every shift runs
with an inline-constant or literal ``src0`` (and, in the VOP3
encoding, an inline-constant ``src1``): the emitted executor folds a
constant shift amount when it compiles.  Both families run on PRs.

The operand grid is the full cartesian product of the per-type edge
set, packed 64 combinations per wavefront (lanes are free
parallelism).  On PRs a deterministic stride sample of the chunks
runs; exporting ``REPRO_CONFORMANCE_FULL=1`` (the main-branch CI job)
runs every chunk.
"""

import itertools
import os

import numpy as np
import pytest

from repro.asm import assemble
from repro.cu import operations
from repro.cu.prepared import get_prepared
from repro.cu.vector import VECTOR_OPS, execute_lanewise
from repro.cu.wavefront import FULL_EXEC, Wavefront

#: Integer edge values: identities, sign/overflow boundaries, shift
#: amounts at and past the 32-bit width, and a mixed bit pattern.
INT_EDGES = (0, 1, 0xFFFFFFFF, 0x7FFFFFFF, 0x80000000, 31, 32, 0xDEADBEEF)

#: Float edge values as bit patterns: signed zeros, +-1.0, +-inf, NaNs
#: with distinct payloads (payload propagation is part of the
#: contract), denormals at both ends, and the largest finite value.
FLT_EDGES = (0x00000000, 0x80000000,    # +-0.0
             0x3F800000, 0xBF800000,    # +-1.0
             0x7F800000, 0xFF800000,    # +-inf
             0x7FC00001, 0xFFC00123,    # NaNs with payloads
             0x00000001, 0x807FFFFF,    # denormals
             0x7F7FFFFF)                # largest finite

EXEC_MASKS = (("full", FULL_EXEC),
              ("empty", 0),
              ("alternating", 0x5555555555555555),
              ("single-lane", 1 << 17))

#: Prefill for the destination register (and the v_mac_f32
#: accumulator) -- survives in inactive lanes.
SENTINEL = 0xA5A5A5A5

#: Mixed-bit VCC seed: cndmask's selector and addc/subb's carry-in.
VCC_INIT = 0xF0F0F0F00F0F0F0F

FULL_GRID = os.environ.get("REPRO_CONFORMANCE_FULL") == "1"

#: Two-source opcodes that write a VGPR: the aliased-destination rows.
ALIAS_OPS = sorted(name for name, spec in VECTOR_OPS.items()
                   if spec.arity == 2 and spec.encoding != "VOPC")

#: How an aliased row rewrites the template's ``v6`` destination.
ALIASES = (("vdst=src0", False, "v0,"),
           ("vdst=vsrc1", False, "v1,"),
           ("sgpr-src0,vdst=vsrc1", True, "v1,"))

SHIFTS = ("v_lshlrev_b32", "v_lshrrev_b32", "v_ashrrev_i32",
          "v_lshl_b32", "v_lshr_b32", "v_ashr_i32")

#: Constant operands of the shift rows: inline constants at both ends
#: of the integer range and past the five amount bits, then literals.
INLINE_SHIFT_CONSTANTS = ("0", "1", "5", "31", "32", "64", "-1", "-16")
LITERAL_SHIFT_CONSTANTS = ("0x12345", "0x8000001f", "0xdeadbeef")

_PROGRAMS = {}


def _program_for(name, sgpr=False):
    spec = VECTOR_OPS[name]
    return _assembled(spec.sgpr_line if sgpr else spec.line)


def _assembled(line):
    if line not in _PROGRAMS:
        _PROGRAMS[line] = assemble("  {}\n  s_endpgm".format(line))
    return _PROGRAMS[line]


def _pack(combos):
    """64-lane blocks of ``combos``; short tails are padded by
    re-cycling them with a coprime stride so padding lanes still
    exercise varied operands."""
    chunks = []
    for base in range(0, len(combos), 64):
        block = list(combos[base:base + 64])
        pad = 0
        while len(block) < 64:
            block.append(combos[(base + 7 * pad) % len(combos)])
            pad += 1
        chunks.append(block)
    return chunks


def _operand_chunks(spec, sgpr=False):
    """64-lane operand blocks covering the full edge-value product.

    Each chunk is a list of 64 ``arity``-tuples of uint32 bit
    patterns.  With ``sgpr`` (``src0`` read from an SGPR) every lane
    of a chunk shares one ``src0`` edge value.
    """
    edges = FLT_EDGES if spec.is_float else INT_EDGES
    if sgpr:
        chunks = [block for first in edges for block in _pack(
            [(first,) + rest
             for rest in itertools.product(edges, repeat=spec.arity - 1)])]
    else:
        chunks = _pack(list(itertools.product(edges, repeat=spec.arity)))
    if not FULL_GRID and len(chunks) > 4:
        stride = -(-len(chunks) // 4)
        chunks = chunks[::stride]
    return chunks


def _run(name, chunk, exec_mask, mode, sgpr=False, line=None):
    """Execute one chunk through one path; return the full state.

    ``line`` replaces the opcode's template line (a variant row)."""
    spec = VECTOR_OPS[name]
    program = (_program_for(name, sgpr) if line is None
               else _assembled(line))
    wf = Wavefront(0, program)
    wf.exec_mask = FULL_EXEC
    for src in range(spec.arity):
        wf.write_vgpr(src, np.array([combo[src] for combo in chunk],
                                    dtype=np.uint32))
    if sgpr:
        wf.sgprs[8] = chunk[0][0]
    if len(wf.vgprs) > 6:    # only programs that name v6 allocate it
        wf.write_vgpr(6, np.full(64, SENTINEL, dtype=np.uint32))
    wf.vcc = VCC_INIT
    wf.scc = 1
    wf.exec_mask = exec_mask
    inst = program.instructions[0]
    wf.pc += inst.words * 4
    with np.errstate(all="ignore"):
        if mode == "lanewise":
            execute_lanewise(wf, inst)
        elif mode == "array":
            operations.execute(wf, inst)
        else:
            plan = get_prepared(program).plans[0]
            assert plan.exec_fn is not None
            plan.exec_fn(wf)
    return wf


def _state(wf):
    rows = min(7, len(wf.vgprs))
    return {"vgprs": b"".join(wf.read_vgpr(i).tobytes() for i in range(rows)),
            "vcc": wf.vcc, "scc": wf.scc, "exec": wf.exec_mask}


@pytest.mark.parametrize("mask_id,exec_mask", EXEC_MASKS,
                         ids=[m[0] for m in EXEC_MASKS])
@pytest.mark.parametrize("name", sorted(VECTOR_OPS))
def test_conformance(name, mask_id, exec_mask):
    _check(name, mask_id, exec_mask)


@pytest.mark.parametrize("mask_id,exec_mask", EXEC_MASKS,
                         ids=[m[0] for m in EXEC_MASKS])
@pytest.mark.parametrize("name", sorted(
    name for name, spec in VECTOR_OPS.items() if spec.sgpr_line))
def test_sgpr_src0_conformance(name, mask_id, exec_mask):
    """The same matrix with ``src0`` an SGPR broadcast to every lane."""
    _check(name, mask_id, exec_mask, sgpr=True)


@pytest.mark.parametrize("mask_id,exec_mask", EXEC_MASKS,
                         ids=[m[0] for m in EXEC_MASKS])
@pytest.mark.parametrize("alias,sgpr,vdst", ALIASES,
                         ids=[a[0] for a in ALIASES])
@pytest.mark.parametrize("name", ALIAS_OPS)
def test_aliased_destination_conformance(name, alias, sgpr, vdst, mask_id,
                                         exec_mask):
    """The destination row is also a source row (the
    ``v_add_i32 v6, vcc, s20, v6`` shape): every source is read before
    the row is written."""
    spec = VECTOR_OPS[name]
    line = (spec.sgpr_line if sgpr else spec.line).replace("v6,", vdst, 1)
    _check(name, mask_id, exec_mask, sgpr, line)


@pytest.mark.parametrize("mask_id,exec_mask", EXEC_MASKS,
                         ids=[m[0] for m in EXEC_MASKS])
@pytest.mark.parametrize("name", SHIFTS)
def test_constant_src0_shift_conformance(name, mask_id, exec_mask):
    """Shifts with an inline-constant or literal ``src0`` -- the amount
    of the ``rev`` forms, which the emitted executor folds, else the
    shifted value."""
    for constant in INLINE_SHIFT_CONSTANTS + LITERAL_SHIFT_CONSTANTS:
        line = "{} v6, {}, v1".format(name, constant)
        _check(name, mask_id, exec_mask, line=line)


@pytest.mark.parametrize("mask_id,exec_mask", EXEC_MASKS,
                         ids=[m[0] for m in EXEC_MASKS])
@pytest.mark.parametrize("name", [n for n in SHIFTS if "rev" not in n])
def test_constant_src1_shift_conformance(name, mask_id, exec_mask):
    """The VOP3 encoding of a non-``rev`` shift with an inline-constant
    amount in ``src1`` (VOP3 takes no literal), which is folded too."""
    for constant in INLINE_SHIFT_CONSTANTS:
        line = "{} v6, v0, {}".format(name, constant)
        _check(name, mask_id, exec_mask, line=line)


def _check(name, mask_id, exec_mask, sgpr=False, line=None):
    spec = VECTOR_OPS[name]
    for chunk in _operand_chunks(spec, sgpr):
        golden = _run(name, chunk, exec_mask, "lanewise", sgpr, line)
        want = _state(golden)

        # Inactive destination lanes keep their sentinel (VOPC writes
        # a mask, not a VGPR; the template lines write v6).
        if spec.encoding != "VOPC" and line is None:
            dst = golden.read_vgpr(6)
            for lane in range(64):
                if not exec_mask >> lane & 1:
                    assert dst[lane] == SENTINEL, (
                        "{}: golden model touched inactive lane {}"
                        .format(name, lane))

        for mode in ("array", "prepared"):
            got = _state(_run(name, chunk, exec_mask, mode, sgpr, line))
            for key in ("vgprs", "vcc", "scc", "exec"):
                assert got[key] == want[key], (
                    "{} [{}] {}: {} diverges from the golden model"
                    .format(line or name, mask_id, mode, key))


def test_registry_covers_every_encoding():
    """The matrix really spans all five encodings."""
    encodings = {spec.encoding for spec in VECTOR_OPS.values()}
    assert encodings == {"VOP1", "VOP2", "VOPC", "VOP3", "VOP3b"}
    assert len(VECTOR_OPS) >= 40


def test_every_registry_line_assembles_specialized():
    """Every registry template assembles and gets an emitted
    (non-fallback) prepared executor -- the compiled engine never
    silently drops back to the generic dispatcher for a vectorized
    opcode."""
    for name in sorted(VECTOR_OPS):
        for sgpr in (False, True) if VECTOR_OPS[name].sgpr_line else (False,):
            plan = get_prepared(_program_for(name, sgpr)).plans[0]
            assert plan.exec_fn is not None, name
            assert plan.specialized, name
