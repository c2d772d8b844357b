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

_PROGRAMS = {}


def _program_for(name, sgpr=False):
    if (name, sgpr) not in _PROGRAMS:
        spec = VECTOR_OPS[name]
        _PROGRAMS[name, sgpr] = assemble("  {}\n  s_endpgm".format(
            spec.sgpr_line if sgpr else spec.line))
    return _PROGRAMS[name, sgpr]


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


def _run(name, chunk, exec_mask, mode, sgpr=False):
    """Execute one chunk through one path; return the full state."""
    spec = VECTOR_OPS[name]
    program = _program_for(name, sgpr)
    wf = Wavefront(0, program)
    wf.exec_mask = FULL_EXEC
    for src in range(spec.arity):
        wf.write_vgpr(src, np.array([combo[src] for combo in chunk],
                                    dtype=np.uint32))
    if sgpr:
        wf.sgprs[8] = chunk[0][0]
    if spec.encoding != "VOPC":    # VOPC programs allocate no v6
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


def _check(name, mask_id, exec_mask, sgpr=False):
    spec = VECTOR_OPS[name]
    for chunk in _operand_chunks(spec, sgpr):
        golden = _run(name, chunk, exec_mask, "lanewise", sgpr)
        want = _state(golden)

        # Inactive destination lanes keep their sentinel (VOPC writes
        # a mask, not a VGPR; everything else writes v6).
        if spec.encoding != "VOPC":
            dst = golden.read_vgpr(6)
            for lane in range(64):
                if not exec_mask >> lane & 1:
                    assert dst[lane] == SENTINEL, (
                        "{}: golden model touched inactive lane {}"
                        .format(name, lane))

        for mode in ("array", "prepared"):
            got = _state(_run(name, chunk, exec_mask, mode, sgpr))
            for key in ("vgprs", "vcc", "scc", "exec"):
                assert got[key] == want[key], (
                    "{} [{}] {}: {} diverges from the golden model"
                    .format(name, mask_id, mode, key))


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
