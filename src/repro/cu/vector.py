"""Lane-vectorized VALU cores and their per-lane golden model.

This module is the single home of the wavefront-wide (64-lane) NumPy
implementations of the VOP1 / VOP2 / VOP3 / VOPC / VOP3b instruction
classes.  Registers are ``(64,) uint32`` columns; float ops go through
reinterpret-cast views (``.view(np.float32)``) so every lane keeps the
exact IEEE-754 bit pattern the scalar SI datapath would produce — NaN
payloads, signed zeros and denormals included.  EXEC masking is a
writeback concern only: cores compute all 64 lanes, the caller masks
the store (`Wavefront.write_vgpr` / :func:`mask_from_bools`); the
emitted form of a :data:`UFUNC_IMPL` core computes only the active
lanes, into the destination row.

Three layers live here:

* **Array cores** (``VBIN_IMPL`` / ``VUN_IMPL`` / ``VTRI_IMPL`` /
  ``VCMP_IMPL``) plus the packed-mask and carry-chain helpers — these
  are what :mod:`repro.cu.operations` and the code emitted by
  :mod:`repro.cu.superblock` execute.
* **A per-lane scalar interpreter** (:func:`execute_lanewise`) that
  re-implements every vectorized opcode with Python-int / NumPy-scalar
  arithmetic, one lane at a time, writing only EXEC-enabled lanes.  It
  shares *no* array code with the fast path, so agreement between the
  two is evidence the vectorization is semantics-preserving.  The
  ``vector`` fuzz oracle and the conformance matrix
  (``tests/cu/test_vector_conformance.py``) pin the two bit-identical.
* **The opcode registry** (:data:`VECTOR_OPS`) enumerating every
  vectorized instruction with its encoding class and a canonical
  assembly template, which the conformance matrix iterates.

Why the helpers avoid 64-bit widening: ``a + b`` on uint32 wraps, and
the carry-out is recoverable as ``result < a`` (with a carry-in, the
two increments cannot both wrap, so OR-ing the two comparisons is the
exact 33-bit carry).  That keeps the hot executors on 32-bit arrays.
"""

from __future__ import annotations

import contextlib
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import SimulationError
from ..isa import registers as regs
from ..isa.formats import Format
from .wavefront import MASK32, MASK64, pack_lanes, unpack_lanes

# ---------------------------------------------------------------------------
# Packed-mask helpers (EXEC / VCC <-> per-lane booleans).
# ---------------------------------------------------------------------------

def bools_from_mask(mask64):
    """Per-lane booleans from a packed 64-bit mask (lane 0 = bit 0)."""
    return unpack_lanes(int(mask64) & MASK64)


def mask_from_bools(bools, lane_mask=None):
    """Pack per-lane booleans into a 64-bit int, zeroing inactive lanes.

    ``lane_mask=None`` means all lanes are active (the emitted
    executors pass ``None`` when EXEC is known to be full).
    """
    if lane_mask is not None:
        bools = np.logical_and(bools, lane_mask)
    return pack_lanes(bools)


# ---------------------------------------------------------------------------
# Carry-chain helpers (VOP2/VOP3b v_add_i32 .. v_subb_u32).
# ---------------------------------------------------------------------------

def add_with_carry(a, b, cin=None):
    """``(a + b (+ cin)) mod 2**32`` and the exact carry-out per lane.

    ``a``/``b`` are uint32 arrays, ``cin`` a bool array (or None).
    The carry-out equals the widened ``(a64 + b64 + cin) >> 32`` test:
    the first add wraps iff ``result < a``, and adding the 0/1 carry-in
    can only wrap when the first add did not reach 2**32, so the two
    wrap conditions never co-occur and their OR is the 33rd bit.
    """
    result = a + b
    carry = result < a
    if cin is not None:
        inc = cin.view(np.uint8)
        result2 = result + inc
        carry = carry | (result2 < result)
        result = result2
    return result, carry


def sub_with_borrow(a, b, cin=None):
    """``(a - b (- cin)) mod 2**32`` and the exact borrow-out per lane.

    Borrow iff ``a < b + cin`` as integers: the first subtract borrows
    iff ``a < b``, and subtracting the 0/1 carry-in borrows iff the
    intermediate difference is smaller than it — together exactly the
    widened ``(a64 - b64 - cin) >> 32 != 0`` test the interpreter used.
    """
    result = a - b
    borrow = a < b
    if cin is not None:
        inc = cin.view(np.uint8)
        borrow = borrow | (result < inc)
        result = result - inc
    return result, borrow


# ---------------------------------------------------------------------------
# Array views and small vector utilities.
# ---------------------------------------------------------------------------

def _sv(a):
    """Signed view of a uint32 vector."""
    return a.view(np.int32)


def _fv(a):
    """Float32 view of a uint32 vector."""
    return a.view(np.float32)


def _from_f(f):
    """Pack a float32 array back into uint32 bit patterns."""
    return np.asarray(f, dtype=np.float32).view(np.uint32)


def _shift_amounts(a):
    return (a & np.uint32(31)).astype(np.uint32)


def _sext24(a):
    v = (a & np.uint32(0xFFFFFF)).astype(np.int64)
    return np.where(v & 0x800000, v - 0x1000000, v)


def _cvt_u32_f32(a):
    f = _fv(a).astype(np.float64)
    f = np.nan_to_num(f, nan=0.0)
    return np.clip(np.trunc(f), 0, 4294967295).astype(np.uint32)


def _cvt_i32_f32(a):
    f = _fv(a).astype(np.float64)
    f = np.nan_to_num(f, nan=0.0)
    return np.clip(np.trunc(f), -2147483648, 2147483647) \
        .astype(np.int32).view(np.uint32)


def _rndne(a):
    # IEEE round-to-nearest-even, which is what numpy's rint does.
    return _from_f(np.rint(_fv(a)))


def _safe_unary(fn):
    """Wrap a transcendental so invalid inputs follow IEEE (inf/nan)."""
    def wrapped(a):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return _from_f(fn(_fv(a).astype(np.float64)).astype(np.float32))
    return wrapped


def _bfrev_vec(a):
    v = a.copy()
    v = ((v >> np.uint32(1)) & np.uint32(0x55555555)) | \
        ((v & np.uint32(0x55555555)) << np.uint32(1))
    v = ((v >> np.uint32(2)) & np.uint32(0x33333333)) | \
        ((v & np.uint32(0x33333333)) << np.uint32(2))
    v = ((v >> np.uint32(4)) & np.uint32(0x0F0F0F0F)) | \
        ((v & np.uint32(0x0F0F0F0F)) << np.uint32(4))
    v = ((v >> np.uint32(8)) & np.uint32(0x00FF00FF)) | \
        ((v & np.uint32(0x00FF00FF)) << np.uint32(8))
    return (v >> np.uint32(16)) | (v << np.uint32(16))


def _mul_hi_u32(a, b):
    wide = a.astype(np.uint64) * b.astype(np.uint64)
    return (wide >> np.uint64(32)).astype(np.uint32)


def _mul_hi_i32(a, b):
    wide = _sv(a).astype(np.int64) * _sv(b).astype(np.int64)
    return ((wide >> np.int64(32)) & np.int64(MASK32)).astype(np.uint32)


def _v_bfe_u32(a, b, c):
    offset = (b & np.uint32(31)).astype(np.uint32)
    width = (c & np.uint32(31)).astype(np.uint32)
    mask = np.where(width == 0, np.uint32(0),
                    ((np.uint64(1) << width.astype(np.uint64)) - np.uint64(1))
                    .astype(np.uint32))
    return (a >> offset) & mask


def _v_bfe_i32(a, b, c):
    u = _v_bfe_u32(a, b, c)
    width = (c & np.uint32(31)).astype(np.uint32)
    sign_bit = np.where(width == 0, np.uint32(0),
                        np.uint32(1) << np.maximum(width, np.uint32(1)) - np.uint32(1))
    extended = np.where((width != 0) & ((u & sign_bit) != 0),
                        u | (~(sign_bit - np.uint32(1)) & ~sign_bit), u)
    return extended


def _v_alignbit(a, b, c):
    wide = (a.astype(np.uint64) << np.uint64(32)) | b.astype(np.uint64)
    return ((wide >> (c & np.uint32(31)).astype(np.uint64)) &
            np.uint64(MASK32)).astype(np.uint32)


# ---------------------------------------------------------------------------
# Array cores: one masked NumPy op per instruction.
# ---------------------------------------------------------------------------

#: The cores that are exactly one uint32 ufunc of their two sources:
#: name -> ufunc.  The core tables below hold these very ufuncs, and the
#: emitter computes them straight into the destination row
#: (``uf(a, b, out=row)``, plus ``where=`` under partial EXEC), so the
#: reference and the emitted form share one definition.  A uint32
#: multiply wraps to the low word, which is ``v_mul_lo``'s result for
#: either signedness.
UFUNC_IMPL = {
    "v_and_b32": np.bitwise_and,
    "v_or_b32": np.bitwise_or,
    "v_xor_b32": np.bitwise_xor,
    "v_min_u32": np.minimum,
    "v_max_u32": np.maximum,
    "v_mul_lo_u32": np.multiply,
    "v_mul_lo_i32": np.multiply,
}

#: Two-source vector cores: name -> f(a, b) -> uint32 array.
VBIN_IMPL = {
    "v_add_f32": lambda a, b: _from_f(_fv(a) + _fv(b)),
    "v_sub_f32": lambda a, b: _from_f(_fv(a) - _fv(b)),
    "v_subrev_f32": lambda a, b: _from_f(_fv(b) - _fv(a)),
    "v_mul_f32": lambda a, b: _from_f(_fv(a) * _fv(b)),
    "v_min_f32": lambda a, b: _from_f(np.minimum(_fv(a), _fv(b))),
    "v_max_f32": lambda a, b: _from_f(np.maximum(_fv(a), _fv(b))),
    "v_mul_i32_i24": lambda a, b: (
        (_sext24(a) * _sext24(b)) & np.int64(MASK32)).astype(np.uint32),
    "v_min_i32": lambda a, b: np.minimum(_sv(a), _sv(b)).view(np.uint32),
    "v_max_i32": lambda a, b: np.maximum(_sv(a), _sv(b)).view(np.uint32),
    "v_min_u32": UFUNC_IMPL["v_min_u32"],
    "v_max_u32": UFUNC_IMPL["v_max_u32"],
    "v_lshr_b32": lambda a, b: a >> _shift_amounts(b),
    "v_lshrrev_b32": lambda a, b: b >> _shift_amounts(a),
    "v_ashr_i32": lambda a, b: (_sv(a) >> _shift_amounts(b).astype(np.int32))
    .view(np.uint32),
    "v_ashrrev_i32": lambda a, b: (_sv(b) >> _shift_amounts(a).astype(np.int32))
    .view(np.uint32),
    "v_lshl_b32": lambda a, b: a << _shift_amounts(b),
    "v_lshlrev_b32": lambda a, b: b << _shift_amounts(a),
    "v_and_b32": UFUNC_IMPL["v_and_b32"],
    "v_or_b32": UFUNC_IMPL["v_or_b32"],
    "v_xor_b32": UFUNC_IMPL["v_xor_b32"],
}

#: One-source vector cores: name -> f(a) -> uint32 array.
VUN_IMPL = {
    "v_mov_b32": lambda a: a.copy(),
    "v_not_b32": lambda a: ~a,
    "v_bfrev_b32": lambda a: _bfrev_vec(a),
    "v_cvt_f32_i32": lambda a: _from_f(_sv(a).astype(np.float32)),
    "v_cvt_f32_u32": lambda a: _from_f(a.astype(np.float32)),
    "v_cvt_u32_f32": _cvt_u32_f32,
    "v_cvt_i32_f32": _cvt_i32_f32,
    "v_fract_f32": lambda a: _from_f(_fv(a) - np.floor(_fv(a))),
    "v_trunc_f32": lambda a: _from_f(np.trunc(_fv(a))),
    "v_ceil_f32": lambda a: _from_f(np.ceil(_fv(a))),
    "v_rndne_f32": _rndne,
    "v_floor_f32": lambda a: _from_f(np.floor(_fv(a))),
    "v_exp_f32": _safe_unary(np.exp2),
    "v_log_f32": _safe_unary(np.log2),
    "v_rcp_f32": _safe_unary(lambda x: 1.0 / x),
    "v_rsq_f32": _safe_unary(lambda x: 1.0 / np.sqrt(x)),
    "v_sqrt_f32": _safe_unary(np.sqrt),
    "v_sin_f32": _safe_unary(np.sin),
    "v_cos_f32": _safe_unary(np.cos),
}

#: Three-source (VOP3-native) cores: name -> f(a, b[, c]) -> uint32 array.
VTRI_IMPL = {
    "v_mad_f32": lambda a, b, c: _from_f(_fv(a) * _fv(b) + _fv(c)),
    "v_fma_f32": lambda a, b, c: _from_f(
        np.float32(1) * (_fv(a).astype(np.float64) * _fv(b).astype(np.float64)
                         + _fv(c).astype(np.float64)).astype(np.float32)),
    "v_mad_i32_i24": lambda a, b, c: (
        (_sext24(a) * _sext24(b) + _sv(c).astype(np.int64)) & np.int64(MASK32)
    ).astype(np.uint32),
    "v_bfe_u32": _v_bfe_u32,
    "v_bfe_i32": _v_bfe_i32,
    "v_bfi_b32": lambda a, b, c: (a & b) | (~a & c),
    "v_alignbit_b32": _v_alignbit,
    "v_mul_lo_u32": UFUNC_IMPL["v_mul_lo_u32"],
    "v_mul_hi_u32": _mul_hi_u32,
    "v_mul_lo_i32": UFUNC_IMPL["v_mul_lo_i32"],
    "v_mul_hi_i32": _mul_hi_i32,
}

#: Vector compare cores: comparison name -> NumPy predicate.
VCMP_IMPL = {
    "lt": np.less, "eq": np.equal, "le": np.less_equal,
    "gt": np.greater, "lg": np.not_equal, "ge": np.greater_equal,
}

#: VOP3-encoded ops that take two sources despite the 3-source format.
_VTRI_TWO_SRC = frozenset((
    "v_mul_lo_u32", "v_mul_hi_u32", "v_mul_lo_i32", "v_mul_hi_i32"))

#: Carry/borrow ops (VOP2 writing VCC, or VOP3b writing an SGPR pair).
CARRY_OPS = ("v_add_i32", "v_sub_i32", "v_subrev_i32",
             "v_addc_u32", "v_subb_u32")


# ---------------------------------------------------------------------------
# The opcode registry the conformance matrix iterates.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VectorOpSpec:
    """One vectorized opcode: encoding class + canonical asm template.

    ``line`` uses a fixed register convention — sources ``v0``/``v1``/
    ``v2``, destination ``v6``, masks through ``vcc`` — so a test can
    assemble any registry entry without knowing its shape.
    ``sgpr_line`` (two- and three-source entries only) is the same
    template with ``src0`` read from ``s8``, broadcast to every lane.
    """

    name: str
    encoding: str       # "VOP1" | "VOP2" | "VOPC" | "VOP3" | "VOP3b"
    arity: int          # vector sources consumed
    is_float: bool      # sources are float32 bit patterns
    line: str
    sgpr_line: Optional[str] = None


def _op_spec(name, encoding, arity, line):
    sgpr_line = line.replace(" v0,", " s8,", 1) if arity >= 2 else None
    return VectorOpSpec(name, encoding, arity, name.endswith("_f32"), line,
                        sgpr_line)


def _build_registry():
    ops = {}
    for name in VUN_IMPL:
        ops[name] = _op_spec(name, "VOP1", 1, "{} v6, v0".format(name))
    for name in VBIN_IMPL:
        ops[name] = _op_spec(name, "VOP2", 2, "{} v6, v0, v1".format(name))
    for name in VTRI_IMPL:
        if name in _VTRI_TWO_SRC:
            ops[name] = _op_spec(name, "VOP3", 2, "{} v6, v0, v1".format(name))
        else:
            ops[name] = _op_spec(name, "VOP3", 3,
                                 "{} v6, v0, v1, v2".format(name))
    for cmp_name in VCMP_IMPL:
        for ty in ("f32", "i32", "u32"):
            name = "v_cmp_{}_{}".format(cmp_name, ty)
            ops[name] = _op_spec(name, "VOPC", 2,
                                 "{} vcc, v0, v1".format(name))
    ops["v_cndmask_b32"] = _op_spec(
        "v_cndmask_b32", "VOP2", 2, "v_cndmask_b32 v6, v0, v1, vcc")
    ops["v_mac_f32"] = _op_spec("v_mac_f32", "VOP2", 2, "v_mac_f32 v6, v0, v1")
    for name in ("v_add_i32", "v_sub_i32", "v_subrev_i32"):
        ops[name] = _op_spec(name, "VOP3b", 2,
                             "{} v6, vcc, v0, v1".format(name))
    for name in ("v_addc_u32", "v_subb_u32"):
        ops[name] = _op_spec(name, "VOP3b", 2,
                             "{} v6, vcc, v0, v1, vcc".format(name))
    return ops


#: Every vectorized opcode: name -> VectorOpSpec.
VECTOR_OPS = _build_registry()


# ---------------------------------------------------------------------------
# Per-lane golden model: scalar re-implementation of every core.
#
# Deliberately shares no array code with the cores above.  Integer ops
# are Python-int arithmetic; float ops run one lane at a time on
# 1-element arrays so they hit the same elementwise ufunc loops as the
# 64-lane cores (bit-identical rounding and NaN-payload behavior --
# NumPy float32 *scalars* resolve two-NaN pairs differently, see
# _lane_f32).
# ---------------------------------------------------------------------------

def _bits_to_f32(bits):
    return np.array([bits & MASK32], dtype=np.uint32).view(np.float32)[0]


def _f32_to_bits(value):
    return int(np.array([value], dtype=np.float32).view(np.uint32)[0])


def _lane_s32(x):
    x &= MASK32
    return x - 0x100000000 if x & 0x80000000 else x


def _lane_sext24(x):
    v = x & 0xFFFFFF
    return v - 0x1000000 if v & 0x800000 else v


def _lane_brev32(x):
    return int("{:032b}".format(x & MASK32)[::-1], 2)


def _lane_f32(bits):
    """One lane's bit pattern as a 1-element float32 array.

    Float lane cores evaluate on 1-element arrays rather than NumPy
    scalars: scalar float math resolves two-NaN operand pairs to the
    *second* operand's payload while the elementwise ufunc loops (the
    architectural contract, set by the array cores) keep the first.
    A 1-element array runs the same ufunc inner loop, one lane at a
    time.
    """
    return np.array([bits & MASK32], dtype=np.uint32).view(np.float32)


def _lane_fbin(fn):
    def core(a, b):
        return int(_from_f(fn(_lane_f32(a), _lane_f32(b)))[0])
    return core


def _lane_funary(fn):
    def core(a):
        return int(_from_f(fn(_lane_f32(a)))[0])
    return core


def _lane_funary64(fn):
    # Mirrors _safe_unary: evaluate in float64, round once to float32.
    def core(a):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return int(_from_f(
                fn(_lane_f32(a).astype(np.float64)).astype(np.float32))[0])
    return core


def _lane_mad_f32(a, b, c):
    return int(_from_f(_lane_f32(a) * _lane_f32(b) + _lane_f32(c))[0])


def _lane_cvt_u32_f32(a):
    f = np.float64(_bits_to_f32(a))
    if np.isnan(f):
        return 0
    f = np.trunc(f)
    if f < 0.0:
        return 0
    if f > 4294967295.0:
        return 4294967295
    return int(np.uint32(f))


def _lane_cvt_i32_f32(a):
    f = np.float64(_bits_to_f32(a))
    if np.isnan(f):
        return 0
    f = np.trunc(f)
    if f < -2147483648.0:
        f = np.float64(-2147483648.0)
    elif f > 2147483647.0:
        f = np.float64(2147483647.0)
    return int(np.int32(f)) & MASK32


def _lane_bfe_u32(a, b, c):
    offset = b & 31
    width = c & 31
    if width == 0:
        return 0
    return (a >> offset) & ((1 << width) - 1)


def _lane_bfe_i32(a, b, c):
    width = c & 31
    field = _lane_bfe_u32(a, b, c)
    if width and field & (1 << (width - 1)):
        field |= MASK32 ^ ((1 << width) - 1)
    return field & MASK32


_LANE_BIN = {
    "v_add_f32": _lane_fbin(lambda x, y: x + y),
    "v_sub_f32": _lane_fbin(lambda x, y: x - y),
    "v_subrev_f32": _lane_fbin(lambda x, y: y - x),
    "v_mul_f32": _lane_fbin(lambda x, y: x * y),
    "v_min_f32": _lane_fbin(np.minimum),
    "v_max_f32": _lane_fbin(np.maximum),
    "v_mul_i32_i24": lambda a, b: (_lane_sext24(a) * _lane_sext24(b)) & MASK32,
    "v_min_i32": lambda a, b: a if _lane_s32(a) < _lane_s32(b) else b,
    "v_max_i32": lambda a, b: a if _lane_s32(a) > _lane_s32(b) else b,
    "v_min_u32": lambda a, b: a if a < b else b,
    "v_max_u32": lambda a, b: a if a > b else b,
    "v_lshr_b32": lambda a, b: a >> (b & 31),
    "v_lshrrev_b32": lambda a, b: b >> (a & 31),
    "v_ashr_i32": lambda a, b: (_lane_s32(a) >> (b & 31)) & MASK32,
    "v_ashrrev_i32": lambda a, b: (_lane_s32(b) >> (a & 31)) & MASK32,
    "v_lshl_b32": lambda a, b: (a << (b & 31)) & MASK32,
    "v_lshlrev_b32": lambda a, b: (b << (a & 31)) & MASK32,
    "v_and_b32": lambda a, b: a & b,
    "v_or_b32": lambda a, b: a | b,
    "v_xor_b32": lambda a, b: a ^ b,
}

_LANE_UN = {
    "v_mov_b32": lambda a: a,
    "v_not_b32": lambda a: (~a) & MASK32,
    "v_bfrev_b32": _lane_brev32,
    "v_cvt_f32_i32": lambda a: _f32_to_bits(np.float32(_lane_s32(a))),
    "v_cvt_f32_u32": lambda a: _f32_to_bits(np.float32(a)),
    "v_cvt_u32_f32": _lane_cvt_u32_f32,
    "v_cvt_i32_f32": _lane_cvt_i32_f32,
    "v_fract_f32": _lane_funary(lambda x: x - np.floor(x)),
    "v_trunc_f32": _lane_funary(np.trunc),
    "v_ceil_f32": _lane_funary(np.ceil),
    "v_rndne_f32": _lane_funary(np.rint),
    "v_floor_f32": _lane_funary(np.floor),
    "v_exp_f32": _lane_funary64(np.exp2),
    "v_log_f32": _lane_funary64(np.log2),
    "v_rcp_f32": _lane_funary64(lambda x: 1.0 / x),
    "v_rsq_f32": _lane_funary64(lambda x: 1.0 / np.sqrt(x)),
    "v_sqrt_f32": _lane_funary64(np.sqrt),
    "v_sin_f32": _lane_funary64(np.sin),
    "v_cos_f32": _lane_funary64(np.cos),
}

_LANE_TRI = {
    "v_mad_f32": _lane_mad_f32,
    "v_fma_f32": lambda a, b, c: int(_from_f(np.float32(1) * (
        _lane_f32(a).astype(np.float64) * _lane_f32(b).astype(np.float64)
        + _lane_f32(c).astype(np.float64)).astype(np.float32))[0]),
    "v_mad_i32_i24": lambda a, b, c: (
        _lane_sext24(a) * _lane_sext24(b) + _lane_s32(c)) & MASK32,
    "v_bfe_u32": _lane_bfe_u32,
    "v_bfe_i32": _lane_bfe_i32,
    "v_bfi_b32": lambda a, b, c: (a & b) | (((~a) & MASK32) & c),
    "v_alignbit_b32": lambda a, b, c: (((a << 32) | b) >> (c & 31)) & MASK32,
    "v_mul_lo_u32": lambda a, b: (a * b) & MASK32,
    "v_mul_hi_u32": lambda a, b: (a * b) >> 32,
    "v_mul_lo_i32": lambda a, b: (a * b) & MASK32,
    "v_mul_hi_i32": lambda a, b: (
        (_lane_s32(a) * _lane_s32(b)) >> 32) & MASK32,
}

#: Comparison predicates; on NumPy float32 scalars these follow IEEE
#: unordered semantics exactly like the np.less/... array ufuncs.
_LANE_CMP = {
    "lt": operator.lt, "eq": operator.eq, "le": operator.le,
    "gt": operator.gt, "lg": operator.ne, "ge": operator.ge,
}


def _lane_add(a, b, cin):
    total = a + b + cin
    return total & MASK32, total > MASK32


def _lane_sub(a, b, cin):
    return (a - b - cin) & MASK32, a < b + cin


_LANE_CARRY = {
    "v_add_i32": lambda a, b, cin: _lane_add(a, b, 0),
    "v_addc_u32": _lane_add,
    "v_sub_i32": lambda a, b, cin: _lane_sub(a, b, 0),
    "v_subrev_i32": lambda a, b, cin: _lane_sub(b, a, 0),
    "v_subb_u32": _lane_sub,
}


def execute_lanewise(wf, inst):
    """Execute one vector instruction lane by lane (the golden model).

    Reads operands in the same sequence (and with the same failure
    points) as the array path, snapshots every source as Python ints,
    then computes and writes each EXEC-enabled lane individually —
    inactive lanes are never stored to, masks are built bit by bit.
    """
    sp = inst.spec
    name = sp.name
    f = inst.fields
    srcs = [wf.read_vector(f["src0"], inst.literal)]
    if inst.fmt in (Format.VOP2, Format.VOPC):
        srcs.append(wf.read_vgpr(f["vsrc1"]))
    elif inst.fmt is Format.VOP3:
        srcs.append(wf.read_vector(f["src1"], inst.literal))
        if sp.num_srcs >= 3 or name == "v_mac_f32":
            srcs.append(wf.read_vector(f["src2"], inst.literal))
    # Sources may alias the destination row; snapshot before writing.
    ints = [[int(x) for x in s] for s in srcs]
    exec_bits = wf.exec_mask
    lanes = [lane for lane in range(64) if (exec_bits >> lane) & 1]

    with np.errstate(all="ignore"):
        if name.startswith("v_cmp_"):
            _, _, cmp_name, ty = name.split("_")
            pred = _LANE_CMP[cmp_name]
            a, b = ints[0], ints[1]
            result = 0
            for lane in lanes:
                x, y = a[lane], b[lane]
                if ty == "f32":
                    x, y = _bits_to_f32(x), _bits_to_f32(y)
                elif ty == "i32":
                    x, y = _lane_s32(x), _lane_s32(y)
                if pred(x, y):
                    result |= 1 << lane
            sdst = f.get("sdst")
            if sdst is None or sdst == regs.VCC_LO:
                wf.vcc = result
            else:
                wf.write_scalar64(sdst, result)
            return

        if name == "v_cndmask_b32":
            selector = wf.read_scalar64(f["src2"]) \
                if inst.fmt is Format.VOP3 else wf.vcc
            row = wf.vgprs[f["vdst"]]
            a, b = ints[0], ints[1]
            for lane in lanes:
                row[lane] = b[lane] if (selector >> lane) & 1 else a[lane]
            return

        if name in _LANE_CARRY:
            core = _LANE_CARRY[name]
            if name in ("v_addc_u32", "v_subb_u32"):
                cin_mask = wf.read_scalar64(f["src2"]) \
                    if inst.fmt is Format.VOP3 else wf.vcc
            else:
                cin_mask = 0
            a, b = ints[0], ints[1]
            carry_mask = 0
            results = {}
            for lane in lanes:
                value, carry = core(a[lane], b[lane], (cin_mask >> lane) & 1)
                results[lane] = value
                if carry:
                    carry_mask |= 1 << lane
            sdst = f.get("sdst", regs.VCC_LO) \
                if inst.fmt is Format.VOP3 else regs.VCC_LO
            if sdst == regs.VCC_LO:
                wf.vcc = carry_mask
            else:
                wf.write_scalar64(sdst, carry_mask)
            row = wf.vgprs[f["vdst"]]
            for lane in lanes:
                row[lane] = results[lane]
            return

        if name == "v_mac_f32":
            row = wf.vgprs[f["vdst"]]
            a, b = ints[0], ints[1]
            acc = [int(x) for x in row]
            for lane in lanes:
                row[lane] = _lane_mad_f32(a[lane], b[lane], acc[lane])
            return

        core = _LANE_BIN.get(name)
        if core is not None:
            row = wf.vgprs[f["vdst"]]
            a, b = ints[0], ints[1]
            for lane in lanes:
                row[lane] = core(a[lane], b[lane])
            return
        core = _LANE_UN.get(name)
        if core is not None:
            row = wf.vgprs[f["vdst"]]
            a = ints[0]
            for lane in lanes:
                row[lane] = core(a[lane])
            return
        core = _LANE_TRI.get(name)
        if core is not None:
            row = wf.vgprs[f["vdst"]]
            for lane in lanes:
                row[lane] = core(*(col[lane] for col in ints))
            return
    raise SimulationError("no semantics for vector op {}".format(name))


@contextlib.contextmanager
def lanewise_execution():
    """Route all ``operations.execute`` vector execution through the
    golden per-lane model for the duration of the context.

    ``operations.execute`` resolves ``_exec_vector`` through module
    globals at call time, so patching the attribute is enough; the
    issue loop's plan executors bypass it, which is why the ``vector``
    fuzz oracle runs the lanewise case on the verify spec loop
    (:func:`repro.verify.spec.spec_execution`).
    """
    from . import operations
    saved = operations._exec_vector
    operations._exec_vector = execute_lanewise
    try:
        yield
    finally:
        operations._exec_vector = saved
