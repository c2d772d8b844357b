"""Southern Islands operand and register encoding model.

A scalar source operand in the SI ISA is a single byte whose value
selects an SGPR, a special register, an inline constant, a literal
marker, or (in vector encodings, where the field is 9 bits) a VGPR.
This module implements that mapping exactly as the *Southern Islands
Series Instruction Set Architecture Reference Guide* defines it, since
the assembler, disassembler and trimming tool all consume real SI
operand codes.
"""

from __future__ import annotations

from ..errors import EncodingError, DecodingError

# ---------------------------------------------------------------------------
# Architectural limits (AMD Southern Islands / MIAOW compute unit).
# ---------------------------------------------------------------------------

#: Number of addressable scalar general-purpose registers.
NUM_SGPRS = 104
#: Number of addressable vector general-purpose registers.
NUM_VGPRS = 256
#: Work-items per wavefront; a VGPR is one 32-bit word per work-item.
WAVEFRONT_SIZE = 64
#: Wavefronts that may be resident in one compute unit (Section 2.1.1).
MAX_WAVEFRONTS = 40

# ---------------------------------------------------------------------------
# Scalar-operand byte codes (SI reference guide, "Scalar operands").
# ---------------------------------------------------------------------------

SGPR_FIRST = 0  # codes 0..103 select s0..s103
SGPR_LAST = NUM_SGPRS - 1

VCC_LO = 106
VCC_HI = 107
M0 = 124
EXEC_LO = 126
EXEC_HI = 127

CONST_ZERO = 128  # integer inline constants: 128 = 0,
INT_POS_FIRST = 129  # 129..192 = 1..64,
INT_POS_LAST = 192
INT_NEG_FIRST = 193  # 193..208 = -1..-16
INT_NEG_LAST = 208

#: Inline single-precision float constants (code -> value).
FLOAT_CONSTS = {
    240: 0.5,
    241: -0.5,
    242: 1.0,
    243: -1.0,
    244: 2.0,
    245: -2.0,
    246: 4.0,
    247: -4.0,
}

VCCZ = 251
EXECZ = 252
SCC = 253
LITERAL = 255  # a 32-bit literal dword follows the instruction

#: In 9-bit source fields (vector encodings), codes 256..511 are VGPRs.
VGPR_BASE = 256

#: Human-readable aliases accepted by the assembler for special codes.
SPECIAL_NAMES = {
    "vcc_lo": VCC_LO,
    "vcc_hi": VCC_HI,
    "m0": M0,
    "exec_lo": EXEC_LO,
    "exec_hi": EXEC_HI,
    "vccz": VCCZ,
    "execz": EXECZ,
    "scc": SCC,
}

_CODE_NAMES = {code: name for name, code in SPECIAL_NAMES.items()}


class Operand:
    """A parsed operand: one of sgpr/vgpr/special/inline/literal.

    Instances are small immutable value objects produced by the parser
    and consumed by the encoder; the simulator uses the already-encoded
    numeric codes instead (decoding is done once per program).
    """

    __slots__ = ("kind", "value", "count")

    SGPR = "sgpr"
    VGPR = "vgpr"
    SPECIAL = "special"
    INLINE = "inline"
    LITERAL = "literal"

    def __init__(self, kind, value, count=1):
        self.kind = kind
        self.value = value
        self.count = count  # register-pair/quad width (s[4:7] -> count 4)

    def __repr__(self):
        return "Operand({!r}, {!r}, count={})".format(self.kind, self.value, self.count)

    def __eq__(self, other):
        return (
            isinstance(other, Operand)
            and (self.kind, self.value, self.count)
            == (other.kind, other.value, other.count)
        )

    def __hash__(self):
        return hash((self.kind, self.value, self.count))


def sgpr(index, count=1):
    """Build an SGPR operand ``s<index>`` (or a pair/quad starting there)."""
    if not 0 <= index <= SGPR_LAST - (count - 1):
        raise EncodingError("SGPR index out of range: s{} (count {})".format(index, count))
    return Operand(Operand.SGPR, index, count)


def vgpr(index, count=1):
    """Build a VGPR operand ``v<index>``."""
    if not 0 <= index < NUM_VGPRS - (count - 1):
        raise EncodingError("VGPR index out of range: v{} (count {})".format(index, count))
    return Operand(Operand.VGPR, index, count)


def special(name):
    """Build a special-register operand (``vcc``, ``exec``, ``m0``, ...)."""
    lowered = name.lower()
    if lowered == "vcc":
        return Operand(Operand.SPECIAL, VCC_LO, 2)
    if lowered == "exec":
        return Operand(Operand.SPECIAL, EXEC_LO, 2)
    if lowered not in SPECIAL_NAMES:
        raise EncodingError("unknown special register: {!r}".format(name))
    return Operand(Operand.SPECIAL, SPECIAL_NAMES[lowered], 1)


def imm(value):
    """Build an immediate operand, inline if representable else literal.

    The SI encoder prefers inline constants because they do not consume
    an extra literal dword (which would also force the 64-bit encoding
    path in the fetch stage, Section 2.1.1).
    """
    if isinstance(value, float):
        for code, fval in FLOAT_CONSTS.items():
            if fval == value:
                return Operand(Operand.INLINE, code)
        import struct

        return Operand(Operand.LITERAL, struct.unpack("<I", struct.pack("<f", value))[0])
    value = int(value)
    if value == 0:
        return Operand(Operand.INLINE, CONST_ZERO)
    if 1 <= value <= 64:
        return Operand(Operand.INLINE, INT_POS_FIRST + value - 1)
    if -16 <= value <= -1:
        return Operand(Operand.INLINE, INT_NEG_FIRST + (-value) - 1)
    return Operand(Operand.LITERAL, value & 0xFFFFFFFF)


def encode_source(operand, width=9):
    """Encode an operand into an 8/9-bit SI source field.

    Returns ``(code, literal)`` where ``literal`` is the 32-bit dword to
    append after the instruction, or ``None``.
    """
    if operand.kind == Operand.SGPR:
        return operand.value, None
    if operand.kind == Operand.VGPR:
        if width < 9:
            raise EncodingError("VGPR operand not allowed in a scalar source field")
        return VGPR_BASE + operand.value, None
    if operand.kind in (Operand.SPECIAL, Operand.INLINE):
        return operand.value, None
    if operand.kind == Operand.LITERAL:
        return LITERAL, operand.value & 0xFFFFFFFF
    raise EncodingError("cannot encode operand {!r}".format(operand))


def decode_source(code):
    """Inverse of :func:`encode_source`: map a source code to an Operand.

    A ``LITERAL`` code decodes to a literal operand with value ``None``;
    the decoder fills the value in from the trailing dword.
    """
    if SGPR_FIRST <= code <= SGPR_LAST:
        return Operand(Operand.SGPR, code)
    if code >= VGPR_BASE:
        return Operand(Operand.VGPR, code - VGPR_BASE)
    if code in (VCC_LO, VCC_HI, M0, EXEC_LO, EXEC_HI, VCCZ, EXECZ, SCC):
        return Operand(Operand.SPECIAL, code)
    if code == CONST_ZERO or INT_POS_FIRST <= code <= INT_NEG_LAST:
        return Operand(Operand.INLINE, code)
    if code in FLOAT_CONSTS:
        return Operand(Operand.INLINE, code)
    if code == LITERAL:
        return Operand(Operand.LITERAL, None)
    raise DecodingError("invalid source operand code: {}".format(code))


def inline_value(code, as_float=False):
    """Resolve an inline-constant code to its numeric value.

    Integer inline constants are returned as Python ints; float inline
    constants as their IEEE-754 bit pattern unless ``as_float`` is set.
    """
    import struct

    if code == CONST_ZERO:
        return 0.0 if as_float else 0
    if INT_POS_FIRST <= code <= INT_POS_LAST:
        v = code - INT_POS_FIRST + 1
        return float(v) if as_float else v
    if INT_NEG_FIRST <= code <= INT_NEG_LAST:
        v = -(code - INT_NEG_FIRST + 1)
        return float(v) if as_float else v
    if code in FLOAT_CONSTS:
        f = FLOAT_CONSTS[code]
        if as_float:
            return f
        return struct.unpack("<I", struct.pack("<f", f))[0]
    raise DecodingError("code {} is not an inline constant".format(code))


#: Inline-constant code -> the 32-bit pattern a scalar read of it
#: returns (integers two's-complement, floats as IEEE-754 bits).
INLINE_CONSTANTS = {
    code: inline_value(code) & 0xFFFFFFFF
    for code in (*range(CONST_ZERO, INT_NEG_LAST + 1), *FLOAT_CONSTS)
}


def operand_name(operand):
    """Render an operand in assembly syntax (used by the disassembler)."""
    if operand.kind == Operand.SGPR:
        if operand.count == 1:
            return "s{}".format(operand.value)
        return "s[{}:{}]".format(operand.value, operand.value + operand.count - 1)
    if operand.kind == Operand.VGPR:
        if operand.count == 1:
            return "v{}".format(operand.value)
        return "v[{}:{}]".format(operand.value, operand.value + operand.count - 1)
    if operand.kind == Operand.SPECIAL:
        if operand.count == 2 and operand.value == VCC_LO:
            return "vcc"
        if operand.count == 2 and operand.value == EXEC_LO:
            return "exec"
        return _CODE_NAMES.get(operand.value, "special{}".format(operand.value))
    if operand.kind == Operand.INLINE:
        if operand.value in FLOAT_CONSTS:
            return repr(FLOAT_CONSTS[operand.value])
        return str(inline_value(operand.value))
    if operand.kind == Operand.LITERAL:
        if operand.value is None:
            return "<literal>"
        return "0x{:08x}".format(operand.value)
    return repr(operand)
