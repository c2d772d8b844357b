"""Binary decoder: Southern Islands machine words -> decoded instructions.

This is the software twin of the MIAOW2.0 Decode stage (Section 2.1.1):
it classifies the fetched word's format, extracts the operation and the
operand fields, determines the executing functional unit from the
instruction registry, and notes whether a trailing 32-bit literal makes
the instruction a two-fetch (64-bit) one.

It is used in three places:

* the compute-unit simulator decodes a program once and caches the
  result (hardware decodes every issue; the cycle model charges for
  decode regardless),
* the disassembler renders decoded instructions back to text,
* the SCRATCH trimming tool's first step (Algorithm 1 lines 2-11) walks
  a kernel binary with exactly this decoder -- ``miaow.decode(line)`` in
  the paper's pseudocode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import DecodingError
from . import formats
from .formats import Format
from .registers import LITERAL
from .tables import ISA


@dataclass
class DecodedInstruction:
    """One decoded instruction occurrence within a program.

    ``fields`` holds the raw encoding fields (register codes, opcode,
    immediates); ``literal`` the trailing literal dword if one was
    fetched; ``words`` the total dword footprint (the fetch stage needs
    two fetches when ``words > 1``, Section 2.1.1); ``address`` the
    byte offset within the program.
    """

    spec: "InstructionSpec"
    fmt: Format
    fields: dict
    literal: Optional[int]
    words: int
    address: int = 0

    @property
    def name(self):
        return self.spec.name

    @property
    def unit(self):
        return self.spec.unit

    def __str__(self):
        return "{:06x}: {}".format(self.address, self.spec.name)


_UNPACKERS_1W = {
    Format.SOP2: formats.unpack_sop2,
    Format.SOPK: formats.unpack_sopk,
    Format.SOP1: formats.unpack_sop1,
    Format.SOPC: formats.unpack_sopc,
    Format.SOPP: formats.unpack_sopp,
    Format.SMRD: formats.unpack_smrd,
    Format.VOP2: formats.unpack_vop2,
    Format.VOP1: formats.unpack_vop1,
    Format.VOPC: formats.unpack_vopc,
}

_UNPACKERS_2W = {
    Format.DS: formats.unpack_ds,
    Format.MUBUF: formats.unpack_mubuf,
    Format.MTBUF: formats.unpack_mtbuf,
}

#: Source-field names checked for the literal-constant marker, by format.
_SRC_FIELDS = {
    Format.SOP2: ("ssrc0", "ssrc1"),
    Format.SOP1: ("ssrc0",),
    Format.SOPC: ("ssrc0", "ssrc1"),
    Format.VOP2: ("src0",),
    Format.VOP1: ("src0",),
    Format.VOPC: ("src0",),
    Format.VOP3: ("src0", "src1", "src2"),
}


def _uses_literal(fmt, fields):
    for fname in _SRC_FIELDS.get(fmt, ()):
        if fields.get(fname) == LITERAL:
            return True
    return False


def decode_one(words, offset):
    """Decode the instruction starting at ``words[offset]``.

    Returns a :class:`DecodedInstruction` whose ``address`` is the byte
    offset ``offset * 4``.  Raises :class:`DecodingError` when the word
    stream ends mid-instruction or encodes an unknown operation.
    """
    if offset >= len(words):
        raise DecodingError("decode past end of program")
    word0 = words[offset] & 0xFFFFFFFF
    fmt = formats.classify_word(word0)
    consumed = fmt.base_words
    if offset + consumed > len(words):
        raise DecodingError(
            "truncated {} instruction at word {}".format(fmt.value, offset)
        )

    if fmt in _UNPACKERS_1W:
        fields = _UNPACKERS_1W[fmt](word0)
    elif fmt is Format.VOP3:
        # VOP3b (explicit sdst) applies to carry ops and compares; the
        # registry decides after the opcode lookup, so unpack both ways.
        fields = formats.unpack_vop3(word0, words[offset + 1], has_sdst=False)
    else:
        fields = _UNPACKERS_2W[fmt](word0, words[offset + 1])

    try:
        sp = ISA.by_encoding(fmt, fields["op"])
    except Exception as exc:
        raise DecodingError(
            "word 0x{:08x} at offset {}: {}".format(word0, offset, exc)
        ) from None

    if fmt is Format.VOP3 and (sp.sdst_width or sp.writes_vcc):
        fields = formats.unpack_vop3(word0, words[offset + 1], has_sdst=True)
        fields["op"] = fields["op"]

    literal = None
    if _uses_literal(fmt, fields):
        if offset + consumed >= len(words):
            raise DecodingError(
                "missing literal dword after {} at word {}".format(sp.name, offset)
            )
        literal = words[offset + consumed] & 0xFFFFFFFF
        consumed += 1

    return DecodedInstruction(
        spec=sp, fmt=fmt, fields=fields, literal=literal,
        words=consumed, address=offset * 4,
    )


def decode_program(words):
    """Decode a whole binary into a list of :class:`DecodedInstruction`.

    The list is in program order; jump targets are byte addresses, so
    the simulator indexes instructions through an address map built by
    the caller (see :class:`repro.asm.program.Program`).
    """
    decoded = []
    offset = 0
    while offset < len(words):
        inst = decode_one(words, offset)
        decoded.append(inst)
        offset += inst.words
    return decoded
