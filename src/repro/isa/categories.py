"""Instruction taxonomy used throughout the SCRATCH framework.

The paper classifies every executed instruction along three axes
(Section 3.1, Figure 4):

* the **functional unit** that executes it (scalar ALU, integer vector
  ALU a.k.a. SIMD, floating-point vector ALU a.k.a. SIMF, load/store
  unit, or the branch & message unit),
* the **computational category** (mov, logic, shift, bitwise, convert,
  control, add, mul, div, trans, memory),
* the **numeric type** (integer, single-precision FP, double-precision
  FP -- the latter only exists in the characterisation superset, not in
  the 156 instructions MIAOW2.0 implements).

These enums are the vocabulary shared by the ISA registry, the
decode/issue stages of the compute-unit model, the trimming tool and
the area/power models.
"""

from __future__ import annotations

import enum


class FunctionalUnit(enum.Enum):
    """Execution unit selected by the Decode stage for an instruction.

    Mirrors the four decode paths of Figure 2 (Branch & Message, Scalar,
    Vector, LD/ST) with the vector path split into its integer (SIMD)
    and floating-point (SIMF) halves, because SCRATCH trims those two
    independently -- removing the whole SIMF block is the single largest
    win for integer-only kernels (Section 3.2).
    """

    BRANCH = "branch"
    SALU = "salu"
    SIMD = "simd"  # integer vector ALU
    SIMF = "simf"  # floating-point vector ALU
    LSU = "lsu"

    @property
    def is_vector(self):
        return self in (FunctionalUnit.SIMD, FunctionalUnit.SIMF)

    @property
    def trimmable(self):
        """Whether SCRATCH may remove this unit entirely.

        The branch/message path implements control flow that every
        kernel needs (``s_endpgm`` at minimum), so it is never removed.
        """
        return self is not FunctionalUnit.BRANCH


class OpCategory(enum.Enum):
    """Computational categories of Section 3.1 / Figure 4.

    The paper's definitions, restated:

    * ``MOV``     register-to-register moves (and immediate moves).
    * ``LOGIC``   bit masks and bit compares: and/or/xor/not, bit-field
                  insert, conditional mask selection.
    * ``SHIFT``   shifts and rotates, including bit-field extracts and
                  funnel shifts (``v_alignbit``).
    * ``BITWISE`` bit search and bit count (ff1, flbit, bcnt, brev).
    * ``CONVERT`` numeric format conversions (cvt, sext, floor/ceil,
                  fract and friends).
    * ``CONTROL`` control and communication operations, excluding logic
                  and arithmetic compares: branches, barriers, waitcnt,
                  exec-mask save/restore.
    * ``ADD``     addition, subtraction **and compare** (min/max too,
                  which hardware builds from a compare + select).
    * ``MUL``     multiplication with or without a subsequent add
                  (mul, mad, fma, mac).
    * ``DIV``     divides and reciprocals.
    * ``TRANS``   transcendentals: sin, cos, exp, log, sqrt, rsq.
    * ``MEMORY``  loads and stores of every flavour (Figure 4 group G).
    """

    MOV = "mov"
    LOGIC = "logic"
    SHIFT = "shift"
    BITWISE = "bitwise"
    CONVERT = "convert"
    CONTROL = "control"
    ADD = "add"
    MUL = "mul"
    DIV = "div"
    TRANS = "trans"
    MEMORY = "memory"


#: Figure 4 groups the eleven categories into seven lettered bars.
#: A: binary/logic/shift, B/C/D: arithmetic per numeric type,
#: E: conversions, F: control, G: memory.
FIGURE4_GROUPS = {
    "A": (OpCategory.MOV, OpCategory.LOGIC, OpCategory.SHIFT, OpCategory.BITWISE),
    "B": (OpCategory.ADD, OpCategory.MUL, OpCategory.DIV, OpCategory.TRANS),
    "C": (OpCategory.ADD, OpCategory.MUL, OpCategory.DIV, OpCategory.TRANS),
    "D": (OpCategory.ADD, OpCategory.MUL, OpCategory.DIV, OpCategory.TRANS),
    "E": (OpCategory.CONVERT,),
    "F": (OpCategory.CONTROL,),
    "G": (OpCategory.MEMORY,),
}

#: Categories whose hardware is comparatively expensive, in Figure 4's
#: order.  A tuple, not a set: reports iterate it, and a set of enum
#: members iterates in an order that changes with the hash seed.
ARITHMETIC_CATEGORIES = (
    OpCategory.ADD, OpCategory.MUL, OpCategory.DIV, OpCategory.TRANS,
)


class DataType(enum.Enum):
    """Numeric type an instruction operates on.

    ``NONE`` marks instructions with no arithmetic payload (branches,
    barriers, raw moves of untyped bits).  ``FP64`` only appears in the
    characterisation superset used to reproduce Figure 4 -- MIAOW2.0's
    156 implemented instructions are integer and single-precision only.
    """

    NONE = "none"
    INT = "int"
    FP32 = "fp32"
    FP64 = "fp64"

    @property
    def is_float(self):
        return self in (DataType.FP32, DataType.FP64)
