"""Seeded, constrained random kernel generator.

Emits *terminating* Southern Islands programs over the implemented
instruction set, assembled through :mod:`repro.asm`.  The generator is
constrained so that any produced program is a valid differential-test
subject -- its final memory and register state must be identical under
every architecture configuration the oracles pair up:

* **Termination** -- control flow is straight-line code, forward
  branch skips, uniform counted loops (scalar trip count loaded from
  an immediate) and structured EXEC-divergence blocks that always
  restore the saved mask.  Nothing can loop unboundedly.
* **In-bounds memory** -- global reads hit the input buffer through a
  power-of-two address mask; global writes go only to the work-item's
  own output slot (``&out[flat_gid]``), so stores from different
  lanes, wavefronts and workgroups never collide -- with one
  deliberate exception: the colliding-store segment masks the low six
  bits of ``v0`` so lanes of the *same* wavefront write duplicate
  addresses (the architectural last-active-lane-wins case, pinned by
  the scatter dedup paths), while its preserved upper bits keep every
  touched slot inside that wavefront's own 64-slot range, so the
  cross-wavefront guarantee still holds.  LDS addresses are masked to
  the declared allocation.
* **Schedule independence** -- wavefronts inside a workgroup are
  interleaved differently by different timing configurations, so the
  functional result must not depend on issue order.  Cross-wavefront
  LDS traffic is therefore phase-disciplined: write phases (lane-
  unique ``ds_write`` addresses, commutative ``ds_add`` confined to
  the upper half of the allocation) and read phases are separated by
  ``s_barrier``.  Single-wavefront workgroups execute in program
  order and may mix LDS traffic freely.

Register convention (on top of the dispatcher ABI, Section 2.2.2):

====================  =================================================
``s19/s20/s21``       local_size.x, inp offset, out offset
``s22..s27``          scalar scratch pool
``s[28:29]``          VOPC mask destination (VOP3b encodings)
``s[30:31] [32:33]``  EXEC save/restore slots (divergence depth 0/1)
``s[34:35]``          EXEC save slot of the uniform-load segment
``s36 / s37``         uniform loop counter / uniform address temp
``s[38:39] [40:43]``  ``s_load/s_buffer_load`` x2/x4 destinations
``s[44:45]``          64-bit address pair for plain ``s_load_*``
``v3 / v4``           flat gid / ``&out[gid]``
``v5..v10``           vector scratch pool (``v5`` = ``inp[gid]``)
``v12 / v[13:14]``    address temp / load destinations
====================  =================================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from ..asm.assembler import assemble
from ..soc.gpu import CB0_BASE

#: Vector / scalar scratch register pools (see module docstring).
V_POOL = (5, 6, 7, 8, 9, 10)
S_POOL = (22, 23, 24, 25, 26, 27)

#: Exercised VOP2 ops that do not touch VCC (dst, src0, vgpr-src1).
_VOP2_PLAIN = (
    "v_and_b32", "v_or_b32", "v_xor_b32", "v_max_i32", "v_max_u32",
    "v_min_i32", "v_min_u32", "v_lshlrev_b32", "v_lshrrev_b32",
    "v_ashrrev_i32", "v_mul_i32_i24",
)
_VOP2_CARRY = ("v_add_i32", "v_sub_i32", "v_subrev_i32")
_VOP1_INT = ("v_mov_b32", "v_not_b32", "v_bfrev_b32")
_VOP3_2SRC = ("v_mul_lo_u32", "v_mul_lo_i32", "v_mul_hi_u32", "v_mul_hi_i32")
_VOP3_3SRC = ("v_bfe_u32", "v_bfe_i32", "v_bfi_b32", "v_alignbit_b32",
              "v_mad_i32_i24")
_VOPC_INT = ("v_cmp_eq_u32", "v_cmp_lt_u32", "v_cmp_gt_u32", "v_cmp_le_i32",
             "v_cmp_ge_i32", "v_cmp_lg_i32", "v_cmp_lt_i32")
_VOP2_FLOAT = ("v_add_f32", "v_sub_f32", "v_subrev_f32", "v_mul_f32",
               "v_max_f32", "v_min_f32", "v_mac_f32")
_VOP1_FLOAT = ("v_floor_f32", "v_ceil_f32", "v_trunc_f32", "v_fract_f32",
               "v_rndne_f32", "v_sqrt_f32", "v_rcp_f32")
_FLOAT_INLINE = ("0.5", "1.0", "2.0", "4.0", "-1.0", "-2.0")
#: Float bit patterns that stress the exact-semantics claims: quiet
#: NaNs with distinct payloads (both signs), infinities, signed zeros,
#: denormals and FLT_MAX.  Fed as raw literals so the simulator's
#: reinterpret-cast views see them bit-exactly.
_FLOAT_SPECIAL_BITS = (
    0x7FC00001, 0xFFC00123,   # quiet NaNs with payloads
    0x7F800000, 0xFF800000,   # +/- infinity
    0x00000000, 0x80000000,   # +/- zero
    0x00000001, 0x807FFFFF,   # smallest / largest-magnitude denormal
    0x7F7FFFFF,               # FLT_MAX
)
_VOPC_FLOAT = ("v_cmp_lt_f32", "v_cmp_eq_f32", "v_cmp_le_f32",
               "v_cmp_gt_f32", "v_cmp_lg_f32", "v_cmp_ge_f32")
_SOP2 = ("s_add_u32", "s_sub_u32", "s_add_i32", "s_sub_i32", "s_and_b32",
         "s_or_b32", "s_xor_b32", "s_mul_i32", "s_min_i32", "s_min_u32",
         "s_max_i32", "s_max_u32", "s_lshl_b32", "s_lshr_b32", "s_ashr_i32")
_SOP1 = ("s_mov_b32", "s_not_b32", "s_brev_b32", "s_bcnt1_i32_b32",
         "s_ff1_i32_b32", "s_sext_i32_i8", "s_sext_i32_i16")
_SCMP = ("s_cmp_eq_u32", "s_cmp_lt_u32", "s_cmp_gt_u32", "s_cmp_le_i32",
         "s_cmp_ge_i32", "s_cmp_lg_u32", "s_cmp_lt_i32")


def _pow2_at_least(n):
    p = 1
    while p < n:
        p *= 2
    return p


@dataclass
class FuzzCase:
    """One generated differential-test subject."""

    seed: int
    source: str
    local_size: int         # 1-D workgroup size (work-items)
    groups: int             # 1-D workgroup count
    inp_dwords: int         # input buffer length (power of two)
    _program: object = field(default=None, repr=False, compare=False)

    @property
    def program(self):
        if self._program is None:
            self._program = assemble(self.source)
        return self._program

    @property
    def global_size(self):
        return self.local_size * self.groups

    def input_data(self):
        """Deterministic input buffer contents for this case."""
        rng = np.random.default_rng(0xC0FFEE ^ (self.seed & 0xFFFFFFFF))
        return rng.integers(0, 1 << 32, size=self.inp_dwords,
                            dtype=np.uint32)

    # -- corpus (de)serialisation ------------------------------------------

    HEADER = "; verify-case seed={seed} local={local} groups={groups} inp={inp}"

    def corpus_text(self, note=""):
        """Render the case as a self-describing ``.s`` corpus file."""
        lines = [self.HEADER.format(seed=self.seed, local=self.local_size,
                                    groups=self.groups, inp=self.inp_dwords)]
        if note:
            for part in note.splitlines():
                lines.append("; {}".format(part))
        lines.append(self.source.rstrip("\n"))
        return "\n".join(lines) + "\n"


class KernelGenerator:
    """Constrained random program generator (one instance per seed)."""

    def __init__(self, seed, max_segments=24):
        self.seed = seed
        self.rng = random.Random(seed)
        self.max_segments = max_segments
        self._label = 0

        r = self.rng
        self.local = r.choice((16, 64, 128, 192))
        self.groups = r.choice((1, 2, 3))
        self.inp_dwords = r.choice((64, 256))
        self.multi_wf = self.local > 64
        self.uses_lds = r.random() < 0.7
        self.lds_dwords = (128 if not self.multi_wf
                           else _pow2_at_least(2 * self.local))
        self.uses_sload = r.random() < 0.4
        self.lines = []
        # The program-fact segments and VOP3 selector forms draw from a
        # second stream, so they never shift the draws of ``rng``: each
        # seed's other segments do not depend on them.
        self.extra = random.Random("facts/{}".format(seed))

    # -- small emission helpers --------------------------------------------

    def _next_label(self):
        self._label += 1
        return "L{}".format(self._label)

    def emit(self, text):
        self.lines.append("  " + text)

    def _v(self):
        return "v{}".format(self.rng.choice(V_POOL))

    def _s(self):
        return "s{}".format(self.rng.choice(S_POOL))

    def _imm(self, small=False):
        r = self.rng
        if small or r.random() < 0.6:
            return str(r.randint(-16, 64))
        return "0x{:08x}".format(r.getrandbits(32))

    def _ssrc(self, allow_literal=True):
        """A scalar source: pool register or immediate."""
        if self.rng.random() < 0.6:
            return self._s()
        return self._imm(small=not allow_literal)

    def _vcc_reader_src1(self):
        """``src1`` of a VCC-reading VOP2 op: usually the VGPR drawn
        from ``rng``; an SGPR or an inline constant instead promotes
        the op to VOP3, with VCC in ``src2``."""
        vgpr = self._v()
        roll = self.extra.random()
        if roll < 0.2:
            return "s{}".format(self.extra.choice(S_POOL))
        if roll < 0.3:
            return str(self.extra.randint(-16, 64))
        return vgpr

    def _vsrc(self, allow_literal=True):
        """A 9-bit vector source: VGPR, SGPR or immediate."""
        roll = self.rng.random()
        if roll < 0.55:
            return self._v()
        if roll < 0.8:
            return self._s()
        return self._imm(small=not allow_literal)

    # -- instruction segments ----------------------------------------------

    def seg_valu(self):
        r = self.rng
        roll = r.random()
        if roll < 0.40:
            self.emit("{} {}, {}, {}".format(
                r.choice(_VOP2_PLAIN), self._v(), self._vsrc(), self._v()))
        elif roll < 0.60:
            self.emit("{} {}, vcc, {}, {}".format(
                r.choice(_VOP2_CARRY), self._v(), self._vsrc(), self._v()))
            if r.random() < 0.4:  # consume the carry chain
                self.emit("{} {}, vcc, {}, {}, vcc".format(
                    self.extra.choice(("v_addc_u32", "v_subb_u32")),
                    self._v(), self._v(), self._vcc_reader_src1()))
        elif roll < 0.75:
            self.emit("{} {}, {}".format(
                r.choice(_VOP1_INT), self._v(), self._vsrc()))
        elif roll < 0.88:
            self.emit("{} {}, {}, {}".format(
                r.choice(_VOP3_2SRC), self._v(),
                self._vsrc(allow_literal=False), self._vsrc(allow_literal=False)))
        else:
            self.emit("{} {}, {}, {}, {}".format(
                r.choice(_VOP3_3SRC), self._v(),
                self._vsrc(allow_literal=False), self._vsrc(allow_literal=False),
                self._vsrc(allow_literal=False)))

    def seg_salu(self):
        r = self.rng
        roll = r.random()
        if roll < 0.5:
            self.emit("{} {}, {}, {}".format(
                r.choice(_SOP2), self._s(), self._ssrc(), self._s()))
        elif roll < 0.7:
            self.emit("{} {}, {}".format(r.choice(_SOP1), self._s(), self._ssrc()))
        elif roll < 0.85:
            self.emit("{} {}, {}".format(
                r.choice(("s_movk_i32", "s_addk_i32", "s_mulk_i32")),
                self._s(), r.randint(-32768, 32767)))
        else:
            self.emit("{} {}, {}".format(r.choice(_SCMP), self._ssrc(), self._s()))
            follow = r.random()
            if follow < 0.5:
                self.emit("s_cselect_b32 {}, {}, {}".format(
                    self._s(), self._s(), self._s()))
            elif follow < 0.75:
                self.emit("s_addc_u32 {}, {}, {}".format(
                    self._s(), self._s(), self._s()))
            else:
                self.emit("s_subb_u32 {}, {}, {}".format(
                    self._s(), self._s(), self._s()))

    def seg_float(self):
        r = self.rng
        self.emit("v_cvt_f32_u32 {}, {}".format(self._v(), self._v()))
        for _ in range(r.randint(1, 2)):
            src0 = (r.choice(_FLOAT_INLINE) if r.random() < 0.4
                    else self._v())
            self.emit("{} {}, {}, {}".format(
                r.choice(_VOP2_FLOAT), self._v(), src0, self._v()))
        if r.random() < 0.5:
            self.emit("{} {}, {}".format(
                r.choice(_VOP1_FLOAT), self._v(), self._v()))
        if r.random() < 0.5:
            self.emit("{} {}, {}".format(
                r.choice(("v_cvt_u32_f32", "v_cvt_i32_f32")),
                self._v(), self._v()))

    def seg_float_special(self):
        """Float traffic seeded with NaN payloads, infs and denormals.

        NaN payloads must propagate bit-exactly through the issue loop
        and the spec loop (the scalar interpreter, the array path and
        the lanewise golden model share numpy's IEEE machinery), and
        compares on
        NaN operands must produce identical VCC masks.
        """
        r = self.rng
        self.emit("v_mov_b32 {}, 0x{:08x}".format(
            self._v(), r.choice(_FLOAT_SPECIAL_BITS)))
        for _ in range(r.randint(1, 3)):
            src0 = ("0x{:08x}".format(r.choice(_FLOAT_SPECIAL_BITS))
                    if r.random() < 0.5 else self._v())
            self.emit("{} {}, {}, {}".format(
                r.choice(_VOP2_FLOAT), self._v(), src0, self._v()))
        if r.random() < 0.5:
            self.emit("{} {}, {}".format(
                r.choice(_VOP1_FLOAT), self._v(), self._v()))
        if r.random() < 0.5:
            self.emit("{} vcc, {}, {}".format(
                r.choice(_VOPC_FLOAT), self._v(), self._v()))
            self.emit("v_cndmask_b32 {}, {}, {}, vcc".format(
                self._v(), self._v(), self._vcc_reader_src1()))

    def seg_vcmp(self):
        r = self.rng
        if r.random() < 0.7:
            self.emit("{} vcc, {}, {}".format(
                r.choice(_VOPC_INT), self._vsrc(), self._v()))
            self.emit("v_cndmask_b32 {}, {}, {}, vcc".format(
                self._v(), self._v(), self._vcc_reader_src1()))
        else:  # explicit SGPR-pair destination: VOP3b encoding
            self.emit("{} s[28:29], {}, {}".format(
                r.choice(_VOPC_INT), self._vsrc(allow_literal=False), self._v()))
            self.emit("s_and_b32 {}, s28, {}".format(self._s(), self._s()))

    def seg_global_load(self):
        r = self.rng
        mask = self.inp_dwords - 1
        self.emit("v_and_b32 v12, {}, {}".format(
            mask if mask <= 64 else "0x{:08x}".format(mask), self._v()))
        self.emit("v_lshlrev_b32 v12, 2, v12")
        self.emit("v_add_i32 v12, vcc, s20, v12")
        op = r.choice(("buffer_load_dword", "tbuffer_load_format_x",
                       "buffer_load_ubyte", "buffer_load_sbyte"))
        self.emit("{} v13, v12, s[4:7], 0 offen".format(op))
        if r.random() < 0.8:
            self.emit("s_waitcnt vmcnt(0)")
        self.emit("v_xor_b32 {}, v13, {}".format(self._v(), self._v()))

    def seg_smrd(self):
        r = self.rng
        roll = r.random()
        if roll < 0.4:
            self.emit("s_buffer_load_dword {}, s[8:11], {}".format(
                self._s(), r.randint(0, 8)))
            self.emit("s_waitcnt lgkmcnt(0)")
        elif roll < 0.7:
            self.emit("s_buffer_load_dwordx2 s[38:39], s[8:11], {}".format(
                r.randint(0, 7)))
            self.emit("s_waitcnt lgkmcnt(0)")
            self.emit("s_xor_b32 {}, s38, s39".format(self._s()))
        elif roll < 0.85 or not self.uses_sload:
            self.emit("s_buffer_load_dwordx4 s[40:43], s[8:11], {}".format(
                r.randint(0, 5)))
            self.emit("s_waitcnt lgkmcnt(0)")
            self.emit("s_add_u32 {}, s40, s43".format(self._s()))
        else:
            self.emit("s_load_dword{} {}, s[44:45], {}".format(
                *r.choice((("", self._s(), r.randint(0, 8)),
                           ("x2", "s[38:39]", r.randint(0, 7)),
                           ("x4", "s[40:43]", r.randint(0, 5))))))
            self.emit("s_waitcnt lgkmcnt(0)")

    def seg_store(self):
        r = self.rng
        op = "buffer_store_byte" if r.random() < 0.15 else "buffer_store_dword"
        self.emit("{} {}, v4, s[4:7], 0 offen".format(op, self._v()))
        if r.random() < 0.5:
            self.emit("s_waitcnt vmcnt(0)")

    def seg_colliding_store(self):
        """A store whose lane addresses deliberately collide.

        Masking the low six bits of ``v0`` makes several lanes of the
        same wavefront share an address -- the architectural contract
        is last-active-lane-wins, and the vectorised scatter paths
        must reproduce it through their dedup pass.  The preserved
        upper bits of ``v0`` (plus the workgroup base in ``s1``) keep
        every address inside the storing wavefront's own slot range,
        so no cross-wavefront collision can make the result depend on
        wavefront interleave.
        """
        r = self.rng
        cmask = r.getrandbits(6)
        self.emit("v_and_b32 v12, 0x{:08x}, v0".format(0xFFFFFFC0 | cmask))
        self.emit("v_add_i32 v12, vcc, s1, v12")
        self.emit("v_lshlrev_b32 v12, 2, v12")
        self.emit("v_add_i32 v12, vcc, s21, v12")
        self.emit("v_xor_b32 v13, v3, {}".format(self._v()))
        op = "buffer_store_byte" if r.random() < 0.3 else "buffer_store_dword"
        self.emit("{} v13, v12, s[4:7], 0 offen".format(op))
        self.emit("s_waitcnt vmcnt(0)")

    # -- program-fact shapes (drawn from ``extra``) -------------------------

    def _xv(self):
        return "v{}".format(self.extra.choice(V_POOL))

    def seg_carry_paths(self):
        """A carry whose VCC is read on one branch path and overwritten
        unread on the other: VCC liveness must keep it."""
        x = self.extra
        read, join = self._next_label(), self._next_label()
        self.emit("{} {}, vcc, s{}, {}".format(
            x.choice(_VOP2_CARRY), self._xv(), x.choice(S_POOL), self._xv()))
        self.emit("s_cmp_lt_u32 s{}, s{}".format(
            x.choice(S_POOL), x.choice(S_POOL)))
        self.emit("s_cbranch_scc1 {}".format(read))
        self.emit("{} vcc, {}, {}".format(
            x.choice(_VOPC_INT), self._xv(), self._xv()))
        self.emit("s_branch {}".format(join))
        self.lines.append("{}:".format(read))
        self.emit("v_cndmask_b32 {}, {}, {}, vcc".format(
            self._xv(), self._xv(), self._xv()))
        self.lines.append("{}:".format(join))

    def seg_uniform_load(self):
        """``v_mov_b32 v12, s37`` -- a lane-uniform, in-bounds address
        -- then a buffer load from it under a divergent EXEC."""
        x = self.extra
        op = x.choice(("buffer_load_dword", "tbuffer_load_format_x",
                       "buffer_load_ubyte", "buffer_load_sbyte",
                       "tbuffer_load_format_xy"))
        # An even index leaves room for the second dword of xy.
        mask = self.inp_dwords - (2 if op.endswith("xy") else 1)
        self.emit("s_and_b32 s37, s{}, {}".format(
            x.choice(S_POOL), mask if mask <= 64 else "0x{:08x}".format(mask)))
        self.emit("s_lshl_b32 s37, s37, 2")
        self.emit("s_add_u32 s37, s37, s20")
        self.emit("v_mov_b32 v12, s37")
        self.emit("s_mov_b64 s[34:35], exec")
        self.emit("{} vcc, {}, {}".format(
            x.choice(_VOPC_INT), self._xv(), self._xv()))
        self.emit("s_and_b64 exec, exec, vcc")
        self.emit("{} {}, v12, s[4:7], 0 offen".format(
            op, "v[13:14]" if op.endswith("xy") else "v13"))
        self.emit("s_waitcnt vmcnt(0)")
        self.emit("s_mov_b64 exec, s[34:35]")
        self.emit("v_xor_b32 {}, v13, {}".format(self._xv(), self._xv()))

    # -- LDS ----------------------------------------------------------------

    def _lds_addr_any(self, mask_dwords):
        """v12 = (reg & (mask_dwords-1)) * 4 -- an in-bounds byte address."""
        mask = mask_dwords - 1
        self.emit("v_and_b32 v12, {}, {}".format(
            mask if mask <= 64 else "0x{:08x}".format(mask), self._v()))
        self.emit("v_lshlrev_b32 v12, 2, v12")

    def _lds_addr_unique(self):
        """v12 = local_id.x * 4 -- lane-unique across the workgroup."""
        self.emit("v_lshlrev_b32 v12, 2, v0")

    def seg_lds_write(self):
        """One write-phase LDS op (safe under any wavefront interleave)."""
        r = self.rng
        if r.random() < 0.6:
            self._lds_addr_unique()
            self.emit("ds_write_b32 v12, {}".format(self._v()))
        else:
            # Commutative adds, confined to the upper half of the
            # allocation so they never race the lane-unique writes.
            half = self.lds_dwords // 2
            self._lds_addr_any(half)
            self.emit("v_or_b32 v12, {}, v12".format(4 * half))
            self.emit("ds_add_u32 v12, {}".format(self._v()))
        if r.random() < 0.7:
            self.emit("s_waitcnt lgkmcnt(0)")

    def seg_lds_read(self):
        r = self.rng
        if r.random() < 0.6:
            self._lds_addr_any(self.lds_dwords)
            self.emit("ds_read_b32 v13, v12")
            self.emit("s_waitcnt lgkmcnt(0)")
            self.emit("v_add_i32 {}, vcc, v13, {}".format(self._v(), self._v()))
        else:
            self._lds_addr_any(self.lds_dwords // 2)
            self.emit("ds_read2_b32 v[13:14], v12 offset0:{} offset1:{}".format(
                r.randint(0, self.lds_dwords // 2 - 1),
                r.randint(0, self.lds_dwords // 2 - 1)))
            self.emit("s_waitcnt lgkmcnt(0)")
            self.emit("v_xor_b32 {}, v13, v14".format(self._v()))

    def seg_lds_single_wf(self):
        """Unconstrained LDS traffic -- single-wavefront workgroups only."""
        r = self.rng
        roll = r.random()
        if roll < 0.3:
            self.seg_lds_write()
        elif roll < 0.6:
            self.seg_lds_read()
        elif roll < 0.8:
            self._lds_addr_any(self.lds_dwords)
            self.emit("ds_add_u32 v12, {}".format(self._v()))
            self.emit("s_waitcnt lgkmcnt(0)")
        else:
            self._lds_addr_any(self.lds_dwords // 2)
            self.emit("ds_write2_b32 v12, {}, {} offset0:{} offset1:{}".format(
                self._v(), self._v(),
                r.randint(0, self.lds_dwords // 2 - 1),
                r.randint(0, self.lds_dwords // 2 - 1)))
            self.emit("s_waitcnt lgkmcnt(0)")

    # -- structured control flow --------------------------------------------

    def seg_divergence(self, depth=0):
        r = self.rng
        save = "s[{}:{}]".format(30 + 2 * depth, 31 + 2 * depth)
        self.emit("{} vcc, {}, {}".format(
            r.choice(_VOPC_INT), self._vsrc(), self._v()))
        self.emit("s_and_saveexec_b64 {}, vcc".format(save))
        skip = None
        if r.random() < 0.5:
            skip = self._next_label()
            self.emit("s_cbranch_execz {}".format(skip))
        for _ in range(r.randint(1, 3)):
            self._plain_segment(in_divergence=True, depth=depth)
        if skip is not None:
            self.lines.append("{}:".format(skip))
        self.emit("s_mov_b64 exec, {}".format(save))

    def seg_branch_skip(self):
        label = self._next_label()
        self.emit("s_branch {}".format(label))
        for _ in range(self.rng.randint(1, 2)):
            self._plain_segment(in_divergence=True)  # dead code
        self.lines.append("{}:".format(label))

    def seg_loop(self):
        r = self.rng
        trips = r.randint(1, 5)
        label = self._next_label()
        self.emit("s_movk_i32 s36, {}".format(trips))
        self.lines.append("{}:".format(label))
        for _ in range(r.randint(1, 3)):
            self._plain_segment(in_loop=True)
        self.emit("s_sub_i32 s36, s36, 1")
        self.emit("s_cmp_gt_i32 s36, 0")
        self.emit("s_cbranch_scc1 {}".format(label))

    # -- segment dispatch ----------------------------------------------------

    def _plain_segment(self, in_divergence=False, in_loop=False, depth=0):
        """One body segment, excluding barriers (never legal in blocks),
        sometimes after a program-fact segment."""
        extra = self.extra.random()
        if extra < 0.08:
            self.seg_carry_paths()
        elif extra < 0.16:
            self.seg_uniform_load()
        r = self.rng
        choices = [
            (self.seg_valu, 30), (self.seg_salu, 22), (self.seg_float, 8),
            (self.seg_float_special, 6),
            (self.seg_vcmp, 10), (self.seg_global_load, 10),
            (self.seg_smrd, 8), (self.seg_store, 6),
            (self.seg_colliding_store, 6),
        ]
        if self.uses_lds and not self.multi_wf:
            choices.append((self.seg_lds_single_wf, 10))
        if not in_divergence and not in_loop:
            choices.append((self.seg_loop, 6))
        if depth == 0 and not in_divergence:
            choices.append((lambda: self.seg_divergence(depth=0), 8))
        elif depth == 0 and in_divergence:
            choices.append((lambda: self.seg_divergence(depth=1), 4))
        if not in_divergence and not in_loop:
            choices.append((self.seg_branch_skip, 3))
        total = sum(w for _, w in choices)
        roll = r.uniform(0, total)
        for fn, w in choices:
            roll -= w
            if roll <= 0:
                fn()
                return
        choices[0][0]()

    # -- program assembly ----------------------------------------------------

    def _prologue(self):
        self.lines.append(".kernel fuzz_s{}".format(self.seed))
        self.lines.append(".arg inp buffer")
        self.lines.append(".arg out buffer")
        if self.uses_lds:
            self.lines.append(".lds {}".format(4 * self.lds_dwords))
        self.emit("s_buffer_load_dword s19, s[8:11], 3")
        self.emit("s_buffer_load_dword s20, s[12:15], 0")
        self.emit("s_buffer_load_dword s21, s[12:15], 1")
        self.emit("s_waitcnt lgkmcnt(0)")
        self.emit("s_mul_i32 s1, s16, s19")
        self.emit("v_add_i32 v3, vcc, s1, v0")
        self.emit("v_lshlrev_b32 v4, 2, v3")
        self.emit("v_add_i32 v4, vcc, s21, v4")
        # v5 = inp[gid & mask]; remaining pool regs get cheap variety.
        mask = self.inp_dwords - 1
        self.emit("v_and_b32 v12, {}, v3".format(
            mask if mask <= 64 else "0x{:08x}".format(mask)))
        self.emit("v_lshlrev_b32 v12, 2, v12")
        self.emit("v_add_i32 v12, vcc, s20, v12")
        self.emit("buffer_load_dword v5, v12, s[4:7], 0 offen")
        self.emit("s_waitcnt vmcnt(0)")
        self.emit("v_mov_b32 v6, v3")
        self.emit("v_not_b32 v7, v3")
        self.emit("v_mov_b32 v8, {}".format(self.rng.randint(-16, 64)))
        self.emit("v_mov_b32 v9, 0x{:08x}".format(self.rng.getrandbits(32)))
        self.emit("v_add_i32 v10, vcc, v5, v3")
        for reg in S_POOL:
            self.emit("s_movk_i32 s{}, {}".format(
                reg, self.rng.randint(-32768, 32767)))
        if self.uses_sload:
            self.emit("s_mov_b32 s44, 0x{:x}".format(CB0_BASE))
            self.emit("s_mov_b32 s45, 0")

    def _epilogue(self):
        self.emit("v_xor_b32 v5, v5, {}".format(self._v()))
        self.emit("v_add_i32 v5, vcc, v5, {}".format(self._v()))
        self.emit("buffer_store_dword v5, v4, s[4:7], 0 offen")
        self.emit("s_waitcnt vmcnt(0)")
        self.emit("s_endpgm")

    def generate(self):
        """Produce one :class:`FuzzCase` (deterministic per seed)."""
        self._prologue()
        n = self.rng.randint(8, self.max_segments)
        if self.multi_wf and self.uses_lds:
            # Phase-disciplined LDS: write phase | barrier | read phase.
            phases = self.rng.randint(1, 3)
            per_phase = max(1, n // (2 * phases))
            for _ in range(phases):
                for _ in range(per_phase):
                    if self.rng.random() < 0.4:
                        self.seg_lds_write()
                    else:
                        self._plain_segment()
                self.emit("s_barrier")
                for _ in range(per_phase):
                    if self.rng.random() < 0.4:
                        self.seg_lds_read()
                    else:
                        self._plain_segment()
                self.emit("s_barrier")
        else:
            for _ in range(n):
                if self.multi_wf and self.rng.random() < 0.1:
                    self.emit("s_barrier")
                else:
                    self._plain_segment()
        self._epilogue()
        source = "\n".join(self.lines) + "\n"
        case = FuzzCase(seed=self.seed, source=source, local_size=self.local,
                        groups=self.groups, inp_dwords=self.inp_dwords)
        case.program  # assemble now: generator bugs surface at the source
        return case


def generate_case(seed, max_segments=24):
    """Convenience wrapper: one seeded case."""
    return KernelGenerator(seed, max_segments=max_segments).generate()
