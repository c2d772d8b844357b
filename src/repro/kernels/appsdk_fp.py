"""Figure 4 characterisation suite: floating-point benchmarks.

The FP half of the 25 AMD APP SDK v2.5 kernels of Figure 4.  These are
the benchmarks that justify MIAOW2.0's single-precision ISA extension
(Section 2.1.3), and several -- Black-Scholes, Monte Carlo Asian --
are the paper's examples of kernels needing "a large range of
arithmetic operations" including transcendentals, while still using no
double precision.

Where the simulator's transcendentals matter (``v_exp_f32`` and
``v_log_f32`` are base-2, as on real Southern Islands hardware), the
kernels carry the usual ``log2(e)`` / ``ln(2)`` constant folds and the
NumPy references mirror the exact float32 operation chain.
"""

from __future__ import annotations

import numpy as np

from .appsdk import register
from .base import Benchmark, build
from .matrix import MatrixMulF32

_LOG2E = float(np.float32(1.4426950408889634))
_LN2 = float(np.float32(0.6931471805599453))
_INV_SQRT2 = float(np.float32(0.7071067811865476))
_TWO_PI = float(np.float32(6.283185307179586))


def _f32(x):
    return np.float32(x)


def _exp2_f32(x):
    """Mirror of v_exp_f32: exp2 in float64, rounded to float32."""
    return np.exp2(np.asarray(x, dtype=np.float32)
                   .astype(np.float64)).astype(np.float32)


def _log2_f32(x):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log2(np.asarray(x, dtype=np.float32)
                       .astype(np.float64)).astype(np.float32)


def _sqrt_f32(x):
    return np.sqrt(np.asarray(x, dtype=np.float32)
                   .astype(np.float64)).astype(np.float32)


def _rcp_f32(x):
    return (1.0 / np.asarray(x, dtype=np.float32)
            .astype(np.float64)).astype(np.float32)


def _sin_f32(x):
    return np.sin(np.asarray(x, dtype=np.float32)
                  .astype(np.float64)).astype(np.float32)


def _cos_f32(x):
    return np.cos(np.asarray(x, dtype=np.float32)
                  .astype(np.float64)).astype(np.float32)


# ---------------------------------------------------------------------------
# Black-Scholes.
# ---------------------------------------------------------------------------

def _cnd_block(d, out, t0, t1, t2):
    """Emit the Abramowitz-Stegun CND(v{d}) -> v{out} block.

    Burns v{t0}..v{t2} as temporaries.  Constants follow the AMD
    sample: k = 1/(1 + 0.2316419 |d|), a 5-term polynomial in k, and
    the PDF factor exp(-d^2/2)/sqrt(2 pi) computed through exp2.
    """
    return """
  ; |d|
  v_mov_b32 v{t2}, 0x80000000
  v_and_b32 v{t2}, v{d}, v{t2}            ; sign bit
  v_mov_b32 v{t0}, 0x7fffffff
  v_and_b32 v{t0}, v{d}, v{t0}            ; |d|
  ; k = 1 / (1 + 0.2316419 |d|)
  v_mov_b32 v{t1}, 0x3e6d3389              ; 0.2316419f
  v_mul_f32 v{t1}, v{t0}, v{t1}
  v_add_f32 v{t1}, 1.0, v{t1}
  v_rcp_f32 v{t1}, v{t1}                   ; k
  ; poly = k(a1 + k(a2 + k(a3 + k(a4 + k a5))))
  v_mov_b32 v{out}, 0x3faa466f             ; a5 =  1.330274429f
  v_mul_f32 v{out}, v{out}, v{t1}
  v_mov_b32 v{t2}, 0xbfe91eea              ; a4 = -1.821255978f  (tmp reuse)
  v_add_f32 v{out}, v{out}, v{t2}
  v_mul_f32 v{out}, v{out}, v{t1}
  v_mov_b32 v{t2}, 0x3fe40778              ; a3 =  1.781477937f
  v_add_f32 v{out}, v{out}, v{t2}
  v_mul_f32 v{out}, v{out}, v{t1}
  v_mov_b32 v{t2}, 0xbeb68f87              ; a2 = -0.356563782f
  v_add_f32 v{out}, v{out}, v{t2}
  v_mul_f32 v{out}, v{out}, v{t1}
  v_mov_b32 v{t2}, 0x3ea385fa              ; a1 =  0.319381530f
  v_add_f32 v{out}, v{out}, v{t2}
  v_mul_f32 v{out}, v{out}, v{t1}          ; poly
  ; pdf = invsqrt2pi * exp2(-d^2/2 * log2e)
  v_mul_f32 v{t1}, v{t0}, v{t0}
  v_mov_b32 v{t2}, 0xbf38aa3b              ; -log2(e)/2 = -0.72134752f
  v_mul_f32 v{t1}, v{t1}, v{t2}
  v_exp_f32 v{t1}, v{t1}
  v_mov_b32 v{t2}, 0x3ecc422a              ; 1/sqrt(2 pi) = 0.39894228f
  v_mul_f32 v{t1}, v{t1}, v{t2}
  ; cnd(|d|) = 1 - pdf * poly; flip for negative d
  v_mul_f32 v{out}, v{out}, v{t1}
  v_subrev_f32 v{out}, v{out}, 1.0         ; 1 - pdf*poly
  v_mov_b32 v{t1}, 0
  v_cmp_lt_f32 vcc, v{d}, v{t1}
  v_subrev_f32 v{t1}, v{out}, 1.0          ; 1 - cnd
  v_cndmask_b32 v{out}, v{out}, v{t1}, vcc
""".format(d=d, out=out, t0=t0, t1=t1, t2=t2)


_BLACK_SCHOLES_SRC = """
.kernel black_scholes
  s_buffer_load_dword s19, s[8:11], 3
  s_buffer_load_dword s20, s[12:15], 0    ; S (spot)
  s_buffer_load_dword s21, s[12:15], 1    ; K (strike)
  s_buffer_load_dword s22, s[12:15], 2    ; call out
  s_buffer_load_dword s23, s[12:15], 3    ; r (f32 bits)
  s_buffer_load_dword s24, s[12:15], 4    ; sigma (f32 bits)
  s_buffer_load_dword s25, s[12:15], 5    ; T (f32 bits)
  s_waitcnt lgkmcnt(0)
  s_mul_i32 s1, s16, s19
  v_add_i32 v3, vcc, s1, v0
  v_lshlrev_b32 v4, 2, v3
  v_add_i32 v5, vcc, s20, v4
  tbuffer_load_format_x v6, v5, s[4:7], 0 offen      ; S
  v_add_i32 v5, vcc, s21, v4
  tbuffer_load_format_x v7, v5, s[4:7], 0 offen      ; K
  s_waitcnt vmcnt(0)
  ; d1 = (ln(S/K) + (r + sigma^2/2) T) / (sigma sqrt(T))
  v_rcp_f32 v8, v7
  v_mul_f32 v8, v6, v8                    ; S/K
  v_log_f32 v8, v8                        ; log2(S/K)
  v_mov_b32 v9, 0x3f317218                ; ln(2)
  v_mul_f32 v8, v8, v9                    ; ln(S/K)
  v_mov_b32 v10, s24
  v_mul_f32 v11, v10, v10
  v_mov_b32 v12, 0.5
  v_mul_f32 v11, v11, v12                 ; sigma^2/2
  v_mov_b32 v13, s23
  v_add_f32 v11, v11, v13                 ; r + sigma^2/2
  v_mov_b32 v14, s25
  v_mul_f32 v11, v11, v14                 ; * T
  v_add_f32 v8, v8, v11                   ; numerator
  v_sqrt_f32 v15, v14                     ; sqrt(T)
  v_mul_f32 v16, v10, v15                 ; sigma sqrt(T)
  v_rcp_f32 v17, v16
  v_mul_f32 v18, v8, v17                  ; d1
  v_sub_f32 v19, v18, v16                 ; d2 = d1 - sigma sqrt(T)
{cnd_d1}
{cnd_d2}
  ; call = S*cnd1 - K*exp(-rT)*cnd2
  v_mul_f32 v26, v6, v20                  ; S*cnd1
  v_mul_f32 v27, v13, v14                 ; r*T
  v_mov_b32 v28, 0xbfb8aa3b               ; -log2(e)
  v_mul_f32 v27, v27, v28
  v_exp_f32 v27, v27                      ; exp(-rT)
  v_mul_f32 v27, v27, v7                  ; K exp(-rT)
  v_mul_f32 v27, v27, v24                 ; * cnd2
  v_sub_f32 v29, v26, v27
  v_add_i32 v30, vcc, s22, v4
  tbuffer_store_format_x v29, v30, s[4:7], 0 offen
  s_endpgm
"""


@register
class BlackScholes(Benchmark):
    """European call pricing: log/exp/sqrt/rcp-heavy SP FP."""

    name = "black_scholes"
    uses_float = True
    tolerance = (2e-3, 2e-3)
    defaults = {"n": 256, "r": 0.02, "sigma": 0.30, "t": 1.0, "seed": 107}

    def programs(self):
        src = _BLACK_SCHOLES_SRC.format(
            cnd_d1=_cnd_block(d=18, out=20, t0=21, t1=22, t2=23),
            cnd_d2=_cnd_block(d=19, out=24, t0=21, t1=22, t2=23),
        )
        return [build(src)]

    def prepare(self, device):
        rng = np.random.default_rng(self.seed)
        spot = (rng.uniform(10, 100, self.n)).astype(np.float32)
        strike = (rng.uniform(10, 100, self.n)).astype(np.float32)
        return {"spot_v": spot, "strike_v": strike,
                "spot": device.upload("spot", spot),
                "strike": device.upload("strike", strike),
                "call": device.alloc("call", self.n * 4, np.float32)}

    def execute(self, device, ctx):
        device.run(self.programs()[0], (self.n,), (64,),
                   args=[ctx["spot"], ctx["strike"], ctx["call"],
                         float(self.r), float(self.sigma), float(self.t)])

    @staticmethod
    def _cnd(d):
        sign = d < 0
        a = np.abs(d).astype(np.float32)
        k = _rcp_f32(np.float32(1) + np.float32(0.2316419) * a)
        poly = np.float32(1.330274429) * k
        for coeff in (-1.821255978, 1.781477937, -0.356563782, 0.319381530):
            poly = (poly + np.float32(coeff)) * k
        pdf = _exp2_f32(a * a * np.float32(-0.72134752)) \
            * np.float32(0.39894228)
        cnd = np.float32(1) - pdf * poly
        return np.where(sign, np.float32(1) - cnd, cnd).astype(np.float32)

    def reference(self, ctx):
        s, k = ctx["spot_v"], ctx["strike_v"]
        r, sig, t = (np.float32(self.r), np.float32(self.sigma),
                     np.float32(self.t))
        ln_sk = _log2_f32(s * _rcp_f32(k)) * np.float32(_LN2)
        sig_sqrt_t = sig * _sqrt_f32(t)
        d1 = (ln_sk + (sig * sig * np.float32(0.5) + r) * t) \
            * _rcp_f32(sig_sqrt_t)
        d2 = d1 - sig_sqrt_t
        disc = _exp2_f32(r * t * np.float32(-_LOG2E))
        call = s * self._cnd(d1) - k * disc * self._cnd(d2)
        return {"call": call.astype(np.float32)}

# ---------------------------------------------------------------------------
# DWT Haar 1D.
# ---------------------------------------------------------------------------

_DWT_SRC = """
.kernel dwt_haar_1d
  s_buffer_load_dword s19, s[8:11], 3
  s_buffer_load_dword s20, s[12:15], 0    ; in (2n floats)
  s_buffer_load_dword s21, s[12:15], 1    ; approx out (n floats)
  s_buffer_load_dword s22, s[12:15], 2    ; detail out (n floats)
  s_waitcnt lgkmcnt(0)
  s_mul_i32 s1, s16, s19
  v_add_i32 v3, vcc, s1, v0
  v_lshlrev_b32 v4, 3, v3                 ; pair byte offset
  v_add_i32 v4, vcc, s20, v4
  tbuffer_load_format_xy v5, v4, s[4:7], 0 offen     ; a, b
  s_waitcnt vmcnt(0)
  v_add_f32 v7, v5, v6
  v_sub_f32 v8, v5, v6
  v_mov_b32 v9, 0x3f3504f3                ; 1/sqrt(2)
  v_mul_f32 v7, v7, v9
  v_mul_f32 v8, v8, v9
  v_lshlrev_b32 v10, 2, v3
  v_add_i32 v11, vcc, s21, v10
  tbuffer_store_format_x v7, v11, s[4:7], 0 offen
  v_add_i32 v12, vcc, s22, v10
  tbuffer_store_format_x v8, v12, s[4:7], 0 offen
  s_endpgm
"""


@register
class DwtHaar1D(Benchmark):
    """One level of the Haar wavelet transform."""

    name = "dwt_haar_1d"
    uses_float = True
    defaults = {"n": 512, "seed": 109}

    def programs(self):
        return [build(_DWT_SRC)]

    def prepare(self, device):
        rng = np.random.default_rng(self.seed)
        data = rng.standard_normal(2 * self.n).astype(np.float32)
        return {"in_v": data,
                "in": device.upload("in", data),
                "approx": device.alloc("approx", self.n * 4, np.float32),
                "detail": device.alloc("detail", self.n * 4, np.float32)}

    def execute(self, device, ctx):
        device.run(self.programs()[0], (self.n,), (64,),
                   args=[ctx["in"], ctx["approx"], ctx["detail"]])

    def reference(self, ctx):
        x = ctx["in_v"]
        a, b = x[0::2], x[1::2]
        inv = np.float32(_INV_SQRT2)
        return {"approx": ((a + b) * inv).astype(np.float32),
                "detail": ((a - b) * inv).astype(np.float32)}


# ---------------------------------------------------------------------------
# Fast Walsh transform (host loop over passes, like bitonic).
# ---------------------------------------------------------------------------

_FWT_SRC = """
.kernel fast_walsh_pass
  s_buffer_load_dword s19, s[8:11], 3
  s_buffer_load_dword s20, s[12:15], 0    ; data
  s_buffer_load_dword s21, s[12:15], 1    ; j (partner distance)
  s_waitcnt lgkmcnt(0)
  s_mul_i32 s1, s16, s19
  v_add_i32 v3, vcc, s1, v0
  v_xor_b32 v4, s21, v3                   ; partner
  v_cmp_gt_u32 vcc, v4, v3
  s_and_b64 exec, exec, vcc
  s_cbranch_execz fwt_done
  v_lshlrev_b32 v5, 2, v3
  v_add_i32 v5, vcc, s20, v5
  v_lshlrev_b32 v6, 2, v4
  v_add_i32 v6, vcc, s20, v6
  tbuffer_load_format_x v7, v5, s[4:7], 0 offen
  tbuffer_load_format_x v8, v6, s[4:7], 0 offen
  s_waitcnt vmcnt(0)
  v_add_f32 v9, v7, v8
  v_sub_f32 v10, v7, v8
  tbuffer_store_format_x v9, v5, s[4:7], 0 offen
  tbuffer_store_format_x v10, v6, s[4:7], 0 offen
fwt_done:
  s_endpgm
"""


@register
class FastWalshTransform(Benchmark):
    """In-place Walsh-Hadamard transform over float32 data."""

    name = "fast_walsh_transform"
    uses_float = True
    defaults = {"n": 256, "seed": 113}

    def programs(self):
        return [build(_FWT_SRC)]

    def prepare(self, device):
        rng = np.random.default_rng(self.seed)
        data = rng.standard_normal(self.n).astype(np.float32)
        return {"in_v": data.copy(),
                "data": device.upload("data", data)}

    def execute(self, device, ctx):
        j = 1
        while j < self.n:
            device.run(self.programs()[0], (self.n,), (64,),
                       args=[ctx["data"], j])
            j <<= 1

    def reference(self, ctx):
        x = ctx["in_v"].copy()
        j = 1
        while j < self.n:
            idx = np.arange(self.n)
            partner = idx ^ j
            lower = idx < partner
            a, b = x[idx[lower]], x[partner[lower]]
            x[idx[lower]], x[partner[lower]] = a + b, a - b
            j <<= 1
        return {"data": x}


# ---------------------------------------------------------------------------
# FFT (radix-2, one launch per stage; sin/cos twiddles on the fly).
# ---------------------------------------------------------------------------

_FFT_SRC = """
.kernel fft_stage
  s_buffer_load_dword s19, s[8:11], 3
  s_buffer_load_dword s20, s[12:15], 0    ; data (interleaved re, im)
  s_buffer_load_dword s23, s[12:15], 1    ; log2(half)
  s_buffer_load_dword s24, s[12:15], 2    ; log2(len)
  s_buffer_load_dword s25, s[12:15], 3    ; angle step (f32 bits)
  s_waitcnt lgkmcnt(0)
  s_mul_i32 s1, s16, s19
  v_add_i32 v3, vcc, s1, v0               ; butterfly id
  s_mov_b32 s2, 1
  s_lshl_b32 s3, s2, s23
  s_add_u32 s40, s3, -1                   ; half - 1
  v_and_b32 v4, s40, v3                   ; j within block
  v_lshrrev_b32 v5, s23, v3               ; block
  v_lshlrev_b32 v5, s24, v5
  v_add_i32 v6, vcc, v5, v4               ; i = block*len + j
  v_add_i32 v7, vcc, s3, v6               ; i + half
  ; twiddle w = cos(theta) + i sin(theta), theta = -j * step
  v_cvt_f32_u32 v8, v4
  v_mov_b32 v9, s25
  v_mul_f32 v8, v8, v9                    ; theta
  v_cos_f32 v10, v8                       ; wr
  v_sin_f32 v11, v8                       ; wi
  v_lshlrev_b32 v12, 3, v6
  v_add_i32 v12, vcc, s20, v12            ; &data[i]
  v_lshlrev_b32 v13, 3, v7
  v_add_i32 v13, vcc, s20, v13            ; &data[i+half]
  tbuffer_load_format_xy v14, v12, s[4:7], 0 offen  ; ar, ai
  tbuffer_load_format_xy v16, v13, s[4:7], 0 offen  ; br, bi
  s_waitcnt vmcnt(0)
  ; t = w * b
  v_mul_f32 v18, v10, v16
  v_mul_f32 v19, v11, v17
  v_sub_f32 v18, v18, v19                 ; tr
  v_mul_f32 v19, v10, v17
  v_mul_f32 v20, v11, v16
  v_add_f32 v19, v19, v20                 ; ti
  v_add_f32 v21, v14, v18
  v_add_f32 v22, v15, v19
  v_sub_f32 v23, v14, v18
  v_sub_f32 v24, v15, v19
  tbuffer_store_format_x v21, v12, s[4:7], 0 offen
  tbuffer_store_format_x v22, v12, s[4:7], 0 offen offset:4
  tbuffer_store_format_x v23, v13, s[4:7], 0 offen
  tbuffer_store_format_x v24, v13, s[4:7], 0 offen offset:4
  s_endpgm
"""


@register
class Fft(Benchmark):
    """Radix-2 FFT stages with on-the-fly sin/cos twiddle factors."""

    name = "fft"
    uses_float = True
    tolerance = (2e-3, 2e-3)
    defaults = {"n": 128, "seed": 127}

    def programs(self):
        return [build(_FFT_SRC)]

    def prepare(self, device):
        rng = np.random.default_rng(self.seed)
        data = rng.standard_normal((self.n, 2)).astype(np.float32)
        return {"in_v": data.copy(),
                "data": device.upload("data", data)}

    def execute(self, device, ctx):
        length = 2
        while length <= self.n:
            half = length // 2
            step = -_TWO_PI / length
            device.run(self.programs()[0], (self.n // 2,),
                       (min(64, self.n // 2),),
                       args=[ctx["data"], int(np.log2(half)),
                             int(np.log2(length)), float(step)])
            length <<= 1

    def reference(self, ctx):
        # One stage at a time, every butterfly of the stage at once: a
        # stage's butterflies touch disjoint (i, i + half) pairs.
        data = ctx["in_v"]
        re, im = data[:, 0].copy(), data[:, 1].copy()
        t = np.arange(self.n // 2)
        length = 2
        while length <= self.n:
            half = length // 2
            step = np.float32(-_TWO_PI / length)
            j = t & (half - 1)
            i = ((t >> int(np.log2(half))) << int(np.log2(length))) + j
            k = i + half
            theta = j.astype(np.float32) * step
            wr, wi = _cos_f32(theta), _sin_f32(theta)
            tr = wr * re[k] - wi * im[k]
            ti = wr * im[k] + wi * re[k]
            re_i, im_i = re[i], im[i]
            re[k], im[k] = re_i - tr, im_i - ti
            re[i], im[i] = re_i + tr, im_i + ti
            length <<= 1
        out = np.stack([re, im], axis=1).astype(np.float32)
        return {"data": out}

# ---------------------------------------------------------------------------
# Eigenvalue bisection (Sturm-sequence sign count, with divides).
# ---------------------------------------------------------------------------

_EIGEN_REAL_SRC = """
.kernel eigenvalue_count
  s_buffer_load_dword s19, s[8:11], 3
  s_buffer_load_dword s20, s[12:15], 0    ; diagonal d[]
  s_buffer_load_dword s21, s[12:15], 1    ; off-diagonal squared e2[]
  s_buffer_load_dword s22, s[12:15], 2    ; probe points x[]
  s_buffer_load_dword s23, s[12:15], 3    ; counts out
  s_buffer_load_dword s24, s[12:15], 4    ; matrix order m
  s_waitcnt lgkmcnt(0)
  s_mul_i32 s1, s16, s19
  v_add_i32 v3, vcc, s1, v0
  v_lshlrev_b32 v4, 2, v3
  v_add_i32 v5, vcc, s22, v4
  tbuffer_load_format_x v6, v5, s[4:7], 0 offen     ; x
  s_waitcnt vmcnt(0)
  v_mov_b32 v7, 0                         ; count
  v_mov_b32 v12, 0                        ; zero (fp and int)
  s_mov_b32 s2, s20                       ; d cursor
  s_mov_b32 s3, s21                       ; e2 cursor
  ; q = d[0] - x
  v_mov_b32 v9, s2
  tbuffer_load_format_x v10, v9, s[4:7], 0 offen
  s_waitcnt vmcnt(0)
  v_sub_f32 v11, v10, v6                  ; q
  v_add_i32 v13, vcc, 1, v7
  v_cmp_lt_f32 vcc, v11, v12
  v_cndmask_b32 v7, v7, v13, vcc
  s_mov_b32 s40, 1                        ; i
eig_loop:
  s_add_u32 s2, s2, 4
  v_mov_b32 v9, s2
  tbuffer_load_format_x v10, v9, s[4:7], 0 offen    ; d[i]
  v_mov_b32 v14, s3
  tbuffer_load_format_x v15, v14, s[4:7], 0 offen   ; e2[i-1]
  s_waitcnt vmcnt(0)
  s_add_u32 s3, s3, 4
  ; q = d[i] - x - e2[i-1] / q
  v_rcp_f32 v16, v11
  v_mul_f32 v16, v15, v16
  v_sub_f32 v11, v10, v6
  v_sub_f32 v11, v11, v16
  v_add_i32 v13, vcc, 1, v7
  v_cmp_lt_f32 vcc, v11, v12
  v_cndmask_b32 v7, v7, v13, vcc
  s_add_u32 s40, s40, 1
  s_cmp_lt_u32 s40, s24
  s_cbranch_scc1 eig_loop
  v_add_i32 v17, vcc, s23, v4
  tbuffer_store_format_x v7, v17, s[4:7], 0 offen
  s_endpgm
"""


@register
class Eigenvalue(Benchmark):
    """Sturm-sequence eigenvalue counting for a tridiagonal matrix."""

    name = "eigenvalue"
    uses_float = True
    defaults = {"m": 8, "probes": 64, "seed": 131}

    def programs(self):
        return [build(_EIGEN_REAL_SRC)]

    def prepare(self, device):
        rng = np.random.default_rng(self.seed)
        diag = np.sort(rng.uniform(-4, 4, self.m)).astype(np.float32)
        off = rng.uniform(0.1, 0.4, self.m - 1).astype(np.float32)
        e2 = np.concatenate([off * off,
                             np.zeros(1, dtype=np.float32)]).astype(np.float32)
        probes = np.linspace(-6, 6, self.probes).astype(np.float32)
        return {"diag_v": diag, "e2_v": e2, "probes_v": probes,
                "diag": device.upload("diag", diag),
                "e2": device.upload("e2", e2),
                "probes": device.upload("probes", probes),
                "counts": device.alloc("counts", self.probes * 4)}

    def execute(self, device, ctx):
        device.run(self.programs()[0], (self.probes,),
                   (min(64, self.probes),),
                   args=[ctx["diag"], ctx["e2"], ctx["probes"],
                         ctx["counts"], self.m])

    def reference(self, ctx):
        # Every probe's Sturm sequence at once, row by row.
        d, e2, x = ctx["diag_v"], ctx["e2_v"], ctx["probes_v"]
        q = d[0] - x
        counts = (q < 0).astype(np.uint32)
        for i in range(1, self.m):
            q = (d[i] - x) - e2[i - 1] * _rcp_f32(q)
            counts += q < 0
        return {"counts": counts}


# ---------------------------------------------------------------------------
# Monte Carlo Asian option (LCG + Box-Muller + GBM).
# ---------------------------------------------------------------------------

_MONTE_CARLO_SRC = """
.kernel monte_carlo_asian
  s_buffer_load_dword s19, s[8:11], 3
  s_buffer_load_dword s20, s[12:15], 0    ; payoff out
  s_buffer_load_dword s23, s[12:15], 1    ; steps
  s_buffer_load_dword s24, s[12:15], 2    ; a  = drift per step (f32)
  s_buffer_load_dword s25, s[12:15], 3    ; b  = vol factor per step (f32)
  s_buffer_load_dword s26, s[12:15], 4    ; S0 (f32)
  s_buffer_load_dword s27, s[12:15], 5    ; K (f32)
  s_buffer_load_dword s28, s[12:15], 6    ; 1/steps (f32)
  s_waitcnt lgkmcnt(0)
  s_mul_i32 s1, s16, s19
  v_add_i32 v3, vcc, s1, v0               ; path id
  ; LCG state seeded with the path id
  v_mov_b32 v4, 0x9e3779b9
  v_mul_lo_u32 v4, v3, v4
  v_add_i32 v4, vcc, 0x3039, v4
  v_mov_b32 v5, s26                       ; S
  v_mov_b32 v6, 0                         ; running sum
  s_mov_b32 s2, 0
mc_loop:
  ; two LCG draws -> u1, u2 in (0, 1)
  v_mov_b32 v7, 0x41c64e6d
  v_mul_lo_u32 v4, v4, v7
  v_add_i32 v4, vcc, 0x3039, v4
  v_lshrrev_b32 v8, 8, v4
  v_cvt_f32_u32 v8, v8
  v_mov_b32 v9, 0x33800000                ; 2^-24
  v_mul_f32 v8, v8, v9
  v_mov_b32 v10, 0x34000000               ; tiny, keeps u1 > 0
  v_add_f32 v8, v8, v10                   ; u1
  v_mul_lo_u32 v4, v4, v7
  v_add_i32 v4, vcc, 0x3039, v4
  v_lshrrev_b32 v11, 8, v4
  v_cvt_f32_u32 v11, v11
  v_mul_f32 v11, v11, v9                  ; u2
  ; z = sqrt(-2 ln u1) * cos(2 pi u2)
  v_log_f32 v12, v8                       ; log2(u1)
  v_mov_b32 v13, 0xbfb17218               ; -2 ln2
  v_mul_f32 v12, v12, v13                 ; -2 ln(u1)
  v_sqrt_f32 v12, v12
  v_mov_b32 v14, 0x40c90fdb               ; 2 pi
  v_mul_f32 v15, v11, v14
  v_cos_f32 v15, v15
  v_mul_f32 v12, v12, v15                 ; z
  ; S *= exp2(a + b z)
  v_mov_b32 v16, s25
  v_mul_f32 v16, v16, v12
  v_mov_b32 v17, s24
  v_add_f32 v16, v16, v17
  v_exp_f32 v16, v16
  v_mul_f32 v5, v5, v16
  v_add_f32 v6, v6, v5
  s_add_u32 s2, s2, 1
  s_cmp_lt_u32 s2, s23
  s_cbranch_scc1 mc_loop
  ; payoff = max(avg - K, 0)
  v_mov_b32 v18, s28
  v_mul_f32 v6, v6, v18                   ; avg
  v_mov_b32 v19, s27
  v_sub_f32 v6, v6, v19
  v_mov_b32 v20, 0
  v_max_f32 v6, v6, v20
  v_lshlrev_b32 v21, 2, v3
  v_add_i32 v21, vcc, s20, v21
  tbuffer_store_format_x v6, v21, s[4:7], 0 offen
  s_endpgm
"""


@register
class MonteCarloAsian(Benchmark):
    """Arithmetic-average Asian option paths: trans-heavy SP FP."""

    name = "monte_carlo_asian"
    uses_float = True
    tolerance = (2e-2, 2e-2)
    defaults = {"paths": 128, "steps": 8, "s0": 50.0, "k": 52.0,
                "r": 0.03, "sigma": 0.3}

    def programs(self):
        return [build(_MONTE_CARLO_SRC)]

    def _coeffs(self):
        dt = np.float32(1.0 / self.steps)
        drift = np.float32((self.r - 0.5 * self.sigma ** 2) * dt * _LOG2E)
        vol = np.float32(self.sigma * np.sqrt(dt) * _LOG2E)
        return drift, vol

    def prepare(self, device):
        return {"payoff": device.alloc("payoff", self.paths * 4, np.float32)}

    def execute(self, device, ctx):
        drift, vol = self._coeffs()
        device.run(self.programs()[0], (self.paths,), (64,),
                   args=[ctx["payoff"], self.steps, float(drift), float(vol),
                         float(self.s0), float(self.k),
                         float(1.0 / self.steps)])

    def reference(self, ctx):
        drift, vol = self._coeffs()
        gid = np.arange(self.paths, dtype=np.uint64)
        state = ((gid * 0x9E3779B9 + 0x3039) & 0xFFFFFFFF).astype(np.uint64)
        s = np.full(self.paths, np.float32(self.s0), dtype=np.float32)
        total = np.zeros(self.paths, dtype=np.float32)
        for _ in range(self.steps):
            state = (state * 0x41C64E6D + 0x3039) & 0xFFFFFFFF
            u1 = ((state >> 8).astype(np.float32) * np.float32(2 ** -24)
                  + np.float32(2 ** -23))
            state = (state * 0x41C64E6D + 0x3039) & 0xFFFFFFFF
            u2 = (state >> 8).astype(np.float32) * np.float32(2 ** -24)
            z = _sqrt_f32(_log2_f32(u1) * np.float32(-2 * _LN2)) \
                * _cos_f32(u2 * np.float32(_TWO_PI))
            s = (s * _exp2_f32(vol * z + drift)).astype(np.float32)
            total = (total + s).astype(np.float32)
        avg = total * np.float32(1.0 / self.steps)
        payoff = np.maximum(avg - np.float32(self.k), np.float32(0))
        return {"payoff": payoff.astype(np.float32)}

# ---------------------------------------------------------------------------
# Quasi-random sequence (Sobol-style direction-number XOR).
# ---------------------------------------------------------------------------

_QUASI_SRC = """
.kernel quasi_random
  s_buffer_load_dword s19, s[8:11], 3
  s_buffer_load_dword s20, s[12:15], 0    ; direction numbers (32 u32)
  s_buffer_load_dword s21, s[12:15], 1    ; out (f32 in [0,1))
  s_buffer_load_dword s23, s[12:15], 2    ; bits
  s_waitcnt lgkmcnt(0)
  s_mul_i32 s1, s16, s19
  v_add_i32 v3, vcc, s1, v0               ; index
  v_mov_b32 v4, 0                         ; x
  s_mov_b32 s2, 0                         ; bit
  s_mov_b32 s3, s20                       ; direction cursor
qr_loop:
  v_mov_b32 v5, s3
  tbuffer_load_format_x v6, v5, s[4:7], 0 offen     ; dir[bit]
  s_waitcnt vmcnt(0)
  v_lshrrev_b32 v7, s2, v3
  v_and_b32 v7, 1, v7
  v_mov_b32 v8, 0
  v_sub_i32 v7, vcc, v8, v7               ; 0 or 0xffffffff
  v_and_b32 v6, v6, v7
  v_xor_b32 v4, v4, v6
  s_add_u32 s3, s3, 4
  s_add_u32 s2, s2, 1
  s_cmp_lt_u32 s2, s23
  s_cbranch_scc1 qr_loop
  ; to float in [0, 1): x * 2^-32
  v_lshrrev_b32 v4, 8, v4                 ; 24 significant bits
  v_cvt_f32_u32 v9, v4
  v_mov_b32 v10, 0x33800000               ; 2^-24
  v_mul_f32 v9, v9, v10
  v_lshlrev_b32 v11, 2, v3
  v_add_i32 v11, vcc, s21, v11
  tbuffer_store_format_x v9, v11, s[4:7], 0 offen
  s_endpgm
"""


@register
class QuasiRandomSequence(Benchmark):
    """Sobol-style quasi-random numbers: XOR folds + int-to-float."""

    name = "quasi_random_sequence"
    uses_float = True
    defaults = {"n": 256, "bits": 10, "seed": 137}

    def programs(self):
        return [build(_QUASI_SRC)]

    def prepare(self, device):
        rng = np.random.default_rng(self.seed)
        dirs = (rng.integers(1, 1 << 32, size=32, dtype=np.uint64)
                .astype(np.uint32))
        return {"dirs_v": dirs,
                "dirs": device.upload("dirs", dirs),
                "out": device.alloc("out", self.n * 4, np.float32)}

    def execute(self, device, ctx):
        device.run(self.programs()[0], (self.n,), (64,),
                   args=[ctx["dirs"], ctx["out"], self.bits])

    def reference(self, ctx):
        idx = np.arange(self.n, dtype=np.uint32)
        x = np.zeros(self.n, dtype=np.uint32)
        for bit in range(self.bits):
            mask = np.where((idx >> np.uint32(bit)) & np.uint32(1),
                            np.uint32(0xFFFFFFFF), np.uint32(0))
            x ^= ctx["dirs_v"][bit] & mask
        out = (x >> np.uint32(8)).astype(np.float32) * np.float32(2 ** -24)
        return {"out": out.astype(np.float32)}


# ---------------------------------------------------------------------------
# Scan of large arrays (float Hillis-Steele, one workgroup tile).
# ---------------------------------------------------------------------------

_SCAN_SRC = """
.kernel scan_large_arrays
.lds 256
  s_buffer_load_dword s20, s[12:15], 0    ; data (64 f32)
  s_buffer_load_dword s21, s[12:15], 1    ; out
  s_waitcnt lgkmcnt(0)
  v_lshlrev_b32 v4, 2, v0
  v_add_i32 v5, vcc, s20, v4
  tbuffer_load_format_x v8, v5, s[4:7], 0 offen
  s_waitcnt vmcnt(0)
  ds_write_b32 v4, v8
  s_waitcnt lgkmcnt(0)
  s_barrier
  s_mov_b32 s2, 1
fscan_step:
  s_mov_b64 s[30:31], exec
  v_mov_b32 v9, s2
  v_cmp_le_u32 vcc, v9, v0
  s_and_b64 exec, exec, vcc
  v_sub_i32 v10, vcc, v0, v9
  v_lshlrev_b32 v10, 2, v10
  ds_read_b32 v11, v10
  s_waitcnt lgkmcnt(0)
  v_add_f32 v8, v8, v11
  s_mov_b64 exec, s[30:31]
  s_barrier
  ds_write_b32 v4, v8
  s_waitcnt lgkmcnt(0)
  s_barrier
  s_lshl_b32 s2, s2, 1
  s_cmp_lt_u32 s2, 64
  s_cbranch_scc1 fscan_step
  v_add_i32 v12, vcc, s21, v4
  tbuffer_store_format_x v8, v12, s[4:7], 0 offen
  s_endpgm
"""


@register
class ScanLargeArrays(Benchmark):
    """Float inclusive scan through the LDS."""

    name = "scan_large_arrays"
    uses_float = True
    defaults = {"seed": 139}

    def programs(self):
        return [build(_SCAN_SRC)]

    def prepare(self, device):
        rng = np.random.default_rng(self.seed)
        data = rng.standard_normal(64).astype(np.float32)
        return {"data_v": data,
                "data": device.upload("data", data),
                "out": device.alloc("out", 64 * 4, np.float32)}

    def execute(self, device, ctx):
        device.run(self.programs()[0], (64,), (64,),
                   args=[ctx["data"], ctx["out"]])

    def reference(self, ctx):
        # Hillis-Steele adds in log-steps order; mirror it in float32.
        x = ctx["data_v"].copy()
        off = 1
        while off < 64:
            shifted = np.zeros_like(x)
            shifted[off:] = x[:-off]
            x = (x + shifted).astype(np.float32)
            off <<= 1
        return {"out": x}


# ---------------------------------------------------------------------------
# Recursive Gaussian (first-order IIR per image row).
# ---------------------------------------------------------------------------

_RECURSIVE_GAUSSIAN_SRC = """
.kernel recursive_gaussian
  s_buffer_load_dword s19, s[8:11], 3
  s_buffer_load_dword s20, s[12:15], 0    ; img
  s_buffer_load_dword s21, s[12:15], 1    ; out
  s_buffer_load_dword s23, s[12:15], 2    ; n (row length)
  s_buffer_load_dword s24, s[12:15], 3    ; a (f32)
  s_buffer_load_dword s25, s[12:15], 4    ; b (f32)
  s_waitcnt lgkmcnt(0)
  s_mul_i32 s1, s16, s19
  v_add_i32 v3, vcc, s1, v0               ; row id
  v_mul_lo_u32 v4, v3, s23
  v_lshlrev_b32 v4, 2, v4
  v_add_i32 v5, vcc, s20, v4              ; row in cursor
  v_add_i32 v6, vcc, s21, v4              ; row out cursor
  v_mov_b32 v7, 0                         ; y (carry)
  v_mov_b32 v10, s24
  v_mov_b32 v11, s25
  s_mov_b32 s2, 0
rg_loop:
  tbuffer_load_format_x v8, v5, s[4:7], 0 offen
  s_waitcnt vmcnt(0)
  v_mul_f32 v9, v8, v10                   ; a*x
  v_mac_f32 v9, v7, v11                   ; + b*y
  v_mov_b32 v7, v9
  tbuffer_store_format_x v9, v6, s[4:7], 0 offen
  v_add_i32 v5, vcc, 4, v5
  v_add_i32 v6, vcc, 4, v6
  s_add_u32 s2, s2, 1
  s_cmp_lt_u32 s2, s23
  s_cbranch_scc1 rg_loop
  s_endpgm
"""


@register
class RecursiveGaussian(Benchmark):
    """First-order recursive (IIR) Gaussian filter, one row per item."""

    name = "recursive_gaussian"
    uses_float = True
    defaults = {"n": 64, "rows": 64, "a": 0.3, "b": 0.7, "seed": 149}

    def programs(self):
        return [build(_RECURSIVE_GAUSSIAN_SRC)]

    def prepare(self, device):
        rng = np.random.default_rng(self.seed)
        img = rng.standard_normal((self.rows, self.n)).astype(np.float32)
        return {"img_v": img,
                "img": device.upload("img", img),
                "out": device.alloc("out", img.nbytes, np.float32)}

    def execute(self, device, ctx):
        device.run(self.programs()[0], (self.rows,), (min(64, self.rows),),
                   args=[ctx["img"], ctx["out"], self.n,
                         float(self.a), float(self.b)])

    def reference(self, ctx):
        img = ctx["img_v"]
        a, b = np.float32(self.a), np.float32(self.b)
        out = np.zeros_like(img)
        y = np.zeros(self.rows, dtype=np.float32)
        for i in range(self.n):
            y = (img[:, i] * a + y * b).astype(np.float32)
            out[:, i] = y
        return {"out": out}


# ---------------------------------------------------------------------------
# DCT (rows x cosine basis = the SDK's 8x8 DCT generalised to a matmul)
# and Binomial options.
# ---------------------------------------------------------------------------


@register
class Dct(MatrixMulF32):
    """1-D DCT-II of matrix rows: a matmul against the cosine basis."""

    name = "dct"
    defaults = dict(MatrixMulF32.defaults, n=16, seed=151)

    def _data(self):
        rng = np.random.default_rng(self.seed)
        img = rng.standard_normal((self.n, self.n)).astype(np.float32)
        x = np.arange(self.n)
        u = np.arange(self.n)
        basis = np.cos((2 * x[:, None] + 1) * u[None, :] * np.pi
                       / (2 * self.n)).astype(np.float32)
        basis *= np.sqrt(2.0 / self.n)
        basis[:, 0] *= np.float32(1 / np.sqrt(2))
        return img, basis.astype(np.float32)


@register
class SdkMatrixMultiplication(MatrixMulF32):
    name = "matrix_multiplication"
    defaults = dict(MatrixMulF32.defaults, n=16)


_BINOMIAL_SRC = """
.kernel binomial_options
  s_buffer_load_dword s19, s[8:11], 3
  s_buffer_load_dword s20, s[12:15], 0    ; S0 array
  s_buffer_load_dword s21, s[12:15], 1    ; scratch (paths x (steps+1))
  s_buffer_load_dword s22, s[12:15], 2    ; out
  s_buffer_load_dword s23, s[12:15], 3    ; steps N
  s_buffer_load_dword s24, s[12:15], 4    ; u (f32)
  s_buffer_load_dword s25, s[12:15], 5    ; d (f32)
  s_buffer_load_dword s26, s[12:15], 6    ; pu*df (f32)
  s_buffer_load_dword s27, s[12:15], 7    ; pd*df (f32)
  s_buffer_load_dword s28, s[12:15], 8    ; K (f32)
  s_waitcnt lgkmcnt(0)
  s_mul_i32 s1, s16, s19
  v_add_i32 v3, vcc, s1, v0               ; option id
  v_lshlrev_b32 v4, 2, v3
  v_add_i32 v4, vcc, s20, v4
  tbuffer_load_format_x v5, v4, s[4:7], 0 offen      ; S0
  s_waitcnt vmcnt(0)
  ; scratch row base = s21 + id * (N+1) * 4
  s_add_u32 s2, s23, 1
  v_mul_lo_u32 v6, v3, s2
  v_lshlrev_b32 v6, 2, v6
  v_add_i32 v6, vcc, s21, v6              ; row base
  ; leaves: V[j] = max(S0 * u^j * d^(N-j) - K, 0); S_j built iteratively
  v_mov_b32 v7, s25
  v_mov_b32 v8, v5
  s_mov_b32 s3, 0
bin_pow_d:
  v_mul_f32 v8, v8, v7                    ; S0 * d^N
  s_add_u32 s3, s3, 1
  s_cmp_lt_u32 s3, s23
  s_cbranch_scc1 bin_pow_d
  v_mov_b32 v9, s24
  v_rcp_f32 v10, v7                       ; 1/d
  v_mul_f32 v10, v10, v9                  ; u/d
  v_mov_b32 v11, v6                       ; leaf cursor
  v_mov_b32 v12, s28
  v_mov_b32 v13, 0
  s_mov_b32 s3, 0
bin_leaves:
  v_sub_f32 v14, v8, v12                  ; S_j - K
  v_max_f32 v14, v14, v13
  tbuffer_store_format_x v14, v11, s[4:7], 0 offen
  v_mul_f32 v8, v8, v10                   ; next S_j
  v_add_i32 v11, vcc, 4, v11
  s_add_u32 s3, s3, 1
  s_cmp_le_u32 s3, s23
  s_cbranch_scc1 bin_leaves
  ; backward induction: for t = N..1: V[j] = pu*V[j+1] + pd*V[j]
  v_mov_b32 v15, s26                      ; pu*df
  v_mov_b32 v16, s27                      ; pd*df
  s_mov_b32 s40, s23                      ; t
bin_t:
  v_mov_b32 v11, v6
  s_mov_b32 s41, 0
bin_j:
  tbuffer_load_format_xy v17, v11, s[4:7], 0 offen   ; V[j], V[j+1]
  s_waitcnt vmcnt(0)
  v_mul_f32 v19, v18, v15                 ; pu*df*V[j+1]
  v_mac_f32 v19, v17, v16                 ; + pd*df*V[j]
  tbuffer_store_format_x v19, v11, s[4:7], 0 offen
  v_add_i32 v11, vcc, 4, v11
  s_add_u32 s41, s41, 1
  s_cmp_lt_u32 s41, s40
  s_cbranch_scc1 bin_j
  s_add_u32 s40, s40, -1
  s_cmp_gt_u32 s40, 0
  s_cbranch_scc1 bin_t
  ; V[0] is the option value
  tbuffer_load_format_x v20, v6, s[4:7], 0 offen
  s_waitcnt vmcnt(0)
  v_lshlrev_b32 v21, 2, v3
  v_add_i32 v21, vcc, s22, v21
  tbuffer_store_format_x v20, v21, s[4:7], 0 offen
  s_endpgm
"""


@register
class BinomialOptions(Benchmark):
    """CRR binomial option pricing via backward induction."""

    name = "binomial_options"
    uses_float = True
    tolerance = (5e-3, 5e-3)
    defaults = {"options": 64, "steps": 8, "r": 0.02, "sigma": 0.3,
                "t": 1.0, "k": 50.0, "seed": 157}

    def programs(self):
        return [build(_BINOMIAL_SRC)]

    def _coeffs(self):
        dt = self.t / self.steps
        u = np.float32(np.exp(self.sigma * np.sqrt(dt)))
        d = np.float32(1.0 / float(u))
        df = np.exp(-self.r * dt)
        pu = (np.exp(self.r * dt) - float(d)) / (float(u) - float(d))
        return u, d, np.float32(pu * df), np.float32((1 - pu) * df)

    def prepare(self, device):
        rng = np.random.default_rng(self.seed)
        s0 = rng.uniform(40, 60, self.options).astype(np.float32)
        scratch_len = self.options * (self.steps + 1)
        return {"s0_v": s0,
                "s0": device.upload("s0", s0),
                "scratch": device.alloc("scratch", scratch_len * 4,
                                        np.float32),
                "out": device.alloc("out", self.options * 4, np.float32)}

    def execute(self, device, ctx):
        u, d, pudf, pddf = self._coeffs()
        device.run(self.programs()[0], (self.options,),
                   (min(64, self.options),),
                   args=[ctx["s0"], ctx["scratch"], ctx["out"], self.steps,
                         float(u), float(d), float(pudf), float(pddf),
                         float(self.k)])

    def reference(self, ctx):
        # Every option's tree at once: row i of ``values`` is option i.
        # ``np.where(zero > x, zero, x)`` is exactly Python's
        # ``max(x, zero)``: x wins ties and NaN.
        u, d, pudf, pddf = self._coeffs()
        zero, k = np.float32(0), np.float32(self.k)
        s = ctx["s0_v"].astype(np.float32)
        for _ in range(self.steps):
            s = s * d
        ratio = np.float32(_rcp_f32(d) * u)
        values = np.empty((self.options, self.steps + 1), dtype=np.float32)
        for j in range(self.steps + 1):
            x = s - k
            values[:, j] = np.where(zero > x, zero, x)
            s = s * ratio
        for t in range(self.steps, 0, -1):
            values[:, :t] = values[:, 1:t + 1] * pudf + values[:, :t] * pddf
        return {"out": values[:, 0].copy()}
