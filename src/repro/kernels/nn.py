"""CNN and Network-in-Network benchmarks (INT32, SP FP, INT8).

The paper's AI-specific applications (Section 4): a CNN with
convolutional layers, ReLU and 2x2 max pooling, and a NIN whose
convolutional layers are followed by 1x1 "MLP" convolutions and an
average pooling at the output.  The INT8 NIN variant narrows the
datapath ("following recent trends in DNNs, we also vary the numerical
precision from a 32-bit format to a shortened 8-bit format",
Section 4.2) and exercises the byte load/store instructions.

Kernel structure (one launch per output feature map, like an OpenCL
host looping over ``clEnqueueNDRangeKernel`` calls):

* ``conv layer``  -- k x k convolution over IC input planes + ReLU,
  borders zeroed via EXEC masking,
* ``max pool``    -- per-plane 2x2 max reduction,
* ``global avg``  -- one workgroup per plane, partial sums through the
  LDS with an ``s_barrier``, lane 0 reduces and stores (the NIN's
  output pooling).
"""

from __future__ import annotations

import numpy as np

from .base import Benchmark, build

# ---------------------------------------------------------------------------
# Kernels.
# ---------------------------------------------------------------------------

_CONV_LAYER_SRC = """
.kernel {name}
  s_buffer_load_dword s19, s[8:11], 3
  s_buffer_load_dword s20, s[12:15], 0    ; input base (byte offset)
  s_buffer_load_dword s21, s[12:15], 1    ; weights for this oc
  s_buffer_load_dword s22, s[12:15], 2    ; output plane
  s_buffer_load_dword s23, s[12:15], 3    ; n (width)
  s_buffer_load_dword s24, s[12:15], 4    ; log2n
  s_buffer_load_dword s27, s[12:15], 5    ; k
  s_buffer_load_dword s34, s[12:15], 6    ; IC
  s_buffer_load_dword s35, s[12:15], 7    ; input plane stride (bytes)
  s_waitcnt lgkmcnt(0)
  s_mul_i32 s1, s16, s19
  v_add_i32 v3, vcc, s1, v0
  v_lshrrev_b32 v4, s24, v3               ; row
  s_add_u32 s25, s23, -1
  v_and_b32 v5, s25, v3                   ; col
  v_mov_b32 v8, 0
  s_lshr_b32 s28, s27, 1                  ; h
  s_sub_u32 s29, s23, s28
  s_mov_b64 s[30:31], exec
  v_cmp_le_u32 vcc, s28, v4
  s_and_b64 exec, exec, vcc
  v_cmp_gt_u32 vcc, s29, v4
  s_and_b64 exec, exec, vcc
  v_cmp_le_u32 vcc, s28, v5
  s_and_b64 exec, exec, vcc
  v_cmp_gt_u32 vcc, s29, v5
  s_and_b64 exec, exec, vcc
  s_cbranch_execz cl_store
  v_sub_i32 v6, vcc, v4, s28
  v_sub_i32 v7, vcc, v5, s28
  v_lshlrev_b32 v9, s24, v6
  v_add_i32 v9, vcc, v9, v7               ; (row-h)*n + (col-h), elements
{addr_scale}
  v_add_i32 v9, vcc, s20, v9              ; window base, plane 0
  s_mov_b32 s36, 0                        ; ic
  s_mov_b32 s33, s21                      ; weight cursor
{stride_rows}
cl_ic:
  v_mov_b32 v18, v9                       ; plane window base
  s_mov_b32 s2, 0                         ; dy
cl_dy:
  v_mov_b32 v10, v18                      ; row cursor
  s_mov_b32 s3, 0                         ; dx
cl_dx:
  v_mov_b32 v13, s33
{loads}
  s_waitcnt vmcnt(0)
{mac}
{advance}
  s_add_u32 s3, s3, 1
  s_cmp_lt_u32 s3, s27
  s_cbranch_scc1 cl_dx
  v_add_i32 v18, vcc, s26, v18
  s_add_u32 s2, s2, 1
  s_cmp_lt_u32 s2, s27
  s_cbranch_scc1 cl_dy
  v_add_i32 v9, vcc, s35, v9              ; next input plane
  s_add_u32 s36, s36, 1
  s_cmp_lt_u32 s36, s34
  s_cbranch_scc1 cl_ic
{relu}
cl_store:
  s_mov_b64 exec, s[30:31]
{store}
  s_endpgm
"""


def _conv_layer(name, dtype):
    """Instantiate the conv-layer template for i32 / f32 / i8."""
    if dtype == "i8":
        addr_scale = ""  # 1 byte per element
        stride_rows = "  s_mov_b32 s26, s23                      ; row stride"
        loads = ("  buffer_load_sbyte v11, v10, s[4:7], 0 offen\n"
                 "  buffer_load_sbyte v12, v13, s[4:7], 0 offen")
        mac = ("  v_mul_lo_i32 v15, v11, v12\n"
               "  v_add_i32 v8, vcc, v8, v15")
        advance = ("  v_add_i32 v10, vcc, 1, v10\n"
                   "  s_add_u32 s33, s33, 1")
        relu = ("  v_mov_b32 v16, 0\n"
                "  v_max_i32 v8, v8, v16\n"
                "  s_buffer_load_dword s37, s[12:15], 8  ; requant shift\n"
                "  s_waitcnt lgkmcnt(0)\n"
                "  v_ashrrev_i32 v8, s37, v8\n"
                "  v_mov_b32 v17, 127\n"
                "  v_min_i32 v8, v8, v17")
        store = ("  v_add_i32 v14, vcc, s22, v3\n"
                 "  buffer_store_byte v8, v14, s[4:7], 0 offen")
    else:
        addr_scale = "  v_lshlrev_b32 v9, 2, v9"
        stride_rows = "  s_lshl_b32 s26, s23, 2                  ; row stride"
        loads = ("  tbuffer_load_format_x v11, v10, s[4:7], 0 offen\n"
                 "  tbuffer_load_format_x v12, v13, s[4:7], 0 offen")
        if dtype == "f32":
            mac = "  v_mac_f32 v8, v11, v12"
            relu = ("  v_mov_b32 v16, 0\n"
                    "  v_max_f32 v8, v8, v16")
        else:
            mac = ("  v_mul_lo_i32 v15, v11, v12\n"
                   "  v_add_i32 v8, vcc, v8, v15")
            relu = ("  v_mov_b32 v16, 0\n"
                    "  v_max_i32 v8, v8, v16")
        advance = ("  v_add_i32 v10, vcc, 4, v10\n"
                   "  s_add_u32 s33, s33, 4")
        store = ("  v_lshlrev_b32 v14, 2, v3\n"
                 "  v_add_i32 v14, vcc, s22, v14\n"
                 "  tbuffer_store_format_x v8, v14, s[4:7], 0 offen")
    return build(_CONV_LAYER_SRC.format(
        name=name, addr_scale=addr_scale, stride_rows=stride_rows,
        loads=loads, mac=mac, advance=advance, relu=relu, store=store))


_POOL_SRC = """
.kernel {name}
  s_buffer_load_dword s19, s[8:11], 3
  s_buffer_load_dword s20, s[12:15], 0    ; in plane
  s_buffer_load_dword s21, s[12:15], 1    ; out plane
  s_buffer_load_dword s24, s[12:15], 2    ; log2 out width
  s_waitcnt lgkmcnt(0)
  s_mul_i32 s1, s16, s19
  v_add_i32 v3, vcc, s1, v0
  v_lshrrev_b32 v4, s24, v3
  s_mov_b32 s2, 1
  s_lshl_b32 s3, s2, s24
  s_add_u32 s3, s3, -1
  v_and_b32 v5, s3, v3
  v_lshlrev_b32 v6, 1, v4
  v_lshlrev_b32 v7, 1, v5
  s_add_u32 s25, s24, 1
  v_lshlrev_b32 v8, s25, v6
  v_add_i32 v8, vcc, v8, v7
  v_lshlrev_b32 v8, 2, v8
  v_add_i32 v8, vcc, s20, v8
  s_lshl_b32 s26, s2, s25
  s_lshl_b32 s26, s26, 2
  tbuffer_load_format_x v9, v8, s[4:7], 0 offen
  tbuffer_load_format_x v10, v8, s[4:7], 0 offen offset:4
  v_add_i32 v8, vcc, s26, v8
  tbuffer_load_format_x v11, v8, s[4:7], 0 offen
  tbuffer_load_format_x v12, v8, s[4:7], 0 offen offset:4
  s_waitcnt vmcnt(0)
  {max0} v14, v9, v10
  {max0} v14, v14, v11
  {max0} v15, v14, v12
  v_lshlrev_b32 v13, 2, v3
  v_add_i32 v13, vcc, s21, v13
  tbuffer_store_format_x v15, v13, s[4:7], 0 offen
  s_endpgm
"""

_POOL_I8_SRC = """
.kernel max_pool_i8
  s_buffer_load_dword s19, s[8:11], 3
  s_buffer_load_dword s20, s[12:15], 0
  s_buffer_load_dword s21, s[12:15], 1
  s_buffer_load_dword s24, s[12:15], 2    ; log2 out width
  s_waitcnt lgkmcnt(0)
  s_mul_i32 s1, s16, s19
  v_add_i32 v3, vcc, s1, v0
  v_lshrrev_b32 v4, s24, v3
  s_mov_b32 s2, 1
  s_lshl_b32 s3, s2, s24
  s_add_u32 s3, s3, -1
  v_and_b32 v5, s3, v3
  v_lshlrev_b32 v6, 1, v4
  v_lshlrev_b32 v7, 1, v5
  s_add_u32 s25, s24, 1
  v_lshlrev_b32 v8, s25, v6
  v_add_i32 v8, vcc, v8, v7
  v_add_i32 v8, vcc, s20, v8              ; byte addressing
  s_lshl_b32 s26, s2, s25
  buffer_load_sbyte v9, v8, s[4:7], 0 offen
  buffer_load_sbyte v10, v8, s[4:7], 0 offen offset:1
  v_add_i32 v8, vcc, s26, v8
  buffer_load_sbyte v11, v8, s[4:7], 0 offen
  buffer_load_sbyte v12, v8, s[4:7], 0 offen offset:1
  s_waitcnt vmcnt(0)
  v_max_i32 v14, v9, v10
  v_max_i32 v14, v14, v11
  v_max_i32 v15, v14, v12
  v_add_i32 v13, vcc, s21, v3
  buffer_store_byte v15, v13, s[4:7], 0 offen
  s_endpgm
"""

_GLOBAL_AVG_SRC = """
.kernel {name}
.lds 256
  s_buffer_load_dword s19, s[8:11], 3
  s_buffer_load_dword s20, s[12:15], 0    ; in plane
  s_buffer_load_dword s21, s[12:15], 1    ; out slot (byte offset)
  s_buffer_load_dword s23, s[12:15], 2    ; element count (multiple of 64)
  s_buffer_load_dword s24, s[12:15], 3    ; log2 count (for the average)
  s_waitcnt lgkmcnt(0)
  ; each lane sums elements lane, lane+64, lane+128, ...
  v_mov_b32 v8, 0
{cursor_init}
  s_lshr_b32 s2, s23, 6                   ; iterations = count / 64
  s_mov_b32 s3, 0
ga_loop:
{load}
  s_waitcnt vmcnt(0)
{acc}
{advance}
  s_add_u32 s3, s3, 1
  s_cmp_lt_u32 s3, s2
  s_cbranch_scc1 ga_loop
  ; partial sums through the LDS
  v_lshlrev_b32 v6, 2, v0
  ds_write_b32 v6, v8
  s_barrier
  s_waitcnt lgkmcnt(0)
  ; lane 0 reduces the 64 partials
  v_mov_b32 v10, 0
  v_cmp_eq_u32 vcc, v0, v10
  s_and_b64 exec, exec, vcc
  s_cbranch_execz ga_done
  v_mov_b32 v11, 0                        ; total
  v_mov_b32 v12, 0                        ; lds cursor
  s_mov_b32 s40, 0
ga_reduce:
  ds_read_b32 v13, v12
  s_waitcnt lgkmcnt(0)
{reduce_acc}
  v_add_i32 v12, vcc, 4, v12
  s_add_u32 s40, s40, 1
  s_cmp_lt_u32 s40, 64
  s_cbranch_scc1 ga_reduce
{avg}
  v_mov_b32 v15, s21
{store}
ga_done:
  s_endpgm
"""


def _global_avg(name, dtype):
    if dtype == "i8":
        cursor_init = "  v_add_i32 v9, vcc, s20, v0"
        load = "  buffer_load_sbyte v5, v9, s[4:7], 0 offen"
        acc = "  v_add_i32 v8, vcc, v8, v5"
        advance = "  v_add_i32 v9, vcc, 64, v9"
        reduce_acc = "  v_add_i32 v11, vcc, v11, v13"
        avg = "  v_ashrrev_i32 v14, s24, v11"
        store = "  buffer_store_byte v14, v15, s[4:7], 0 offen"
    elif dtype == "f32":
        cursor_init = ("  v_lshlrev_b32 v9, 2, v0\n"
                       "  v_add_i32 v9, vcc, s20, v9")
        load = "  tbuffer_load_format_x v5, v9, s[4:7], 0 offen"
        acc = "  v_add_f32 v8, v8, v5"
        advance = "  v_add_i32 v9, vcc, 256, v9"
        reduce_acc = "  v_add_f32 v11, v11, v13"
        # average = total * (1 / count); count is a power of two, so
        # build the reciprocal exactly from the exponent.
        avg = ("  v_cvt_f32_u32 v16, s23\n"
               "  v_rcp_f32 v16, v16\n"
               "  v_mul_f32 v14, v11, v16")
        store = "  tbuffer_store_format_x v14, v15, s[4:7], 0 offen"
    else:
        cursor_init = ("  v_lshlrev_b32 v9, 2, v0\n"
                       "  v_add_i32 v9, vcc, s20, v9")
        load = "  tbuffer_load_format_x v5, v9, s[4:7], 0 offen"
        acc = "  v_add_i32 v8, vcc, v8, v5"
        advance = "  v_add_i32 v9, vcc, 256, v9"
        reduce_acc = "  v_add_i32 v11, vcc, v11, v13"
        avg = "  v_ashrrev_i32 v14, s24, v11"
        store = "  tbuffer_store_format_x v14, v15, s[4:7], 0 offen"
    return build(_GLOBAL_AVG_SRC.format(
        name=name, cursor_init=cursor_init, load=load, acc=acc,
        advance=advance, reduce_acc=reduce_acc, avg=avg, store=store))


# ---------------------------------------------------------------------------
# Reference helpers (mirror the kernels' arithmetic exactly).
# ---------------------------------------------------------------------------

def _as_u32(array):
    """Reinterpret (floats) or convert (ints) to uint32 for upload."""
    if np.issubdtype(array.dtype, np.floating):
        return np.ascontiguousarray(array).view(np.uint32)
    return array.astype(np.uint32)


def _ref_conv_layer_int(planes, weights, k):
    """planes: (IC, n, n) int64; weights: (OC, IC, k, k) int64."""
    ic, n, _ = planes.shape
    oc = weights.shape[0]
    h = k // 2
    out = np.zeros((oc, n, n), dtype=np.int64)
    for o in range(oc):
        for c in range(ic):
            for dy in range(k):
                for dx in range(k):
                    out[o, h:n - h, h:n - h] += (
                        planes[c, dy:dy + n - 2 * h, dx:dx + n - 2 * h]
                        * weights[o, c, dy, dx])
    out[:, :h], out[:, n - h:] = 0, 0
    out[:, :, :h], out[:, :, n - h:] = 0, 0
    return np.maximum(out, 0)  # ReLU


def _ref_conv_layer_f32(planes, weights, k):
    ic, n, _ = planes.shape
    oc = weights.shape[0]
    h = k // 2
    out = np.zeros((oc, n, n), dtype=np.float32)
    for o in range(oc):
        for c in range(ic):
            for dy in range(k):
                for dx in range(k):
                    out[o, h:n - h, h:n - h] += (
                        planes[c, dy:dy + n - 2 * h, dx:dx + n - 2 * h]
                        * weights[o, c, dy, dx])
    out[:, :h], out[:, n - h:] = 0, 0
    out[:, :, :h], out[:, :, n - h:] = 0, 0
    return np.maximum(out, np.float32(0))


def _ref_maxpool(planes):
    c, n, _ = planes.shape
    return planes.reshape(c, n // 2, 2, n // 2, 2).max(axis=(2, 4))


# ---------------------------------------------------------------------------
# Benchmarks.
# ---------------------------------------------------------------------------

class CnnI32(Benchmark):
    """Multi-layer integer CNN: conv3x3 + ReLU + 2x2 max pooling."""

    name = "cnn_i32"
    uses_float = False
    defaults = {"n": 16, "channels": (1, 4, 4), "k": 3, "seed": 43}
    _dtype = "i32"

    def programs(self):
        return [
            _conv_layer("cnn_conv_{}".format(self._dtype), self._dtype),
            build(_POOL_SRC.format(name="cnn_pool_{}".format(self._dtype),
                                   max0="v_max_i32" if self._dtype == "i32"
                                   else "v_max_f32")),
        ]

    def _weights(self, rng, oc, ic):
        return rng.integers(-3, 4, size=(oc, ic, self.k, self.k)) \
            .astype(np.int32)

    def _input(self, rng, ic):
        return rng.integers(0, 16, size=(ic, self.n, self.n)).astype(np.int32)

    def prepare(self, device):
        rng = np.random.default_rng(self.seed)
        chans = list(self.channels)
        img = self._input(rng, chans[0])
        weights = [self._weights(rng, chans[i + 1], chans[i])
                   for i in range(len(chans) - 1)]
        ctx = {"img_data": img, "weights_data": weights, "bufs": {}}
        ctx["in0"] = device.upload("in0", _as_u32(img))
        for i, w in enumerate(weights):
            ctx["w{}".format(i)] = device.upload(
                "w{}".format(i), _as_u32(w))
        # activation + pooled planes per layer
        n = self.n
        for i in range(len(weights)):
            oc = chans[i + 1]
            ctx["act{}".format(i)] = device.alloc(
                "act{}".format(i), oc * n * n * 4)
            n //= 2
            ctx["pool{}".format(i)] = device.alloc(
                "pool{}".format(i), oc * n * n * 4)
        return ctx

    def execute(self, device, ctx):
        conv, pool = self.programs()
        chans = list(self.channels)
        n = self.n
        in_buf_off = ctx["in0"].offset
        for layer in range(len(chans) - 1):
            ic, oc = chans[layer], chans[layer + 1]
            log2n = int(np.log2(n))
            act, pooled = ctx["act{}".format(layer)], ctx["pool{}".format(layer)]
            w = ctx["w{}".format(layer)]
            plane = n * n * 4
            wsize = ic * self.k * self.k * 4
            for o in range(oc):
                device.run(conv, (n * n,), (min(256, n * n),),
                           args=[in_buf_off, w.offset + o * wsize,
                                 act.offset + o * plane,
                                 n, log2n, self.k, ic, plane])
            out_n = n // 2
            out_plane = out_n * out_n * 4
            for o in range(oc):
                device.run(pool, (out_n * out_n,), (min(256, out_n * out_n),),
                           args=[act.offset + o * plane,
                                 pooled.offset + o * out_plane,
                                 int(np.log2(out_n))])
            in_buf_off = pooled.offset
            n = out_n
        ctx["final_n"] = n

    def reference(self, ctx):
        planes = ctx["img_data"].astype(np.int64)
        out = None
        for w in ctx["weights_data"]:
            act = _ref_conv_layer_int(planes, w.astype(np.int64), self.k)
            act = (act & 0xFFFFFFFF)  # 32-bit wrap (values stay small here)
            out = _ref_maxpool(act)
            planes = out
        key = "pool{}".format(len(ctx["weights_data"]) - 1)
        return {key: out.astype(np.uint32)}


class CnnF32(CnnI32):
    """Multi-layer float32 CNN: conv3x3 + ReLU + 2x2 max pooling."""

    name = "cnn_f32"
    uses_float = True
    _dtype = "f32"

    def _weights(self, rng, oc, ic):
        return (rng.standard_normal((oc, ic, self.k, self.k)) * 0.25) \
            .astype(np.float32)

    def _input(self, rng, ic):
        return rng.standard_normal((ic, self.n, self.n)).astype(np.float32)

    def prepare(self, device):
        ctx = super().prepare(device)
        # Re-upload as raw float bits (prepare() cast via uint32 views).
        return ctx

    def reference(self, ctx):
        planes = ctx["img_data"].astype(np.float32)
        out = None
        for w in ctx["weights_data"]:
            act = _ref_conv_layer_f32(planes, w, self.k)
            out = _ref_maxpool(act)
            planes = out
        key = "pool{}".format(len(ctx["weights_data"]) - 1)
        return {key: out.astype(np.float32)}


class NinI32(Benchmark):
    """Network-in-Network: conv3x3 + 1x1 MLP convs + global average pool."""

    name = "nin_i32"
    uses_float = False
    datapath_bits = 32
    defaults = {"n": 16, "channels": (1, 4), "mlp_layers": 2, "seed": 47}
    _dtype = "i32"
    _K = 3

    def programs(self):
        return [
            _conv_layer("nin_conv_{}".format(self._dtype), self._dtype),
            _global_avg("nin_avg_{}".format(self._dtype), self._dtype),
        ]

    def _rand_weights(self, rng, oc, ic, k):
        return rng.integers(-2, 3, size=(oc, ic, k, k)).astype(np.int32)

    def _rand_input(self, rng, ic):
        return rng.integers(0, 8, size=(ic, self.n, self.n)).astype(np.int32)

    def prepare(self, device):
        rng = np.random.default_rng(self.seed)
        ic, oc = self.channels
        img = self._rand_input(rng, ic)
        w_conv = self._rand_weights(rng, oc, ic, self._K)
        w_mlps = [self._rand_weights(rng, oc, oc, 1)
                  for _ in range(self.mlp_layers)]
        ctx = {"img_data": img, "w_conv": w_conv, "w_mlps": w_mlps}
        ctx["in0"] = device.upload("in0", _as_u32(img))
        ctx["wc"] = device.upload("wc", _as_u32(w_conv))
        for i, w in enumerate(w_mlps):
            ctx["wm{}".format(i)] = device.upload(
                "wm{}".format(i), _as_u32(w))
        plane = self.n * self.n * 4
        ctx["act_a"] = device.alloc("act_a", oc * plane)
        ctx["act_b"] = device.alloc("act_b", oc * plane)
        ctx["avg"] = device.alloc("avg", oc * 4)
        return ctx

    def execute(self, device, ctx):
        conv, gavg = self.programs()
        ic, oc = self.channels
        n = self.n
        log2n = int(np.log2(n))
        plane = n * n * 4
        # conv 3x3
        wsize = ic * self._K * self._K * 4
        for o in range(oc):
            device.run(conv, (n * n,), (min(256, n * n),),
                       args=[ctx["in0"].offset,
                             ctx["wc"].offset + o * wsize,
                             ctx["act_a"].offset + o * plane,
                             n, log2n, self._K, ic, plane])
        # 1x1 MLP layers, ping-pong between act_a and act_b
        src, dst = "act_a", "act_b"
        for i in range(self.mlp_layers):
            w = ctx["wm{}".format(i)]
            for o in range(oc):
                device.run(conv, (n * n,), (min(256, n * n),),
                           args=[ctx[src].offset, w.offset + o * oc * 4,
                                 ctx[dst].offset + o * plane,
                                 n, log2n, 1, oc, plane])
            src, dst = dst, src
        ctx["final_act"] = src
        # global average pooling, one workgroup per plane
        count = n * n
        for o in range(oc):
            device.run(gavg, (64,), (64,),
                       args=[ctx[src].offset + o * plane,
                             ctx["avg"].offset + o * 4,
                             count, int(np.log2(count))])

    def reference(self, ctx):
        planes = ctx["img_data"].astype(np.int64)
        act = _ref_conv_layer_int(planes, ctx["w_conv"].astype(np.int64),
                                  self._K)
        for w in ctx["w_mlps"]:
            act = _ref_conv_layer_int(act, w.astype(np.int64), 1)
        avg = (act.reshape(act.shape[0], -1).sum(axis=1)
               >> int(2 * np.log2(self.n)))
        return {"avg": avg.astype(np.uint32)}


class NinF32(NinI32):
    """Float32 Network-in-Network."""

    name = "nin_f32"
    uses_float = True
    tolerance = (5e-3, 1e-3)
    _dtype = "f32"

    def _rand_weights(self, rng, oc, ic, k):
        return (rng.standard_normal((oc, ic, k, k)) * 0.3).astype(np.float32)

    def _rand_input(self, rng, ic):
        return rng.standard_normal((ic, self.n, self.n)).astype(np.float32)

    def reference(self, ctx):
        planes = ctx["img_data"].astype(np.float32)
        act = _ref_conv_layer_f32(planes, ctx["w_conv"], self._K)
        for w in ctx["w_mlps"]:
            act = _ref_conv_layer_f32(act, w, 1)
        avg = act.reshape(act.shape[0], -1) \
            .sum(axis=1, dtype=np.float32) / np.float32(self.n * self.n)
        return {"avg": avg.astype(np.float32)}

class NinI8(NinI32):
    """INT8 Network-in-Network: byte datapath, requantised activations."""

    name = "nin_i8"
    uses_float = False
    datapath_bits = 8
    defaults = {"n": 16, "channels": (1, 4), "mlp_layers": 2, "seed": 53,
                "shift": 5}
    _dtype = "i8"

    def prepare(self, device):
        rng = np.random.default_rng(self.seed)
        ic, oc = self.channels
        img = rng.integers(0, 16, size=(ic, self.n, self.n)).astype(np.int8)
        w_conv = rng.integers(-2, 3, size=(oc, ic, self._K, self._K)) \
            .astype(np.int8)
        w_mlps = [rng.integers(-2, 3, size=(oc, oc, 1, 1)).astype(np.int8)
                  for _ in range(self.mlp_layers)]
        ctx = {"img_data": img, "w_conv": w_conv, "w_mlps": w_mlps}
        ctx["in0"] = device.upload("in0", img)
        ctx["wc"] = device.upload("wc", w_conv)
        for i, w in enumerate(w_mlps):
            ctx["wm{}".format(i)] = device.upload("wm{}".format(i), w)
        plane = self.n * self.n
        ctx["act_a"] = device.alloc("act_a", oc * plane, np.int8)
        ctx["act_b"] = device.alloc("act_b", oc * plane, np.int8)
        ctx["avg"] = device.alloc("avg", oc, np.int8)
        return ctx

    def execute(self, device, ctx):
        conv, gavg = self.programs()
        ic, oc = self.channels
        n = self.n
        log2n = int(np.log2(n))
        plane = n * n
        wsize = ic * self._K * self._K
        for o in range(oc):
            device.run(conv, (n * n,), (min(256, n * n),),
                       args=[ctx["in0"].offset,
                             ctx["wc"].offset + o * wsize,
                             ctx["act_a"].offset + o * plane,
                             n, log2n, self._K, ic, plane, self.shift])
        src, dst = "act_a", "act_b"
        for i in range(self.mlp_layers):
            w = ctx["wm{}".format(i)]
            for o in range(oc):
                device.run(conv, (n * n,), (min(256, n * n),),
                           args=[ctx[src].offset, w.offset + o * oc,
                                 ctx[dst].offset + o * plane,
                                 n, log2n, 1, oc, plane, self.shift])
            src, dst = dst, src
        count = n * n
        for o in range(oc):
            device.run(gavg, (64,), (64,),
                       args=[ctx[src].offset + o * plane,
                             ctx["avg"].offset + o,
                             count, int(np.log2(count))])

    @staticmethod
    def _requant(acc, shift):
        return np.minimum(np.maximum(acc, 0) >> shift, 127).astype(np.int8)

    def reference(self, ctx):
        planes = ctx["img_data"].astype(np.int64)
        act = _ref_conv_layer_int(planes, ctx["w_conv"].astype(np.int64),
                                  self._K)
        act = self._requant(act, self.shift).astype(np.int64)
        for w in ctx["w_mlps"]:
            act = _ref_conv_layer_int(act, w.astype(np.int64), 1)
            act = self._requant(act, self.shift).astype(np.int64)
        avg = act.reshape(act.shape[0], -1).sum(axis=1) \
            >> int(2 * np.log2(self.n))
        return {"avg": avg.astype(np.int8)}
