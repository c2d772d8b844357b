"""Rodinia-derived benchmarks: K-means and Gaussian elimination (SP FP).

Both are the paper's examples of applications that need host-side
(MicroBlaze) processing between or after kernel launches
(Section 4): K-means recomputes the cluster centres of mass between
iterations on the host; Gaussian elimination runs the triangularisation
on the compute unit and the final back-substitution on the host.  That
serial host share is what caps their parallelism gains at the bottom of
Figure 7 (the 1.5x multi-core minimum is Gaussian elimination).
"""

from __future__ import annotations

import numpy as np

from .base import Benchmark, build

# ---------------------------------------------------------------------------
# K-means: nearest-centroid assignment on the CU, recentring on the host.
# ---------------------------------------------------------------------------

_KMEANS_ASSIGN_SRC = """
.kernel kmeans_assign
  s_buffer_load_dword s19, s[8:11], 3
  s_buffer_load_dword s20, s[12:15], 0    ; points (x,y interleaved f32)
  s_buffer_load_dword s21, s[12:15], 1    ; centroids (x,y interleaved)
  s_buffer_load_dword s22, s[12:15], 2    ; assignments (out, u32)
  s_buffer_load_dword s23, s[12:15], 3    ; K
  s_waitcnt lgkmcnt(0)
  s_mul_i32 s1, s16, s19
  v_add_i32 v3, vcc, s1, v0               ; point id
  v_lshlrev_b32 v4, 3, v3                 ; * 8 bytes (two floats)
  v_add_i32 v4, vcc, s20, v4
  tbuffer_load_format_xy v5, v4, s[4:7], 0 offen   ; px -> v5, py -> v6
  s_waitcnt vmcnt(0)
  v_mov_b32 v7, 0x7f7fffff                ; best = +FLT_MAX
  v_mov_b32 v8, 0                         ; best index
  s_mov_b32 s2, 0                         ; c
  s_mov_b32 s3, s21                       ; centroid cursor
km_loop:
  v_mov_b32 v9, s3
  tbuffer_load_format_xy v10, v9, s[4:7], 0 offen  ; cx, cy
  s_waitcnt vmcnt(0)
  v_sub_f32 v12, v5, v10
  v_sub_f32 v13, v6, v11
  v_mul_f32 v14, v12, v12
  v_mac_f32 v14, v13, v13                 ; dist^2
  v_mov_b32 v15, s2
  v_cmp_lt_f32 vcc, v14, v7
  v_cndmask_b32 v7, v7, v14, vcc
  v_cndmask_b32 v8, v8, v15, vcc
  s_add_u32 s3, s3, 8
  s_add_u32 s2, s2, 1
  s_cmp_lt_u32 s2, s23
  s_cbranch_scc1 km_loop
  v_lshlrev_b32 v16, 2, v3
  v_add_i32 v16, vcc, s22, v16
  tbuffer_store_format_x v8, v16, s[4:7], 0 offen
  s_endpgm
"""


class KMeansF32(Benchmark):
    """K-means over 2-D float32 points, host recentring per iteration."""

    name = "kmeans_f32"
    uses_float = True
    defaults = {"points": 512, "clusters": 5, "iterations": 3, "seed": 37}

    def programs(self):
        return [build(_KMEANS_ASSIGN_SRC)]

    def prepare(self, device):
        rng = np.random.default_rng(self.seed)
        pts = rng.standard_normal((self.points, 2)).astype(np.float32)
        pts += rng.integers(0, 4, size=(self.points, 1)).astype(np.float32) * 4
        centroids = pts[rng.choice(self.points, self.clusters,
                                   replace=False)].copy()
        return {
            "pts_data": pts,
            "init_centroids": centroids,
            "pts": device.upload("pts", pts),
            "centroids": device.upload("centroids", centroids),
            "assign": device.alloc("assign", self.points * 4, np.uint32),
        }

    def _recentre(self, pts, assign, centroids):
        new = centroids.copy()
        for c in range(self.clusters):
            members = pts[assign == c]
            if len(members):
                new[c] = members.mean(axis=0, dtype=np.float64) \
                    .astype(np.float32)
        return new

    def execute(self, device, ctx):
        program = self.programs()[0]
        centroids = ctx["init_centroids"].copy()
        for _ in range(self.iterations):
            device.write(ctx["centroids"], centroids)
            device.run(program, (self.points,), (min(256, self.points),),
                       args=[ctx["pts"], ctx["centroids"], ctx["assign"],
                             self.clusters])
            assign = device.read(ctx["assign"])
            # Host phase: recompute each cluster's centre of mass.
            device.host_phase("kmeans_recentre",
                              fp_ops=2 * self.points + 2 * self.clusters,
                              mem_touches=3 * self.points)
            centroids = self._recentre(ctx["pts_data"], assign, centroids)
        ctx["final_centroids"] = centroids

    def reference(self, ctx):
        pts = ctx["pts_data"]
        centroids = ctx["init_centroids"].copy()
        assign = None
        for _ in range(self.iterations):
            diff = pts[:, None, :] - centroids[None, :, :]
            dist = np.einsum("pkd,pkd->pk", diff, diff)
            assign = dist.argmin(axis=1).astype(np.uint32)
            centroids = self._recentre(pts, assign, centroids)
        return {"assign": assign}


# ---------------------------------------------------------------------------
# Gaussian elimination: Fan1/Fan2 kernels + host back-substitution.
# ---------------------------------------------------------------------------

def _fan1_source():
    # Written as a function for clarity of the address arithmetic.
    return """
.kernel gauss_fan1
  s_buffer_load_dword s19, s[8:11], 3
  s_buffer_load_dword s20, s[12:15], 0    ; A (augmented, width W floats)
  s_buffer_load_dword s21, s[12:15], 1    ; m (multipliers)
  s_buffer_load_dword s23, s[12:15], 2    ; k (pivot)
  s_buffer_load_dword s24, s[12:15], 3    ; log2W
  s_waitcnt lgkmcnt(0)
  s_mul_i32 s1, s16, s19
  v_add_i32 v3, vcc, s1, v0               ; row i
  v_cmp_lt_u32 vcc, s23, v3               ; active: i > k
  s_and_b64 exec, exec, vcc
  s_cbranch_execz f1_done
  s_lshl_b32 s2, s23, s24
  s_add_u32 s2, s2, s23
  s_lshl_b32 s2, s2, 2
  s_add_u32 s2, s2, s20                   ; &A[k][k], scalar
  v_mov_b32 v4, s2
  tbuffer_load_format_x v5, v4, s[4:7], 0 offen     ; pivot
  v_lshlrev_b32 v6, s24, v3
  v_add_i32 v6, vcc, s23, v6              ; i*W + k
  v_lshlrev_b32 v6, 2, v6
  v_add_i32 v6, vcc, s20, v6              ; &A[i][k]
  tbuffer_load_format_x v7, v6, s[4:7], 0 offen
  s_waitcnt vmcnt(0)
  v_rcp_f32 v8, v5
  v_mul_f32 v9, v7, v8                    ; A[i][k] / pivot
  v_lshlrev_b32 v10, 2, v3
  v_add_i32 v10, vcc, s21, v10
  tbuffer_store_format_x v9, v10, s[4:7], 0 offen
f1_done:
  s_endpgm
"""


_FAN2_SRC = """
.kernel gauss_fan2
  s_buffer_load_dword s19, s[8:11], 3
  s_buffer_load_dword s20, s[12:15], 0    ; A (augmented, width W floats)
  s_buffer_load_dword s21, s[12:15], 1    ; m
  s_buffer_load_dword s23, s[12:15], 2    ; k
  s_buffer_load_dword s24, s[12:15], 3    ; log2W
  s_waitcnt lgkmcnt(0)
  s_mul_i32 s1, s16, s19
  v_add_i32 v3, vcc, s1, v0               ; flat id over rows x W
  v_lshrrev_b32 v4, s24, v3               ; row i
  s_mov_b32 s2, 1
  s_lshl_b32 s3, s2, s24
  s_add_u32 s3, s3, -1
  v_and_b32 v5, s3, v3                    ; col j
  ; active: i > k and j >= k
  v_cmp_lt_u32 vcc, s23, v4
  s_and_b64 exec, exec, vcc
  v_cmp_le_u32 vcc, s23, v5
  s_and_b64 exec, exec, vcc
  s_cbranch_execz f2_done
  ; A[i][j] -= m[i] * A[k][j]
  v_lshlrev_b32 v6, 2, v4
  v_add_i32 v6, vcc, s21, v6
  tbuffer_load_format_x v7, v6, s[4:7], 0 offen     ; m[i]
  s_lshl_b32 s25, s23, s24
  v_add_i32 v8, vcc, s25, v5              ; k*W + j
  v_lshlrev_b32 v8, 2, v8
  v_add_i32 v8, vcc, s20, v8
  tbuffer_load_format_x v9, v8, s[4:7], 0 offen     ; A[k][j]
  v_lshlrev_b32 v10, 2, v3
  v_add_i32 v10, vcc, s20, v10                      ; &A[i][j]
  tbuffer_load_format_x v11, v10, s[4:7], 0 offen
  s_waitcnt vmcnt(0)
  v_mul_f32 v12, v7, v9
  v_sub_f32 v13, v11, v12
  tbuffer_store_format_x v13, v10, s[4:7], 0 offen
f2_done:
  s_endpgm
"""


class GaussianEliminationF32(Benchmark):
    """Gaussian elimination: CU triangularisation + host back-substitution."""

    name = "gaussian_elimination_f32"
    uses_float = True
    tolerance = (2e-2, 2e-3)
    defaults = {"n": 16, "seed": 41}

    def programs(self):
        return [build(_fan1_source()), build(_FAN2_SRC)]

    def _system(self):
        rng = np.random.default_rng(self.seed)
        a = rng.standard_normal((self.n, self.n)).astype(np.float32)
        a += np.eye(self.n, dtype=np.float32) * self.n  # well-conditioned
        b = rng.standard_normal(self.n).astype(np.float32)
        return a, b

    def prepare(self, device):
        a, b = self._system()
        w = 2 * self.n  # augmented width (power of two): column n holds b
        aug = np.zeros((self.n, w), dtype=np.float32)
        aug[:, :self.n] = a
        aug[:, self.n] = b
        return {
            "a_data": a, "b_data": b, "w": w,
            "aug": device.upload("aug", aug),
            "m": device.alloc("m", self.n * 4, np.float32),
            "x": device.alloc("x", self.n * 4, np.float32),
        }

    def execute(self, device, ctx):
        fan1, fan2 = self.programs()
        w = ctx["w"]
        log2w = int(np.log2(w))
        for k in range(self.n - 1):
            device.run(fan1, (self.n,), (min(64, self.n),),
                       args=[ctx["aug"], ctx["m"], k, log2w])
            device.run(fan2, (self.n * w,), (min(256, self.n * w),),
                       args=[ctx["aug"], ctx["m"], k, log2w])
        # Host phase: back-substitution on the MicroBlaze.
        device.host_phase("gauss_back_substitution",
                          fp_ops=self.n * self.n,
                          mem_touches=self.n * self.n)
        aug = device.read(ctx["aug"], np.float32).reshape(self.n, w)
        x = np.zeros(self.n, dtype=np.float32)
        for i in range(self.n - 1, -1, -1):
            x[i] = (aug[i, self.n]
                    - np.dot(aug[i, i + 1:self.n], x[i + 1:])) / aug[i, i]
        device.write(ctx["x"], x)
        ctx["x_host"] = x

    def reference(self, ctx):
        a = ctx["a_data"].astype(np.float64)
        b = ctx["b_data"].astype(np.float64)
        x = np.linalg.solve(a, b).astype(np.float32)
        return {"x": x}
