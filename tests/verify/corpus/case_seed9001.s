; verify-case seed=9001 local=128 groups=2 inp=64
; hand-minimised loop-equivalence reproducer: two wavefronts exchange
; LDS neighbours across barriers, then diverge so one wavefront runs a
; region with exec=0 -- the issue loop's barrier release, lgkmcnt
; waitcnt bookkeeping and saveexec handling must match the verify
; spec loop bit-for-bit (spec oracle, cycles included).
.kernel fuzz_s9001
.arg inp buffer
.arg out buffer
.lds 1024
  s_buffer_load_dword s19, s[8:11], 3
  s_buffer_load_dword s20, s[12:15], 0
  s_buffer_load_dword s21, s[12:15], 1
  s_waitcnt lgkmcnt(0)
  s_mul_i32 s1, s16, s19
  v_add_i32 v3, vcc, s1, v0
  v_lshlrev_b32 v4, 2, v3
  v_add_i32 v4, vcc, s21, v4
  v_and_b32 v12, 63, v3
  v_lshlrev_b32 v12, 2, v12
  v_add_i32 v12, vcc, s20, v12
  buffer_load_dword v5, v12, s[4:7], 0 offen
  s_waitcnt vmcnt(0)
  v_lshlrev_b32 v1, 2, v0
  v_xor_b32 v6, v5, v3
  ds_write_b32 v1, v6
  s_waitcnt lgkmcnt(0)
  s_barrier
  v_xor_b32 v2, 4, v1
  ds_read_b32 v7, v2
  s_waitcnt lgkmcnt(0)
  s_barrier
  v_cmp_gt_u32 vcc, 64, v0
  s_and_saveexec_b64 s[30:31], vcc
  v_add_i32 v7, vcc, v7, v5
  s_mov_b64 exec, s[30:31]
  v_xor_b32 v5, v7, v6
  v_add_i32 v5, vcc, v5, v3
  buffer_store_dword v5, v4, s[4:7], 0 offen
  s_waitcnt vmcnt(0)
  s_endpgm
