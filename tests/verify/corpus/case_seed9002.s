; verify-case seed=9002 local=16 groups=3 inp=64
; hand-minimised engine-equivalence reproducer: a counted scalar loop
; carrying a vcc chain through v_addc_u32 plus a dead branch-skip
; region -- the compiled engine's branch-target plans, carry propagation
; and loop re-issue of the same prepared plans must match the
; reference interpreter bit-for-bit (superblock oracle).
.kernel fuzz_s9002
.arg inp buffer
.arg out buffer
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
  v_mov_b32 v6, v3
  v_not_b32 v7, v3
  s_movk_i32 s36, 4
L1:
  v_add_i32 v6, vcc, v6, v5
  v_addc_u32 v7, vcc, v7, v6, vcc
  v_cmp_lt_u32 vcc, v7, v6
  v_cndmask_b32 v8, v6, v7, vcc
  v_mul_lo_u32 v9, v8, v5
  s_sub_i32 s36, s36, 1
  s_cmp_gt_i32 s36, 0
  s_cbranch_scc1 L1
  s_branch L2
  v_mov_b32 v9, 0
  v_mov_b32 v6, 0
L2:
  v_xor_b32 v5, v9, v6
  v_add_i32 v5, vcc, v5, v3
  buffer_store_dword v5, v4, s[4:7], 0 offen
  s_waitcnt vmcnt(0)
  s_endpgm
