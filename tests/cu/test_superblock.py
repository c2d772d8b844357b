"""Superblock formation, compilation caching and engine exactness."""

import numpy as np
import pytest

from repro.asm import assemble
from repro.core.config import ArchConfig
from repro.cu import superblock
from repro.cu.prepared import PreparedProgram, clear_prepared_cache, \
    get_prepared, lookup_prepared
from repro.cu.superblock import MIN_BLOCK, build_superblocks
from repro.errors import LaunchPreempted, SimulationError
from repro.runtime.device import SoftGpu


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_prepared_cache()
    yield
    clear_prepared_cache()


# A block-breaker sampler: waitcnt and barrier split runs.
SPLITS = """
.kernel splits
  s_mov_b32 s22, 1
  s_mov_b32 s23, 2
  s_waitcnt lgkmcnt(0)
  v_mov_b32 v5, 3
  v_add_i32 v6, vcc, v5, v5
  s_barrier
  s_mov_b32 s24, 4
  s_mov_b32 s25, 5
  s_mov_b32 s26, 6
  s_endpgm
"""

# A branch target lands in the middle of an otherwise fusable run.
MIDTARGET = """
.kernel midtarget
  s_movk_i32 s36, 2
  s_mov_b32 s22, 1
  s_mov_b32 s23, 2
L1:
  s_mov_b32 s24, 3
  s_mov_b32 s25, 4
  s_sub_i32 s36, s36, 1
  s_cmp_gt_i32 s36, 0
  s_cbranch_scc1 L1
  s_endpgm
"""

# EXEC writers (saveexec, s_mov_b64 exec) split runs.
EXECW = """
.kernel execw
  v_mov_b32 v5, 1
  v_mov_b32 v6, 2
  v_cmp_eq_u32 vcc, v5, v6
  s_and_saveexec_b64 s[30:31], vcc
  v_mov_b32 v7, 3
  v_mov_b32 v8, 4
  s_mov_b64 exec, s[30:31]
  s_endpgm
"""

# One fusable instruction between breakers: below MIN_BLOCK.
TINY = """
.kernel tiny
  s_waitcnt lgkmcnt(0)
  s_mov_b32 s22, 1
  s_waitcnt lgkmcnt(0)
  s_endpgm
"""

# A runnable multi-wavefront kernel whose loop body is a superblock,
# so wavefronts phase-stagger through blocks (the deferred-flush path).
LOOPY = """
.kernel loopy
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
  v_mov_b32 v5, 0
  s_movk_i32 s36, 5
L0:
  v_add_i32 v5, vcc, v5, v3
  v_xor_b32 v6, v5, v3
  v_max_i32 v5, v6, v5
  s_sub_i32 s36, s36, 1
  s_cmp_gt_i32 s36, 0
  s_cbranch_scc1 L0
  buffer_store_dword v5, v4, s[4:7], 0 offen
  s_waitcnt vmcnt(0)
  s_endpgm
"""

_BREAKERS = ("s_waitcnt", "s_barrier", "s_endpgm", "s_cbranch_scc1",
             "s_and_saveexec_b64", "s_mov_b64")


def _blocks(source):
    ps = get_prepared(assemble(source))
    return ps, build_superblocks(ps)


def _head_counts(blocks):
    return {blk.head: blk.count for blk, off in blocks.values() if off == 0}


class TestBlockFormation:
    def test_waitcnt_and_barrier_split_runs(self):
        ps, blocks = _blocks(SPLITS)
        assert sorted(_head_counts(blocks).values()) == [2, 2, 3]
        for blk, _ in blocks.values():
            names = {ps.by_address[a].name for a in blk.addrs[:-1]}
            assert not names.intersection(_BREAKERS)

    def test_branch_target_splits_a_run(self):
        ps, blocks = _blocks(MIDTARGET)
        target = next(p.address for p in ps.plans
                      if p.name == "s_mov_b32"
                      and p.inst.fields["ssrc0"] == 131)  # constant 3
        counts = _head_counts(blocks)
        assert sorted(counts.values()) == [3, 4]
        assert counts[target] == 4  # the run restarts at the target

    def test_exec_writers_excluded(self):
        ps, blocks = _blocks(EXECW)
        assert sorted(_head_counts(blocks).values()) == [2, 3]
        excluded = {p.address for p in ps.plans
                    if p.name in ("s_and_saveexec_b64", "s_mov_b64")}
        assert not excluded.intersection(blocks)

    def test_min_block_floor(self):
        assert MIN_BLOCK == 2
        ps = get_prepared(assemble(TINY))
        assert ps.superblocks() is None

    def test_every_in_block_address_mapped(self):
        ps, blocks = _blocks(LOOPY)
        assert blocks
        for blk, off in set(blocks.values()):
            assert blocks[blk.addrs[off]] == (blk, off)
            assert blk.addrs[blk.count] == blk.end_pc
            assert len(blk.steps) == blk.count
            assert len(blk.addrs) == blk.count + 1
            for unit, cum in blk.cum_busy:
                assert len(cum) == blk.count + 1
                assert cum[blk.count] == dict(blk.busy_totals)[unit]


class TestCompilationCache:
    def test_lru_shares_blocks_across_identical_binaries(self):
        pa, _ = lookup_prepared(assemble(LOOPY))
        pb, hit = lookup_prepared(assemble(LOOPY + "\n; cosmetic\n"))
        assert pa is pb and hit
        assert pa.superblocks() is pb.superblocks()

    def test_blocks_shared_across_cu_shapes(self, monkeypatch):
        # Nothing in a block depends on the CU shape, so CUs of
        # different shapes running one program get the same blocks.
        seen = []
        original = PreparedProgram.superblocks

        def spy(self):
            blocks = original(self)
            seen.append((self, blocks))
            return blocks

        monkeypatch.setattr(PreparedProgram, "superblocks", spy)
        program = assemble(LOOPY)
        shapes = set()
        for arch in (ArchConfig.baseline(), ArchConfig.baseline()
                     .with_parallelism(num_simd=3, num_simf=2)):
            _, _, device = _run(program, "superblock", arch=arch)
            cu = device.gpu.cus[0]
            shapes.add((cu.num_simd, cu.num_simf))
        assert shapes == {(1, 1), (3, 2)}
        assert len({id(ps) for ps, _ in seen}) == 1
        assert seen[0][1] is not None
        assert all(blocks is seen[0][1] for _, blocks in seen)

    def test_dump_knob_writes_sources(self, tmp_path, monkeypatch):
        monkeypatch.setenv(superblock._DUMP_ENV, str(tmp_path))
        ps = get_prepared(assemble(SPLITS))
        blocks = build_superblocks(ps)
        files = sorted(tmp_path.glob("*.py"))
        assert len(files) == len(_head_counts(blocks))
        text = files[0].read_text()
        assert "def _superblock_sem_all(" in text
        assert "def _superblock_sem(" in text


def _run(program, engine, n=384, local=192, arch=None, **kwargs):
    device = SoftGpu(arch or ArchConfig.baseline())
    inp = device.upload("inp", np.arange(n, dtype=np.uint32) * 7 + 1)
    out = device.alloc("out", 4 * n)
    device.preload_all()
    result = device.run(program, (n,), (local,), args=[inp, out],
                        engine=engine, **kwargs)
    return result, device.read(out), device


class TestEngineExactness:
    def test_multi_wavefront_deferred_flush_bit_identical(self):
        program = assemble(LOOPY)
        ref, ref_out, _ = _run(program, "reference")
        sb, sb_out, _ = _run(program, "superblock")
        assert sb.engine == "superblock"
        assert np.array_equal(ref_out, sb_out)
        assert sb.cu_cycles == ref.cu_cycles
        assert sb.stats.instructions == ref.stats.instructions
        assert sb.stats.per_unit == ref.stats.per_unit

    def test_budget_raise_parity_mid_block(self):
        # A budget that expires inside a superblock must raise at the
        # same issue slot, with the same message, as the reference loop.
        program = assemble(LOOPY)
        messages = {}
        for engine in ("reference", "superblock"):
            device = SoftGpu(ArchConfig.baseline())
            device.gpu.cus[0].max_instructions = 37
            inp = device.upload("inp", np.arange(192, dtype=np.uint32))
            out = device.alloc("out", 4 * 192)
            device.preload_all()
            with pytest.raises(SimulationError) as exc:
                device.run(program, (192,), (192,), args=[inp, out],
                           engine=engine)
            messages[engine] = str(exc.value)
        assert messages["reference"] == messages["superblock"]

    def test_checkpoint_at_workgroup_granularity(self):
        program = assemble(LOOPY)
        ref, ref_out, _ = _run(program, "superblock")
        device = SoftGpu(ArchConfig.baseline())
        inp = device.upload("inp", np.arange(384, dtype=np.uint32) * 7 + 1)
        out = device.alloc("out", 4 * 384)
        device.preload_all()
        hops = 0
        try:
            result = device.run(program, (384,), (192,), args=[inp, out],
                                engine="superblock",
                                max_slice_instructions=100)
        except LaunchPreempted:
            while True:
                hops += 1
                try:
                    result = device.resume(max_slice_instructions=100)
                    break
                except LaunchPreempted:
                    continue
        assert hops >= 1  # the budget actually preempted
        assert np.array_equal(device.read(out), ref_out)
        assert result.cu_cycles == ref.cu_cycles
        assert result.stats.instructions == ref.stats.instructions
