"""Launch engines: resolution, multi-CU equivalence, sampling."""

import numpy as np
import pytest

from repro.asm import assemble
from repro.core.config import ArchConfig
from repro.errors import LaunchError
from repro.obs import Observer
from repro.soc.gpu import CB1_BASE, ENGINES, HEAP_BASE, Gpu

COPY = """
.kernel copy
  s_buffer_load_dword s19, s[8:11], 3
  s_buffer_load_dword s20, s[12:15], 0
  s_buffer_load_dword s21, s[12:15], 1
  s_waitcnt lgkmcnt(0)
  s_mul_i32 s1, s16, s19
  v_add_i32 v3, vcc, s1, v0
  v_lshlrev_b32 v3, 2, v3
  v_add_i32 v4, vcc, s20, v3
  tbuffer_load_format_x v6, v4, s[4:7], 0 offen
  v_add_i32 v5, vcc, s21, v3
  s_waitcnt vmcnt(0)
  tbuffer_store_format_x v6, v5, s[4:7], 0 offen
  s_endpgm
"""


def setup_copy(gpu, n=512):
    data = np.arange(n, dtype=np.uint32) * 3 + 1
    gpu.memory.global_mem.write_block(HEAP_BASE, data)
    gpu.memory.global_mem.write_block(
        CB1_BASE, np.array([0, 4 * n], dtype=np.uint32))
    gpu.preload_prefetch(HEAP_BASE, 8 * n)
    return data


def launch_copy(arch, engine=None, n=512, **kwargs):
    gpu = Gpu(arch)
    setup_copy(gpu, n)
    result = gpu.launch(assemble(COPY), (n,), (64,), engine=engine, **kwargs)
    out = gpu.memory.global_mem.read_block(HEAP_BASE + 4 * n, 4 * n,
                                           np.uint32)
    return gpu, result, out


class TestEngineResolution:
    def test_unknown_engine_rejected(self):
        gpu = Gpu(ArchConfig.baseline())
        setup_copy(gpu)
        with pytest.raises(LaunchError, match="unknown launch engine"):
            gpu.launch(assemble(COPY), (512,), (64,), engine="warp9")

    def test_auto_is_superblock_on_single_cu(self):
        _, result, _ = launch_copy(ArchConfig.baseline())
        assert result.engine == "superblock"

    def test_auto_is_superblock_on_multi_cu(self):
        _, result, _ = launch_copy(
            ArchConfig.baseline().with_parallelism(num_cus=2))
        assert result.engine == "superblock"

    def test_observer_forces_reference(self):
        gpu = Gpu(ArchConfig.baseline())
        setup_copy(gpu)
        gpu.attach(Observer())
        result = gpu.launch(assemble(COPY), (512,), (64,),
                            engine="superblock")
        assert result.engine == "reference"

    def test_default_engine_attribute(self):
        gpu = Gpu(ArchConfig.baseline())
        setup_copy(gpu)
        gpu.default_engine = "reference"
        assert gpu.launch(assemble(COPY), (512,), (64,)).engine == "reference"

    def test_engines_constant(self):
        assert ENGINES == ("reference", "superblock")

    @pytest.mark.parametrize("engine", ["fast", "parallel"])
    def test_removed_engine_names_superblock(self, engine):
        gpu = Gpu(ArchConfig.baseline())
        setup_copy(gpu)
        with pytest.raises(LaunchError,
                           match="'{}' was removed.*superblock".format(engine)):
            gpu.launch(assemble(COPY), (512,), (64,), engine=engine)


class TestEngineEquivalence:
    """Multi-CU launches run serially on either engine; the compiled
    one must match the reference bit for bit."""

    def test_bit_identical_to_reference(self):
        arch = ArchConfig.baseline().with_parallelism(num_cus=2)
        _, ref, ref_out = launch_copy(arch, engine="reference")
        _, res, out = launch_copy(arch, engine="superblock")
        assert res.engine == "superblock"
        assert np.array_equal(ref_out, out)
        assert res.cu_cycles == ref.cu_cycles
        assert res.stats.instructions == ref.stats.instructions

    def test_merged_stats_equal_reference(self):
        """Per-workgroup stats merged across CUs must equal the
        reference merge -- same totals, same breakdowns."""
        arch = ArchConfig.baseline().with_parallelism(num_cus=3)
        ref_gpu, ref, _ = launch_copy(arch, engine="reference")
        gpu, res, _ = launch_copy(arch, engine="superblock")
        assert res.stats.cycles == ref.stats.cycles
        assert res.stats.instructions == ref.stats.instructions
        assert res.stats.per_unit == ref.stats.per_unit
        assert res.stats.per_name == ref.stats.per_name
        assert res.stats.wavefronts == ref.stats.wavefronts
        assert res.stats.memory_accesses == ref.stats.memory_accesses
        assert gpu.memory.stats == ref_gpu.memory.stats

    def test_register_capture_matches_across_engines(self):
        arch = ArchConfig.baseline().with_parallelism(num_cus=2)
        _, ref, _ = launch_copy(arch, engine="reference",
                                collect_registers=True)
        _, res, _ = launch_copy(arch, engine="superblock",
                                collect_registers=True)
        assert ref.registers is not None and res.registers is not None
        assert set(ref.registers) == set(res.registers)
        for key in ref.registers:
            assert ref.registers[key] == res.registers[key]


class TestSamplingSelection:
    def test_edge_workgroups_always_executed(self):
        gpu = Gpu(ArchConfig.baseline())
        setup_copy(gpu)
        result = gpu.launch(assemble(COPY), (512,), (64,), max_groups=3,
                            collect_registers=True)
        assert result.sampled and result.executed_groups == 3
        group_ids = sorted({key[0] for key in result.registers})
        # 8 groups sampled to 3: first, middle, last.
        assert group_ids[0] == (0, 0, 0)
        assert group_ids[-1] == (7, 0, 0)
        assert len(group_ids) == 3

    def test_sampling_deterministic(self):
        picks = []
        for _ in range(2):
            gpu = Gpu(ArchConfig.baseline())
            setup_copy(gpu)
            result = gpu.launch(assemble(COPY), (512,), (64,), max_groups=5,
                                collect_registers=True)
            picks.append(sorted({key[0] for key in result.registers}))
        assert picks[0] == picks[1]

    def test_single_group_sample_picks_first(self):
        gpu = Gpu(ArchConfig.baseline())
        setup_copy(gpu)
        result = gpu.launch(assemble(COPY), (512,), (64,), max_groups=1,
                            collect_registers=True)
        assert sorted({key[0] for key in result.registers}) == [(0, 0, 0)]

    def test_sampled_stats_scale(self):
        gpu = Gpu(ArchConfig.baseline())
        setup_copy(gpu)
        full = gpu.launch(assemble(COPY), (512,), (64,))
        gpu2 = Gpu(ArchConfig.baseline())
        setup_copy(gpu2)
        samp = gpu2.launch(assemble(COPY), (512,), (64,), max_groups=4)
        assert samp.instructions == pytest.approx(full.instructions,
                                                  rel=0.05)
