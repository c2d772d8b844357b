"""One issue loop, observed or not, on single- and multi-CU boards: it
matches the verify spec loop bit for bit, and observation changes
nothing but the events delivered; sampling."""

import contextlib

import numpy as np
import pytest

from repro.asm import assemble
from repro.core.config import ArchConfig
from repro.errors import LaunchPreempted
from repro.obs import Observer
from repro.soc.gpu import CB1_BASE, HEAP_BASE, Gpu, LaunchResult
from repro.verify.spec import spec_execution

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

SINGLE = ArchConfig.baseline()
MULTI = ArchConfig.baseline().with_parallelism(num_cus=2)


def setup_copy(gpu, n=512):
    data = np.arange(n, dtype=np.uint32) * 3 + 1
    gpu.memory.global_mem.write_block(HEAP_BASE, data)
    gpu.memory.global_mem.write_block(
        CB1_BASE, np.array([0, 4 * n], dtype=np.uint32))
    gpu.preload_prefetch(HEAP_BASE, 8 * n)
    return data


def launch_copy(arch, observed=False, n=512, spec=False, **kwargs):
    """Run COPY on a fresh board; ``spec`` runs the verify spec loop."""
    gpu = Gpu(arch)
    setup_copy(gpu, n)
    if observed:
        gpu.attach(Observer())
    with spec_execution() if spec else contextlib.nullcontext():
        result = gpu.launch(assemble(COPY), (n,), (64,), **kwargs)
    out = gpu.memory.global_mem.read_block(HEAP_BASE + 4 * n, 4 * n,
                                           np.uint32)
    return gpu, result, out


def read_out(gpu, n=512):
    return gpu.memory.global_mem.read_block(HEAP_BASE + 4 * n, 4 * n,
                                            np.uint32)


class TestOneLoop:
    def test_unknown_engine_rejected(self):
        # The loop is not an input: the keyword no longer exists.
        gpu = Gpu(SINGLE)
        setup_copy(gpu)
        with pytest.raises(TypeError, match="engine"):
            gpu.launch(assemble(COPY), (512,), (64,), engine="reference")

    @pytest.mark.parametrize("arch", [SINGLE, MULTI], ids=["1cu", "2cu"])
    def test_unobserved_launch_dispatches_nothing(self, arch):
        gpu, _, _ = launch_copy(arch)
        assert gpu.hub.dispatched == 0

    @pytest.mark.parametrize("arch", [SINGLE, MULTI], ids=["1cu", "2cu"])
    def test_observation_changes_only_the_events(self, arch):
        gpu, observed, observed_out = launch_copy(arch, observed=True)
        _, plain, plain_out = launch_copy(arch)
        assert gpu.hub.dispatched > 0
        assert np.array_equal(observed_out, plain_out)
        assert observed.cu_cycles == plain.cu_cycles
        assert observed.stats == plain.stats

    def test_attach_and_detach_on_one_board(self):
        # The board has no loop knob; the observer set is re-read on
        # every launch and only decides who hears the events.
        gpu = Gpu(SINGLE)
        program = assemble(COPY)
        setup_copy(gpu)
        observer = gpu.attach(Observer())
        observed = gpu.launch(program, (512,), (64,))
        dispatched = gpu.hub.dispatched
        assert dispatched > 0
        gpu.detach(observer)
        plain = gpu.launch(program, (512,), (64,))
        assert gpu.hub.dispatched == dispatched
        assert plain.stats.instructions == observed.stats.instructions

    def test_engines_constant(self):
        # The engine registry, its resolver and the loop provenance are
        # gone from the board.
        import repro.soc.gpu as gpu_mod

        for name in ("ENGINES", "REMOVED_ENGINES", "unknown_engine_message",
                     "REFERENCE", "SUPERBLOCK"):
            assert not hasattr(gpu_mod, name)
        for name in ("_resolve_engine", "issue_loop", "default_engine"):
            assert not hasattr(Gpu, name)
        assert "engine" not in LaunchResult.__dataclass_fields__


class TestEngineEquivalence:
    """Multi-CU launches run serially; the issue loop, observed or not,
    must match the spec loop bit for bit."""

    @pytest.mark.parametrize("observed", [False, True],
                             ids=["unobserved", "observed"])
    def test_bit_identical_to_reference(self, observed):
        _, ref, ref_out = launch_copy(MULTI, observed=True, spec=True)
        _, res, out = launch_copy(MULTI, observed=observed)
        assert np.array_equal(ref_out, out)
        assert res.cu_cycles == ref.cu_cycles
        assert res.stats.instructions == ref.stats.instructions

    def test_merged_stats_equal_reference(self):
        """Per-workgroup stats merged across CUs must equal the
        spec loop's merge -- same totals, same breakdowns."""
        arch = ArchConfig.baseline().with_parallelism(num_cus=3)
        ref_gpu, ref, _ = launch_copy(arch, spec=True)
        gpu, res, _ = launch_copy(arch)
        assert res.stats == ref.stats
        assert gpu.memory.stats == ref_gpu.memory.stats

    def test_register_capture_matches_across_engines(self):
        _, ref, _ = launch_copy(MULTI, spec=True, collect_registers=True)
        _, res, _ = launch_copy(MULTI, collect_registers=True)
        assert ref.registers is not None and res.registers is not None
        assert set(ref.registers) == set(res.registers)
        for key in ref.registers:
            assert ref.registers[key] == res.registers[key]


class TestSlicesFollowObservation:
    """Observation is read per slice: a sliced launch whose slices
    differ in observation still matches the straight run bit for bit."""

    @staticmethod
    def _sliced(arch, observe_slices):
        gpu = Gpu(arch)
        setup_copy(gpu)
        program = assemble(COPY)
        observer = Observer()
        slices = iter(observe_slices)

        def observe(on):
            if on and observer not in gpu.observers:
                gpu.attach(observer)
            elif not on and observer in gpu.observers:
                gpu.detach(observer)

        observe(next(slices))
        try:
            return gpu, gpu.launch(program, (512,), (64,),
                                   collect_registers=True,
                                   max_slice_instructions=13)
        except LaunchPreempted:
            pass
        while True:
            observe(next(slices))
            try:
                return gpu, gpu.resume_launch(max_slice_instructions=13)
            except LaunchPreempted:
                continue

    @pytest.mark.parametrize("arch", [SINGLE, MULTI], ids=["1cu", "2cu"])
    @pytest.mark.parametrize("first", [True, False],
                             ids=["observed-first", "unobserved-first"])
    def test_alternating_slices_match_straight_run(self, arch, first):
        _, straight, straight_out = launch_copy(arch, collect_registers=True)
        pattern = [first, not first] * 8
        gpu, sliced = self._sliced(arch, pattern)
        assert np.array_equal(read_out(gpu), straight_out)
        assert sliced.cu_cycles == straight.cu_cycles
        assert sliced.stats.instructions == straight.stats.instructions
        assert sliced.stats.per_name == straight.stats.per_name
        assert sliced.registers == straight.registers
        # 8 workgroups of 13 instructions, one per slice: the final
        # (eighth) slice had the opposite observation of the first.
        assert sliced.executed_groups == 8


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
