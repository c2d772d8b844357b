"""SoftGpu device facade: buffers, argument marshalling, preloading."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ArchConfig
from repro.errors import LaunchError
from repro.runtime import SoftGpu
from repro.runtime.buffers import HeapAllocator
from repro.soc.gpu import CB1_BASE


class TestHeapAllocator:
    def test_alignment(self):
        heap = HeapAllocator(4096)
        a = heap.alloc("a", 10)
        b = heap.alloc("b", 10)
        assert a.offset % 64 == 0 and b.offset % 64 == 0
        assert b.offset >= a.end

    def test_exhaustion(self):
        heap = HeapAllocator(128)
        heap.alloc("a", 64)
        with pytest.raises(LaunchError, match="exhausted"):
            heap.alloc("b", 128)

    def test_duplicate_name_rejected(self):
        heap = HeapAllocator(4096)
        heap.alloc("x", 8)
        with pytest.raises(LaunchError):
            heap.alloc("x", 8)

    def test_lookup_and_iter(self):
        heap = HeapAllocator(4096)
        buf = heap.alloc("x", 8)
        assert heap.get("x") is buf
        assert list(heap) == [buf]

    def test_reset(self):
        heap = HeapAllocator(4096)
        heap.alloc("x", 8)
        heap.reset()
        assert heap.used == 0

    def test_reset_frees_names(self):
        heap = HeapAllocator(4096)
        heap.alloc("x", 8)
        heap.reset()
        heap.alloc("x", 8)  # no collision after reset

    def test_exhaustion_message_reports_free_bytes(self):
        heap = HeapAllocator(256)
        heap.alloc("a", 100)   # cursor at 100, aligned next slot at 128
        with pytest.raises(LaunchError, match="128 free"):
            heap.alloc("b", 200)

    def test_exact_fit_allocates(self):
        heap = HeapAllocator(128)
        heap.alloc("a", 64)
        heap.alloc("b", 64)  # exactly to capacity
        with pytest.raises(LaunchError):
            heap.alloc("c", 1)

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.integers(min_value=1, max_value=512),
                    min_size=1, max_size=24))
    def test_alignment_and_disjointness_property(self, sizes):
        """Any allocation sequence yields aligned, disjoint, ordered
        buffers, and the bump cursor matches the last allocation."""
        heap = HeapAllocator(64 * 1024)
        buffers = [heap.alloc("b{}".format(i), n)
                   for i, n in enumerate(sizes)]
        for buf, n in zip(buffers, sizes):
            assert buf.offset % HeapAllocator.ALIGNMENT == 0
            assert buf.nbytes == n
        for prev, cur in zip(buffers, buffers[1:]):
            assert cur.offset >= prev.end     # disjoint and ordered
            assert cur.offset - prev.end < HeapAllocator.ALIGNMENT
        assert heap.used == buffers[-1].end
        assert heap.used <= heap.capacity


class TestDeviceMemory:
    def test_upload_read_roundtrip(self):
        dev = SoftGpu(ArchConfig.baseline())
        data = np.arange(100, dtype=np.float32)
        buf = dev.upload("data", data)
        assert buf.dtype == np.float32
        back = dev.read(buf)
        assert np.array_equal(back, data)

    def test_write_overflow_rejected(self):
        dev = SoftGpu(ArchConfig.baseline())
        buf = dev.alloc("small", 16)
        with pytest.raises(LaunchError):
            dev.write(buf, np.zeros(100, dtype=np.uint32))

    def test_fill(self):
        dev = SoftGpu(ArchConfig.baseline())
        buf = dev.alloc("z", 64)
        dev.fill(buf, 0xFF)
        assert (dev.read(buf, np.uint8) == 0xFF).all()

    def test_partial_read(self):
        dev = SoftGpu(ArchConfig.baseline())
        buf = dev.upload("data", np.arange(64, dtype=np.uint32))
        assert list(dev.read(buf, count=3)) == [0, 1, 2]

    def test_zero_length_upload_rejected(self):
        dev = SoftGpu(ArchConfig.baseline())
        with pytest.raises(LaunchError, match="zero-length"):
            dev.upload("empty", np.array([], dtype=np.uint32))

    def test_zero_length_write_rejected(self):
        dev = SoftGpu(ArchConfig.baseline())
        buf = dev.alloc("b", 64)
        with pytest.raises(LaunchError, match="zero-length"):
            dev.write(buf, np.array([], dtype=np.uint32))

    def test_dtype_mismatch_rejected(self):
        dev = SoftGpu(ArchConfig.baseline())
        buf = dev.alloc("b", 64, np.float32)
        with pytest.raises(LaunchError, match="dtype mismatch"):
            dev.write(buf, np.zeros(4, dtype=np.uint32))

    def test_matching_dtype_write_ok(self):
        dev = SoftGpu(ArchConfig.baseline())
        buf = dev.alloc("b", 64, np.float32)
        dev.write(buf, np.ones(4, dtype=np.float32))
        assert (dev.read(buf, count=4) == 1.0).all()


class TestReset:
    def test_reset_clears_heap_and_memory(self):
        dev = SoftGpu(ArchConfig.baseline())
        buf = dev.upload("data", np.arange(64, dtype=np.uint32))
        dev.preload_all()
        dev.host_phase("warm", alu_ops=100)
        dev.reset()
        assert dev.heap.used == 0
        assert dev.elapsed_seconds == 0
        assert dev.instructions == 0
        # Memory content is gone and the name is reusable.
        fresh = dev.upload("data", np.zeros(64, dtype=np.uint32))
        assert fresh.offset == buf.offset
        assert (dev.read(fresh) == 0).all()

    def test_reset_board_repeats_bit_identically(self):
        """A pooled worker reusing a board must see a fresh machine:
        same outputs and same simulated timing as the first run."""
        from repro.kernels import KERNELS

        bench = KERNELS["matrix_add_i32"](n=32)
        dev = SoftGpu(ArchConfig.baseline())
        ctx = bench.run_on(dev, verify=True)
        first = (dev.elapsed_seconds, dev.instructions,
                 dev.read(ctx["out"]).tobytes())
        dev.reset()
        ctx = bench.run_on(dev, verify=True)
        second = (dev.elapsed_seconds, dev.instructions,
                  dev.read(ctx["out"]).tobytes())
        assert first == second

    def test_reset_restores_prefetch_coverage(self):
        dev = SoftGpu(ArchConfig.baseline())
        dev.upload("data", np.arange(1024, dtype=np.uint32))
        assert dev.preload_all()
        used_after_preload = dev.gpu.memory.prefetch[0].used_bytes
        dev.reset()
        # Only the CB mirror remains resident, as at construction.
        assert dev.gpu.memory.prefetch[0].used_bytes < used_after_preload


class TestRetarget:
    def test_retarget_keeps_memory_image_and_rebuilds_design(self):
        from repro.obs import Observer

        dev = SoftGpu(ArchConfig.baseline(), global_mem_size=1 << 20,
                      max_instructions=777)
        image = dev.gpu.memory.global_mem
        observer = dev.attach(Observer())
        dev.upload("data", np.arange(64, dtype=np.uint32))
        dev.host_phase("warm", alu_ops=100)
        arch = ArchConfig.original().with_parallelism(num_cus=2)
        assert dev.retarget(arch) is dev
        assert dev.arch is arch and dev.gpu.arch is arch
        assert dev.gpu.memory.global_mem is image
        assert image.dirty_hi == 0
        assert not image.read_block(0, image.size, np.uint8).any()
        assert dev.heap.used == 0
        assert dev.elapsed_seconds == 0 and dev.instructions == 0
        assert [cu.max_instructions for cu in dev.gpu.cus] == [777, 777]
        assert dev.observers == (observer,)
        assert dev.gpu.cus[1].obs is not None

    def test_retargeted_board_matches_cold_board(self):
        from repro.kernels import KERNELS

        def run(dev):
            ctx = KERNELS["matrix_add_i32"](n=32).run_on(dev, verify=True)
            return (dev.elapsed_seconds, dev.instructions,
                    dev.read(ctx["out"]).tobytes())

        dev = SoftGpu(ArchConfig.baseline())
        run(dev)
        for arch in (ArchConfig.dcd(), ArchConfig.original(),
                     ArchConfig.baseline()):
            assert run(dev.retarget(arch)) == run(SoftGpu(arch))


class TestArguments:
    def test_arg_marshalling(self):
        dev = SoftGpu(ArchConfig.baseline())
        buf = dev.alloc("b", 64)
        dev.set_args([buf, 42, -1, 2.5])
        words = dev.gpu.memory.global_mem.read_block(CB1_BASE, 16, np.uint32)
        assert words[0] == buf.offset
        assert words[1] == 42
        assert words[2] == 0xFFFFFFFF
        assert words[3] == np.float32(2.5).view(np.uint32)

    def test_too_many_args_rejected(self):
        dev = SoftGpu(ArchConfig.baseline())
        with pytest.raises(LaunchError):
            dev.set_args([0] * 100)


class TestPreload:
    def test_preload_specific_buffers(self):
        dev = SoftGpu(ArchConfig.baseline())
        a = dev.upload("a", np.zeros(64, dtype=np.uint32))
        assert dev.preload(a)

    def test_preload_all_without_prefetch_is_false(self):
        dev = SoftGpu(ArchConfig.original())
        dev.upload("a", np.zeros(64, dtype=np.uint32))
        assert not dev.preload_all()

    def test_preload_empty_heap(self):
        dev = SoftGpu(ArchConfig.baseline())
        assert dev.preload_all()


class TestMetrics:
    def test_measure(self):
        from repro.fpga import Synthesizer
        from repro.runtime.metrics import measure
        dev = SoftGpu(ArchConfig.baseline())
        dev.host_phase("warm", alu_ops=5000)
        report = Synthesizer().synthesize(dev.arch)
        metrics = measure(dev, report, label="demo")
        assert metrics.seconds > 0
        assert metrics.energy_joules == pytest.approx(
            metrics.seconds * report.power.total)
        assert metrics.label == "demo"

    def test_speedup_and_gains(self):
        from repro.runtime.metrics import RunMetrics
        from repro.fpga.power_model import PowerEstimate
        fast = RunMetrics("fast", 1.0, 1000, PowerEstimate(0.4, 3.0))
        slow = RunMetrics("slow", 2.0, 1000, PowerEstimate(0.4, 3.0))
        assert fast.speedup_vs(slow) == 2.0
        assert fast.ipj_gain_vs(slow) == pytest.approx(2.0)
        assert fast.energy_gain_vs(slow) == pytest.approx(2.0)
