"""Global memory: accessors, gather/scatter, bounds."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import SimulationError
from repro.mem.global_memory import GlobalMemory, dedup_keep_last


class TestScalarAccess:
    def test_u32_roundtrip(self):
        gm = GlobalMemory(4096)
        gm.write_u32(100, 0xDEADBEEF)
        assert gm.read_u32(100) == 0xDEADBEEF

    def test_little_endian_layout(self):
        gm = GlobalMemory(4096)
        gm.write_u32(0, 0x04030201)
        assert [gm.read_u8(i) for i in range(4)] == [1, 2, 3, 4]

    def test_u8_roundtrip(self):
        gm = GlobalMemory(4096)
        gm.write_u8(7, 0x1FF)
        assert gm.read_u8(7) == 0xFF  # truncation

    def test_bounds_checked(self):
        gm = GlobalMemory(64)
        with pytest.raises(SimulationError):
            gm.read_u32(62)
        with pytest.raises(SimulationError):
            gm.write_u32(-4, 0)


class TestVectorised:
    @given(values=hnp.arrays(np.uint32, 64,
                             elements=st.integers(0, 0xFFFFFFFF)),
           mask_bits=st.integers(0, (1 << 64) - 1))
    @settings(max_examples=25, deadline=None)
    def test_scatter_gather_roundtrip(self, values, mask_bits):
        gm = GlobalMemory(4096)
        addrs = np.arange(64, dtype=np.int64) * 4
        mask = np.array([(mask_bits >> i) & 1 for i in range(64)], dtype=bool)
        gm.scatter_u32(addrs, values, mask)
        back = gm.gather_u32(addrs, mask)
        assert (back[mask] == values[mask]).all()
        assert (back[~mask] == 0).all()

    def test_unaligned_gather_slow_path(self):
        gm = GlobalMemory(4096)
        gm.write_u32(0, 0xAABBCCDD)
        gm.write_u32(4, 0x11223344)
        addrs = np.full(64, 2, dtype=np.int64)
        mask = np.zeros(64, dtype=bool)
        mask[0] = True
        out = gm.gather_u32(addrs, mask)
        assert out[0] == 0x3344AABB  # bytes [2..5], little endian

    def test_gather_all_inactive_is_noop(self):
        gm = GlobalMemory(64)
        addrs = np.full(64, 1 << 40, dtype=np.int64)  # way out of range
        out = gm.gather_u32(addrs, np.zeros(64, dtype=bool))
        assert (out == 0).all()

    def test_gather_bounds_checked(self):
        gm = GlobalMemory(64)
        addrs = np.full(64, 4096, dtype=np.int64)
        with pytest.raises(SimulationError):
            gm.gather_u32(addrs, np.ones(64, dtype=bool))

    def test_byte_gather_signed(self):
        gm = GlobalMemory(256)
        gm.write_u8(0, 0xFE)
        addrs = np.zeros(64, dtype=np.int64)
        mask = np.ones(64, dtype=bool)
        assert gm.gather_u8(addrs, mask, signed=True)[0] == 0xFFFFFFFE
        assert gm.gather_u8(addrs, mask, signed=False)[0] == 0xFE

    def test_byte_scatter(self):
        gm = GlobalMemory(256)
        addrs = np.arange(64, dtype=np.int64)
        values = np.arange(64, dtype=np.uint32) + 0x100  # truncates
        gm.scatter_u8(addrs, values, np.ones(64, dtype=bool))
        assert gm.read_u8(5) == 5


def _sequential_scatter(size, addrs, values, mask, width):
    """The architectural contract: a per-lane loop in lane order."""
    gm = GlobalMemory(size)
    for lane in range(len(addrs)):
        if mask[lane]:
            if width == 4:
                gm.write_u32(int(addrs[lane]), int(values[lane]))
            else:
                gm.write_u8(int(addrs[lane]), int(values[lane]))
    return gm


class TestDuplicateAddresses:
    """Colliding lane addresses must resolve last-active-lane-wins."""

    @given(slots=hnp.arrays(np.int64, 64, elements=st.integers(0, 7)),
           values=hnp.arrays(np.uint32, 64,
                             elements=st.integers(0, 0xFFFFFFFF)),
           mask_bits=st.integers(0, (1 << 64) - 1))
    @settings(max_examples=25, deadline=None)
    def test_aligned_dword_collisions(self, slots, values, mask_bits):
        addrs = slots * 4
        mask = np.array([(mask_bits >> i) & 1 for i in range(64)], dtype=bool)
        ref = _sequential_scatter(256, addrs, values, mask, 4)
        gm = GlobalMemory(256)
        gm.scatter_u32(addrs, values, mask)
        assert np.array_equal(gm.snapshot(), ref.snapshot())

    @given(offsets=hnp.arrays(np.int64, 64, elements=st.integers(0, 29)),
           values=hnp.arrays(np.uint32, 64,
                             elements=st.integers(0, 0xFFFFFFFF)))
    @settings(max_examples=25, deadline=None)
    def test_unaligned_overlapping_dwords(self, offsets, values):
        # Unaligned dword ranges can partially overlap; byte-level
        # last-lane-wins must match the sequential write_u32 loop.
        mask = np.ones(64, dtype=bool)
        ref = _sequential_scatter(64, offsets, values, mask, 4)
        gm = GlobalMemory(64)
        gm.scatter_u32(offsets, values, mask)
        assert np.array_equal(gm.snapshot(), ref.snapshot())

    def test_all_lanes_same_address_picks_last_active(self):
        addrs = np.zeros(64, dtype=np.int64)
        values = np.arange(64, dtype=np.uint32) + 100
        mask = np.ones(64, dtype=bool)
        mask[60:] = False  # lane 59 is the last active one
        gm = GlobalMemory(64)
        gm.scatter_u32(addrs, values, mask)
        assert gm.read_u32(0) == 159

    @given(addrs=hnp.arrays(np.int64, 64, elements=st.integers(0, 15)),
           values=hnp.arrays(np.uint32, 64, elements=st.integers(0, 0xFFF)),
           mask_bits=st.integers(0, (1 << 64) - 1))
    @settings(max_examples=25, deadline=None)
    def test_byte_collisions(self, addrs, values, mask_bits):
        mask = np.array([(mask_bits >> i) & 1 for i in range(64)], dtype=bool)
        ref = _sequential_scatter(64, addrs, values, mask, 1)
        gm = GlobalMemory(64)
        gm.scatter_u8(addrs, values, mask)
        assert np.array_equal(gm.snapshot(), ref.snapshot())


class TestDedupKeepLast:
    def test_strictly_increasing_fast_path_returns_inputs(self):
        idx = np.array([0, 4, 8, 12], dtype=np.int64)
        vals = np.arange(4, dtype=np.uint32)
        out_idx, out_vals = dedup_keep_last(idx, vals)
        assert out_idx is idx and out_vals is vals

    def test_duplicates_keep_highest_position(self):
        idx = np.array([3, 1, 3, 2, 1], dtype=np.int64)
        vals = np.array([10, 11, 12, 13, 14], dtype=np.uint32)
        out_idx, out_vals = dedup_keep_last(idx, vals)
        got = dict(zip(out_idx.tolist(), out_vals.tolist()))
        assert got == {3: 12, 2: 13, 1: 14}

    def test_sorted_run_with_a_repeat_is_not_strictly_increasing(self):
        # Non-decreasing is not distinct: the repeated index must still
        # resolve to its last occurrence.
        idx = np.array([0, 2, 2, 3], dtype=np.int64)
        vals = np.array([10, 11, 12, 13], dtype=np.uint32)
        out_idx, out_vals = dedup_keep_last(idx, vals)
        assert dict(zip(out_idx.tolist(), out_vals.tolist())) == {
            0: 10, 2: 12, 3: 13}

    def test_single_element(self):
        idx = np.array([5], dtype=np.int64)
        vals = np.array([9], dtype=np.uint32)
        out_idx, out_vals = dedup_keep_last(idx, vals)
        assert out_idx is idx and out_vals is vals


class TestEdgeAddresses:
    def test_last_word_of_memory(self):
        gm = GlobalMemory(256)
        addrs = np.full(64, 252, dtype=np.int64)
        mask = np.ones(64, dtype=bool)
        gm.scatter_u32(addrs, np.full(64, 0xCAFEBABE, dtype=np.uint32), mask)
        assert gm.gather_u32(addrs, mask)[0] == 0xCAFEBABE

    def test_dword_straddling_end_raises(self):
        gm = GlobalMemory(256)
        addrs = np.full(64, 253, dtype=np.int64)  # bytes 253..256
        mask = np.ones(64, dtype=bool)
        with pytest.raises(SimulationError, match="out of range"):
            gm.gather_u32(addrs, mask)
        with pytest.raises(SimulationError, match="out of range"):
            gm.scatter_u32(addrs, np.zeros(64, dtype=np.uint32), mask)

    def test_last_byte_of_memory(self):
        gm = GlobalMemory(256)
        addrs = np.full(64, 255, dtype=np.int64)
        mask = np.ones(64, dtype=bool)
        gm.scatter_u8(addrs, np.full(64, 0x80, dtype=np.uint32), mask)
        assert gm.gather_u8(addrs, mask, signed=False)[0] == 0x80
        assert gm.gather_u8(addrs, mask, signed=True)[0] == 0xFFFFFF80

    def test_byte_past_end_raises(self):
        gm = GlobalMemory(256)
        addrs = np.full(64, 256, dtype=np.int64)
        mask = np.ones(64, dtype=bool)
        with pytest.raises(SimulationError, match="out of range"):
            gm.gather_u8(addrs, mask)

    def test_unaligned_gather_at_edge(self):
        gm = GlobalMemory(256)
        gm.write_u32(248, 0x11223344)
        gm.write_u32(252, 0x55667788)
        addrs = np.full(64, 250, dtype=np.int64)  # bytes 250..253
        mask = np.zeros(64, dtype=bool)
        mask[0] = True
        assert gm.gather_u32(addrs, mask)[0] == 0x77881122


class TestDirtyHighWater:
    def test_writers_raise_the_mark(self):
        gm = GlobalMemory(4096)
        assert gm.dirty_hi == 0
        gm.write_u8(10, 1)
        assert gm.dirty_hi == 11
        gm.write_u32(100, 1)
        assert gm.dirty_hi == 104
        gm.write_block(200, np.arange(4, dtype=np.uint32))
        assert gm.dirty_hi == 216
        mask = np.ones(64, dtype=bool)
        gm.scatter_u32(np.arange(64, dtype=np.int64) * 4 + 256,
                       np.ones(64, dtype=np.uint32), mask)
        assert gm.dirty_hi == 256 + 64 * 4
        gm.scatter_u8(np.full(64, 600, dtype=np.int64),
                      np.ones(64, dtype=np.uint32), mask)
        assert gm.dirty_hi == 601

    def test_reads_and_zero_fill_do_not_dirty(self):
        gm = GlobalMemory(4096)
        gm.read_u32(1000)
        gm.gather_u32(np.full(64, 2000, dtype=np.int64),
                      np.ones(64, dtype=bool))
        gm.fill(3000, 64, 0)
        assert gm.dirty_hi == 0
        gm.fill(3000, 64, 0xAB)
        assert gm.dirty_hi == 3064

    def test_reset_clears_written_prefix_only(self):
        gm = GlobalMemory(4096)
        gm.write_u32(500, 0xDEADBEEF)
        gm.reset()
        assert gm.dirty_hi == 0
        assert not gm.snapshot().any()

    def test_restore_is_conservative(self):
        gm = GlobalMemory(4096)
        image = gm.snapshot()
        image[4000] = 7
        gm.restore(image)
        assert gm.dirty_hi == gm.size
        gm.reset()
        assert gm.read_u8(4000) == 0


class TestBlocks:
    def test_write_read_block(self):
        gm = GlobalMemory(4096)
        data = np.arange(32, dtype=np.float32)
        gm.write_block(128, data)
        back = gm.read_block(128, data.nbytes, np.float32)
        assert np.array_equal(back, data)

    def test_fill(self):
        gm = GlobalMemory(4096)
        gm.fill(0, 16, 0xAB)
        assert gm.read_u8(15) == 0xAB
        assert gm.read_u8(16) == 0
