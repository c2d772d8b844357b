"""Prefetch buffer: coverage tracking and capacity."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.mem.prefetch import BRAM_BYTES, PrefetchBuffer


class TestCapacity:
    def test_capacity_follows_bram_count(self):
        buf = PrefetchBuffer(bram_blocks=2)
        assert buf.capacity == 2 * BRAM_BYTES

    def test_preload_accounts_bytes(self):
        buf = PrefetchBuffer(bram_blocks=1)
        assert buf.preload(0, 1024)
        assert buf.used_bytes == 1024
        assert buf.free_bytes == BRAM_BYTES - 1024

    def test_preload_overflow_refused(self):
        buf = PrefetchBuffer(bram_blocks=1)
        assert not buf.preload(0, BRAM_BYTES + 1)
        assert buf.used_bytes == 0  # nothing partially loaded

    def test_zero_length_always_fits(self):
        buf = PrefetchBuffer(bram_blocks=1)
        assert buf.preload(0, 0)

    def test_negative_rejected(self):
        buf = PrefetchBuffer()
        with pytest.raises(SimulationError):
            buf.preload(0, -1)

    def test_clear(self):
        buf = PrefetchBuffer(bram_blocks=1)
        buf.preload(0, 512)
        buf.clear()
        assert buf.used_bytes == 0 and not buf.covers(0)


class TestCoverage:
    def test_covers_single_address(self):
        buf = PrefetchBuffer()
        buf.preload(0x1000, 0x100)
        assert buf.covers(0x1000)
        assert buf.covers(0x10FF)
        assert not buf.covers(0x1100)
        assert not buf.covers(0xFFF)

    def test_covers_all_within_one_range(self):
        buf = PrefetchBuffer()
        buf.preload(0x1000, 0x1000)
        addrs = np.arange(64, dtype=np.int64) * 4 + 0x1000
        mask = np.ones(64, dtype=bool)
        assert buf.covers_all(addrs[mask])

    def test_one_miss_spoils_the_transaction(self):
        buf = PrefetchBuffer()
        buf.preload(0x1000, 0x100)
        addrs = np.full(64, 0x1000, dtype=np.int64)
        addrs[13] = 0x9000
        assert not buf.covers_all(addrs)

    def test_inactive_lanes_ignored(self):
        buf = PrefetchBuffer()
        buf.preload(0x1000, 0x100)
        addrs = np.full(64, 0x9000, dtype=np.int64)
        addrs[0] = 0x1000
        mask = np.zeros(64, dtype=bool)
        mask[0] = True
        assert buf.covers_all(addrs[mask])

    def test_discontiguous_ranges(self):
        buf = PrefetchBuffer()
        buf.preload(0x0, 0x100)
        buf.preload(0x2000, 0x100)
        addrs = np.zeros(64, dtype=np.int64)
        addrs[1] = 0x2000
        mask = np.zeros(64, dtype=bool)
        mask[:2] = True
        assert buf.covers_all(addrs[mask])

    def test_all_inactive_is_covered(self):
        buf = PrefetchBuffer()
        addrs = np.full(64, 123456, dtype=np.int64)
        assert buf.covers_all(addrs[np.zeros(64, dtype=bool)])
