"""Memory system timing: relay serialisation, prefetch pipelining."""

import numpy as np
import pytest

from repro.mem.params import DCD_PM_TIMING, DCD_TIMING, ORIGINAL_TIMING
from repro.mem.system import MemorySystem

ADDRS = np.arange(64, dtype=np.int64) * 4


def access(addrs):
    """The full-EXEC ``(active, lo, hi, rows, offset)`` tuple
    ``access_time`` takes."""
    return (addrs.size, int(addrs.min()), int(addrs.max()), addrs, 0)


class TestRelayLatency:
    def test_dcd_speeds_up_only_the_mb_portion(self):
        original = ORIGINAL_TIMING.relay_cycles
        dcd = DCD_TIMING.relay_cycles
        assert dcd < original
        # The AXI handshake portion is clock-ratio invariant.
        assert dcd > ORIGINAL_TIMING.axi_fixed_cycles
        assert original == pytest.approx(
            ORIGINAL_TIMING.axi_fixed_cycles
            + ORIGINAL_TIMING.mb_service_cycles)

    def test_dcd_ratio_matches_paper_band(self):
        """DCD alone buys ~1.17x on memory latency (Section 4.1.2)."""
        ratio = ORIGINAL_TIMING.relay_cycles / DCD_TIMING.relay_cycles
        assert 1.10 <= ratio <= 1.25

    def test_relay_serialises(self):
        system = MemorySystem(params=ORIGINAL_TIMING)
        t1 = system.access_time(0, 0.0, access(ADDRS))
        t2 = system.access_time(0, 0.0, access(ADDRS))
        assert t2 >= t1 + ORIGINAL_TIMING.relay_cycles


class TestPrefetchPath:
    def test_hit_is_fast_and_pipelined(self):
        system = MemorySystem(params=DCD_PM_TIMING)
        assert system.preload(0, 0, 4096)
        t1 = system.access_time(0, 0.0, access(ADDRS))
        t2 = system.access_time(0, 0.0, access(ADDRS))
        assert t1 == DCD_PM_TIMING.prefetch_hit_cycles
        assert t2 == t1 + DCD_PM_TIMING.prefetch_issue_interval
        assert system.stats["prefetch_hits"] == 2

    def test_miss_falls_back_to_relay(self):
        system = MemorySystem(params=DCD_PM_TIMING)
        t = system.access_time(0, 0.0, access(ADDRS))
        assert t == pytest.approx(DCD_PM_TIMING.relay_cycles)
        assert system.stats["relay_accesses"] == 1
        assert system.stats["prefetch_misses"] == 1

    def test_hits_plus_misses_cover_all_global_accesses(self):
        """Every global transaction is either a prefetch hit or a miss,
        so hit-rate denominators never undercount (ISSUE bugfix)."""
        system = MemorySystem(params=DCD_PM_TIMING)
        system.preload(0, 0, 256)           # covers ADDRS[:64] exactly
        system.access_time(0, 0.0, access(ADDRS))            # hit
        system.access_time(0, 0.0, access(ADDRS + 4096))     # miss
        system.access_time(0, 0.0, (0x80,), scalar=True)  # hit
        system.access_time(0, 0.0, (0x9000,), scalar=True)  # miss
        stats = system.stats
        assert stats["prefetch_hits"] == 2
        assert stats["prefetch_misses"] == 2
        assert stats["prefetch_misses"] == stats["relay_accesses"]

    def test_prefetchless_config_counts_misses(self):
        """Without prefetch memory, every access is a miss -- the
        counter is not conditional on the prefetch path existing."""
        system = MemorySystem(params=ORIGINAL_TIMING)
        system.access_time(0, 0.0, access(ADDRS))
        system.access_time(0, 0.0, (0x100,), scalar=True)
        assert system.stats["prefetch_hits"] == 0
        assert system.stats["prefetch_misses"] == 2

    def test_preload_disabled_without_prefetch(self):
        system = MemorySystem(params=ORIGINAL_TIMING)
        assert not system.preload(0, 0, 4096)

    def test_per_cu_buffers_split_brams(self):
        system = MemorySystem(params=DCD_PM_TIMING, num_cus=4,
                              prefetch_brams=928)
        assert len(system.prefetch) == 4
        assert system.prefetch[0].bram_blocks == 928 // 4

    def test_scalar_access_paths(self):
        system = MemorySystem(params=DCD_PM_TIMING)
        system.preload(0, 0x100, 16)
        hit = system.access_time(0, 0.0, (0x100,), scalar=True)
        assert hit == DCD_PM_TIMING.prefetch_hit_cycles
        miss = system.access_time(0, 0.0, (0x9000,), scalar=True)
        assert miss >= DCD_PM_TIMING.relay_cycles


class TestLdsAndReset:
    def test_lds_access_constant_latency(self):
        system = MemorySystem()
        assert system.lds_access_time(10.0) == 10.0 + system.params.lds_cycles

    def test_reset_timing_clears_channels_and_stats(self):
        system = MemorySystem(params=ORIGINAL_TIMING)
        system.access_time(0, 0.0, access(ADDRS))
        system.reset_timing()
        assert system.stats["relay_accesses"] == 0
        t = system.access_time(0, 0.0, access(ADDRS))
        assert t == pytest.approx(ORIGINAL_TIMING.relay_cycles)

    def test_reset_timing_clears_every_stat_key(self):
        """reset() must zero new counters too, not just the old ones."""
        system = MemorySystem(params=DCD_PM_TIMING)
        system.preload(0, 0, 256)
        system.access_time(0, 0.0, access(ADDRS))
        system.access_time(0, 0.0, access(ADDRS + 4096))
        system.lds_access_time(0.0)
        assert all(v > 0 for v in system.stats.values())
        system.reset_timing()
        assert set(system.stats) == {"relay_accesses", "prefetch_hits",
                                     "prefetch_misses", "lds_accesses"}
        assert all(v == 0 for v in system.stats.values())
