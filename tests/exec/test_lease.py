"""Board leasing: content keys, warm/cold provenance, LRU, reset fidelity."""

import numpy as np

from repro.core.config import ArchConfig
from repro.exec import (BoardPool, ExecutionRequest, Executor, board_key,
                        config_key)


class TestBoardKey:
    def test_same_semantics_same_key(self):
        assert board_key(ArchConfig.baseline()) == \
            board_key(ArchConfig.baseline())

    def test_config_key_matches_service_space(self):
        from repro.service.cache import config_key as service_key

        arch = ArchConfig.baseline()
        assert config_key(arch) == service_key(arch)

    def test_memory_size_separates_boards(self):
        arch = ArchConfig.baseline()
        assert board_key(arch) != board_key(arch, global_mem_size=1 << 20)

    def test_instruction_cap_separates_boards(self):
        arch = ArchConfig.baseline()
        assert board_key(arch) != board_key(arch, max_instructions=50_000)

    def test_arch_separates_boards(self):
        assert board_key(ArchConfig.baseline()) != board_key(ArchConfig.dcd())


class TestBoardPool:
    def test_cold_then_warm(self):
        pool = BoardPool()
        arch = ArchConfig.baseline()
        with pool.lease(arch) as lease:
            first = lease.board
            assert lease.warm is False
        with pool.lease(arch) as lease:
            assert lease.board is first
            assert lease.warm is True
        assert pool.leases == {"warm": 1, "cold": 1}

    def test_different_keys_get_different_boards(self):
        pool = BoardPool()
        arch = ArchConfig.baseline()
        with pool.lease(arch) as lease:
            first = lease.board
        with pool.lease(arch, global_mem_size=1 << 20) as lease:
            assert lease.board is not first
            assert lease.warm is False
            assert lease.board.gpu.memory.global_mem.size == 1 << 20

    def test_exclusive_checkout(self):
        """Concurrent leases of one key never share a board."""
        pool = BoardPool()
        arch = ArchConfig.baseline()
        with pool.lease(arch) as outer:
            with pool.lease(arch) as inner:
                assert inner.board is not outer.board
                assert inner.warm is False

    def test_lru_eviction(self):
        pool = BoardPool(capacity=2)
        configs = [ArchConfig.baseline(), ArchConfig.dcd(),
                   ArchConfig.original()]
        for arch in configs:
            with pool.lease(arch):
                pass
        assert len(pool) == 2
        # The oldest (baseline) was evicted; leasing it again is cold.
        with pool.lease(configs[0]) as lease:
            assert lease.warm is False

    def test_max_instructions_applied_cold(self):
        pool = BoardPool()
        with pool.lease(ArchConfig.baseline(),
                        max_instructions=1234) as lease:
            assert all(cu.max_instructions == 1234
                       for cu in lease.board.gpu.cus)

    def test_release_scrubs_lease_settings(self):
        pool = BoardPool()
        arch = ArchConfig.baseline()
        with pool.lease(arch) as lease:
            lease.board.max_groups = 3
            lease.board.gpu.default_engine = "superblock"
        with pool.lease(arch) as lease:
            assert lease.board.max_groups is None
            assert lease.board.gpu.default_engine is None
            assert not lease.board.observers


class TestWarmBitIdentical:
    def test_warm_board_reproduces_cold_across_different_kernels(self):
        """A board dirtied by one kernel and re-leased for another must
        match a cold board bit-for-bit: memory, registers, cycles."""
        from repro.exec import BenchmarkWorkload

        def snap(executor, name):
            result = executor.execute(ExecutionRequest(
                workload=BenchmarkWorkload(name=name, params={"n": 16}),
                engine="superblock",
                capture_memory=True,
                collect_registers=True,
                digests=True,
            ))
            launch = result.launches[-1]
            return result, (result.memory_image, launch.cu_cycles,
                            launch.stats.instructions, result.registers,
                            result.digests)

        cold_exec = Executor(pool=BoardPool())
        warm_exec = Executor(pool=BoardPool())
        # Dirty the warm executor's board with a different kernel first.
        dirty, _ = snap(warm_exec, "matrix_mul_i32")
        assert dirty.warm_board is False
        warm, warm_state = snap(warm_exec, "matrix_add_i32")
        assert warm.warm_board is True
        cold, cold_state = snap(cold_exec, "matrix_add_i32")
        assert cold.warm_board is False
        assert warm_state == cold_state

    def test_reset_clears_memory_image(self):
        pool = BoardPool()
        arch = ArchConfig.baseline()
        with pool.lease(arch) as lease:
            lease.board.upload("junk", np.full(256, 0xAB, np.uint8))
        with pool.lease(arch) as lease:
            mem = lease.board.gpu.memory.global_mem
            image = mem.read_block(0, mem.size, np.uint8)
            assert not image.any()
