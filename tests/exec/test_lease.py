"""Board leasing: content keys, physical pooling, warm/cold provenance,
LRU, reset and retarget fidelity."""

import numpy as np
import pytest

from repro.core.config import ArchConfig
from repro.exec import (BoardPool, ExecutionRequest, Executor, board_key,
                        config_key)
from repro.obs import Observer


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
        """Boards are pooled by physical key: distinct memory sizes or
        instruction caps are distinct boards, evicted LRU."""
        pool = BoardPool(capacity=2)
        arch = ArchConfig.baseline()
        shapes = [dict(global_mem_size=1 << 16),
                  dict(global_mem_size=1 << 17),
                  dict(global_mem_size=1 << 16, max_instructions=1000)]
        for shape in shapes:
            with pool.lease(arch, **shape) as lease:
                assert lease.warm is False
        assert len(pool) == 2
        # The oldest (64 KB, uncapped) was evicted; leasing it again is
        # cold, while the newest shape is still warm.
        with pool.lease(arch, **shapes[0]) as lease:
            assert lease.warm is False
        with pool.lease(arch, **shapes[2]) as lease:
            assert lease.warm is True
        assert pool.retargets == 0

    def test_architectures_share_one_physical_board(self):
        pool = BoardPool(capacity=2)
        with pool.lease(ArchConfig.baseline()) as lease:
            first = lease.board
        for arch in (ArchConfig.dcd(), ArchConfig.original()):
            with pool.lease(arch) as lease:
                assert lease.board is first
                assert lease.warm is True
                assert lease.board.arch is arch
                assert lease.key == board_key(arch)
        assert len(pool) == 1
        assert pool.leases == {"warm": 2, "cold": 1}
        assert pool.retargets == 2

    def test_prefers_board_already_configured(self):
        """An idle board of the leased architecture is reset, not an
        older board retargeted."""
        pool = BoardPool(capacity=2)
        with pool.lease(ArchConfig.baseline()) as a:
            with pool.lease(ArchConfig.dcd()) as b:
                dcd_board = b.board
        # Idle, LRU first: dcd (released first), then baseline.
        with pool.lease(ArchConfig.baseline()) as lease:
            assert lease.board is a.board
        with pool.lease(ArchConfig.dcd()) as lease:
            assert lease.board is dcd_board
        assert pool.retargets == 0

    def test_retargets_least_recently_used(self):
        pool = BoardPool(capacity=2)
        with pool.lease(ArchConfig.baseline()) as a:
            with pool.lease(ArchConfig.dcd()):
                pass
        # dcd's board went idle first, so it is the one retargeted.
        with pool.lease(ArchConfig.original()) as lease:
            assert lease.board is not a.board
            assert lease.warm is True
        assert pool.retargets == 1

    def test_max_instructions_applied_cold(self):
        pool = BoardPool()
        with pool.lease(ArchConfig.baseline(),
                        max_instructions=1234) as lease:
            assert all(cu.max_instructions == 1234
                       for cu in lease.board.gpu.cus)

    def test_max_instructions_holds_after_retarget(self):
        from repro.errors import SimulationError
        from repro.exec import BenchmarkWorkload

        pool = BoardPool(capacity=1)
        with pool.lease(ArchConfig.baseline(), global_mem_size=1 << 20,
                        max_instructions=50):
            pass
        multi = ArchConfig.baseline().with_parallelism(num_cus=2)
        with pool.lease(multi, global_mem_size=1 << 20,
                        max_instructions=50) as lease:
            assert lease.warm is True
            assert lease.board.max_instructions == 50
            assert [cu.max_instructions for cu in lease.board.gpu.cus] \
                == [50, 50]
        assert pool.retargets == 1
        executor = Executor(pool=pool)
        with pytest.raises(SimulationError, match="instruction budget"):
            executor.execute(ExecutionRequest(
                workload=BenchmarkWorkload(name="matrix_add_i32",
                                           params={"n": 64}),
                arch=ArchConfig.dcd(), global_mem_size=1 << 20,
                max_instructions=50, verify=False))
        assert pool.retargets == 2

    def test_release_scrubs_lease_settings(self):
        pool = BoardPool()
        arch = ArchConfig.baseline()
        with pool.lease(arch) as lease:
            lease.board.max_groups = 3
            lease.board.slice_instructions = 10
            lease.board.attach(Observer())
        with pool.lease(arch) as lease:
            assert lease.board.max_groups is None
            assert lease.board.slice_instructions is None
            assert not lease.board.observers
            # No observer left behind: the next launch dispatches
            # nothing.
            assert lease.board.gpu.obs is None


class TestWarmBitIdentical:
    def test_warm_board_reproduces_cold_across_different_kernels(self):
        """A board dirtied by one kernel and re-leased for another must
        match a cold board bit-for-bit: memory, registers, cycles."""
        from repro.exec import BenchmarkWorkload

        def snap(executor, name):
            result = executor.execute(ExecutionRequest(
                workload=BenchmarkWorkload(name=name, params={"n": 16}),
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

    def test_retargeted_board_reproduces_cold_board(self):
        """baseline -> dcd -> original -> baseline on one pool share one
        board; every lease after the first is warm and each run equals
        a cold board of its architecture bit-for-bit."""
        from repro.exec import BenchmarkWorkload

        def snap(executor, arch):
            result = executor.execute(ExecutionRequest(
                workload=BenchmarkWorkload(name="matrix_mul_i32",
                                           params={"n": 16}),
                arch=arch, global_mem_size=1 << 20, capture_memory=True,
                collect_registers=True, digests=True))
            launch = result.launches[-1]
            return result, (result.memory_image, result.cu_cycles,
                            launch.cu_cycles, result.instructions,
                            result.registers, result.digests,
                            result.memory_stats)

        pool = BoardPool(capacity=1)
        shared = Executor(pool=pool)
        boards = set()
        sequence = [ArchConfig.baseline(), ArchConfig.dcd(),
                    ArchConfig.original(), ArchConfig.baseline()]
        for index, arch in enumerate(sequence):
            leased, state = snap(shared, arch)
            cold, cold_state = snap(Executor(pool=BoardPool()), arch)
            assert leased.warm_board is (index > 0)
            assert cold.warm_board is False
            assert state == cold_state, arch.describe()
            boards.add(id(pool._idle[0][2]))
        assert len(boards) == 1
        assert pool.retargets == 3

    def test_retarget_clears_memory_and_heap(self):
        pool = BoardPool()
        with pool.lease(ArchConfig.baseline()) as lease:
            lease.board.upload("junk", np.full(256, 0xAB, np.uint8))
        with pool.lease(ArchConfig.dcd()) as lease:
            assert lease.board.heap.used == 0
            mem = lease.board.gpu.memory.global_mem
            assert mem.dirty_hi == 0
            assert not mem.read_block(0, mem.size, np.uint8).any()

    def test_reset_clears_memory_image(self):
        pool = BoardPool()
        arch = ArchConfig.baseline()
        with pool.lease(arch) as lease:
            lease.board.upload("junk", np.full(256, 0xAB, np.uint8))
        with pool.lease(arch) as lease:
            mem = lease.board.gpu.memory.global_mem
            image = mem.read_block(0, mem.size, np.uint8)
            assert not image.any()
