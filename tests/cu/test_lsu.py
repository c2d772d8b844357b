"""Load/store unit: addressing, descriptors, LDS, bounds checking."""

import numpy as np
import pytest

from repro.asm import assemble
from repro.cu import lsu
from repro.cu.lsu import make_buffer_descriptor
from repro.cu.prepared import get_prepared
from repro.cu.timing import LSU_CYCLES
from repro.cu.wavefront import Wavefront
from repro.cu.workgroup import Workgroup
from repro.errors import SimulationError
from repro.mem.system import MemorySystem
from repro.soc.dispatcher import LaunchGeometry


def make_env(source, lds=0, mem_size=1 << 16):
    program = assemble((".lds {}\n".format(lds) if lds else "")
                       + source + "\n  s_endpgm")
    memory = MemorySystem(global_size=mem_size)
    geometry = LaunchGeometry.of((64,), (64,))
    wg = Workgroup((0, 0, 0), program, geometry.local_size)
    wf = Wavefront(0, program, workgroup=wg)
    wf.sgprs[4:8] = make_buffer_descriptor(0x1000, 0x1000)
    return program, memory, wf


def exec_mem(program, wf, memory, index=0):
    """Execute one instruction through its prepared plan's executor;
    returns the plan (timing query, occupancy)."""
    plan = get_prepared(program).plans[index]
    wf.pc += plan.pc_step
    plan.mem_fn(wf, memory.global_mem)
    return plan


def transactions(plan):
    """The plan's static LSU transaction count."""
    return plan.occupancy / LSU_CYCLES


class TestSmrd:
    def test_s_load_dword(self):
        program, memory, wf = make_env("s_load_dword s20, s[2:3], 0x2")
        wf.write_scalar64(2, 0x2000)
        memory.global_mem.write_u32(0x2008, 0xCAFE)
        info = exec_mem(program, wf, memory)
        assert wf.read_scalar(20) == 0xCAFE
        assert info.mem_timing == lsu.MEM_SCALAR

    def test_s_load_dwordx4(self):
        program, memory, wf = make_env("s_load_dwordx4 s[20:23], s[2:3], 0")
        wf.write_scalar64(2, 0x2000)
        for i in range(4):
            memory.global_mem.write_u32(0x2000 + 4 * i, 100 + i)
        exec_mem(program, wf, memory)
        assert [wf.read_scalar(20 + i) for i in range(4)] == [100, 101, 102, 103]

    def test_s_buffer_load_uses_descriptor(self):
        program, memory, wf = make_env(
            "s_buffer_load_dword s20, s[4:7], 0x1")
        memory.global_mem.write_u32(0x1004, 77)
        exec_mem(program, wf, memory)
        assert wf.read_scalar(20) == 77


class TestBuffer:
    def test_offen_gather(self):
        program, memory, wf = make_env(
            "tbuffer_load_format_x v2, v1, s[4:7], 0 offen")
        addrs = np.arange(64, dtype=np.uint32) * 4
        wf.write_vgpr(1, addrs)
        memory.global_mem.write_block(
            0x1000, np.arange(64, dtype=np.uint32) + 500)
        info = exec_mem(program, wf, memory)
        assert (wf.read_vgpr(2) == np.arange(64) + 500).all()
        assert info.mem_timing == lsu.MEM_VECTOR

    def test_scatter_respects_exec(self):
        program, memory, wf = make_env(
            "tbuffer_store_format_x v2, v1, s[4:7], 0 offen")
        wf.write_vgpr(1, np.arange(64, dtype=np.uint32) * 4)
        wf.write_vgpr(2, np.full(64, 9, dtype=np.uint32))
        wf.exec_mask = 0b11
        exec_mem(program, wf, memory)
        data = memory.global_mem.read_block(0x1000, 16, np.uint32)
        assert list(data) == [9, 9, 0, 0]

    @pytest.mark.parametrize("dwords", [(0, 2, 2, 3), (3, 2, 2, 0)],
                             ids=["ascending", "descending"])
    def test_store_collision_in_exact_footprint_last_lane_wins(self, dwords):
        # Four active lanes span exactly four dwords, yet two of them
        # collide: a footprint test alone does not prove the addresses
        # distinct.  Lane 2 is the last active lane to write dword 2.
        program, memory, wf = make_env(
            "tbuffer_store_format_x v2, v1, s[4:7], 0 offen")
        addrs = np.full(64, 4 * 15, dtype=np.uint32)
        addrs[:4] = [4 * d for d in dwords]
        wf.write_vgpr(1, addrs)
        wf.write_vgpr(2, np.arange(64, dtype=np.uint32) + 100)
        wf.exec_mask = 0b1111
        exec_mem(program, wf, memory)
        data = memory.global_mem.read_block(0x1000, 16, np.uint32)
        assert list(data) == [100 + dwords.index(0), 0, 102,
                              100 + dwords.index(3)]

    def test_format_xy_moves_two_dwords(self):
        program, memory, wf = make_env(
            "tbuffer_load_format_xy v2, v1, s[4:7], 0 offen")
        wf.write_vgpr(1, np.zeros(64, dtype=np.uint32))
        memory.global_mem.write_u32(0x1000, 11)
        memory.global_mem.write_u32(0x1004, 22)
        info = exec_mem(program, wf, memory)
        assert wf.read_vgpr(2)[0] == 11 and wf.read_vgpr(3)[0] == 22
        assert transactions(info) == 2

    def test_byte_loads_sign_extension(self):
        program, memory, wf = make_env(
            "buffer_load_sbyte v2, v1, s[4:7], 0 offen")
        wf.write_vgpr(1, np.zeros(64, dtype=np.uint32))
        memory.global_mem.write_u8(0x1000, 0x80)
        exec_mem(program, wf, memory)
        assert wf.read_vgpr(2)[0] == 0xFFFFFF80

    def test_ubyte_zero_extends(self):
        program, memory, wf = make_env(
            "buffer_load_ubyte v2, v1, s[4:7], 0 offen")
        wf.write_vgpr(1, np.zeros(64, dtype=np.uint32))
        memory.global_mem.write_u8(0x1000, 0x80)
        exec_mem(program, wf, memory)
        assert wf.read_vgpr(2)[0] == 0x80

    def test_store_byte(self):
        program, memory, wf = make_env(
            "buffer_store_byte v2, v1, s[4:7], 0 offen")
        wf.write_vgpr(1, np.arange(64, dtype=np.uint32))
        wf.write_vgpr(2, np.full(64, 0x1AB, dtype=np.uint32))
        exec_mem(program, wf, memory)
        assert memory.global_mem.read_u8(0x1000) == 0xAB  # truncated

    def test_records_bound_enforced(self):
        program, memory, wf = make_env(
            "tbuffer_load_format_x v2, v1, s[4:7], 0 offen")
        wf.write_vgpr(1, np.full(64, 0x2000, dtype=np.uint32))  # beyond size
        with pytest.raises(SimulationError, match="beyond buffer records"):
            exec_mem(program, wf, memory)

    def test_instruction_offset_applies(self):
        program, memory, wf = make_env(
            "tbuffer_load_format_x v2, v1, s[4:7], 0 offen offset:8")
        wf.write_vgpr(1, np.zeros(64, dtype=np.uint32))
        memory.global_mem.write_u32(0x1008, 0xAA)
        exec_mem(program, wf, memory)
        assert (wf.read_vgpr(2) == 0xAA).all()


class TestLds:
    def test_write_then_read(self):
        program, memory, wf = make_env(
            "ds_write_b32 v0, v1\nds_read_b32 v2, v0", lds=256)
        wf.write_vgpr(0, np.arange(64, dtype=np.uint32) * 4)
        wf.write_vgpr(1, np.arange(64, dtype=np.uint32) + 7)
        exec_mem(program, wf, memory, index=0)
        info = exec_mem(program, wf, memory, index=1)
        assert (wf.read_vgpr(2) == np.arange(64) + 7).all()
        assert info.mem_timing == lsu.MEM_LDS

    def test_ds_add_atomic_accumulates_collisions(self):
        program, memory, wf = make_env("ds_add_u32 v0, v1", lds=64)
        wf.write_vgpr(0, np.zeros(64, dtype=np.uint32))  # all hit word 0
        wf.write_vgpr(1, np.ones(64, dtype=np.uint32))
        exec_mem(program, wf, memory)
        assert wf.workgroup.lds[0] == 64

    def test_read2_write2(self):
        # offset0/offset1 are dword-element offsets; lanes use stride-2
        # addressing so the two elements of each lane do not collide.
        program, memory, wf = make_env(
            "ds_write2_b32 v0, v1, v2 offset0:0 offset1:1\n"
            "ds_read2_b32 v[4:5], v0 offset0:0 offset1:1", lds=1024)
        wf.write_vgpr(0, np.arange(64, dtype=np.uint32) * 8)
        wf.write_vgpr(1, np.full(64, 5, dtype=np.uint32))
        wf.write_vgpr(2, np.full(64, 6, dtype=np.uint32))
        exec_mem(program, wf, memory, index=0)
        exec_mem(program, wf, memory, index=1)
        assert (wf.read_vgpr(4) == 5).all()
        assert (wf.read_vgpr(5) == 6).all()

    def test_out_of_range_rejected(self):
        program, memory, wf = make_env("ds_read_b32 v2, v0", lds=64)
        wf.write_vgpr(0, np.full(64, 4096, dtype=np.uint32))
        with pytest.raises(SimulationError, match="out of range"):
            exec_mem(program, wf, memory)

    def test_unaligned_rejected(self):
        program, memory, wf = make_env("ds_read_b32 v2, v0", lds=64)
        wf.write_vgpr(0, np.full(64, 2, dtype=np.uint32))
        with pytest.raises(SimulationError, match="unaligned"):
            exec_mem(program, wf, memory)

    def test_lds_without_allocation_rejected(self):
        program, memory, wf = make_env("ds_read_b32 v2, v0", lds=0)
        with pytest.raises(SimulationError, match="LDS"):
            exec_mem(program, wf, memory)


class TestDescriptors:
    def test_make_buffer_descriptor_fields(self):
        desc = make_buffer_descriptor(0x1234, 0x800, flags=3)
        assert desc == [0x1234, 0, 0x800, 3]


class TestSmrdTransactions:
    """Regression: SMRD x2/x4 loads reported ``transactions=1``, so the
    LSU occupancy model undercharged them relative to the per-dword
    accounting the vector buffer path always used."""

    def test_s_load_dword_single_transaction(self):
        program, memory, wf = make_env("s_load_dword s20, s[2:3], 0")
        wf.write_scalar64(2, 0x2000)
        info = exec_mem(program, wf, memory)
        assert transactions(info) == 1

    def test_s_load_dwordx2_counts_two(self):
        program, memory, wf = make_env("s_load_dwordx2 s[20:21], s[2:3], 0")
        wf.write_scalar64(2, 0x2000)
        info = exec_mem(program, wf, memory)
        assert transactions(info) == 2

    def test_s_load_dwordx4_counts_four(self):
        program, memory, wf = make_env("s_load_dwordx4 s[20:23], s[2:3], 0")
        wf.write_scalar64(2, 0x2000)
        info = exec_mem(program, wf, memory)
        assert transactions(info) == 4

    def test_s_buffer_load_dwordx4_counts_four(self):
        program, memory, wf = make_env(
            "s_buffer_load_dwordx4 s[20:23], s[4:7], 0")
        info = exec_mem(program, wf, memory)
        assert transactions(info) == 4
