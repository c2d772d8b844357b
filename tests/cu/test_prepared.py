"""The decoded/prepared-program caches and the compiled issue loop."""

import numpy as np
import pytest

from repro.asm import assemble
from repro.core.config import ArchConfig
from repro.cu import prepared
from repro.cu.prepared import (
    clear_prepared_cache,
    get_prepared,
    lookup_prepared,
    prepared_cache_keys,
    prepared_cache_stats,
    set_prepared_cache_capacity,
)
from repro.runtime.device import SoftGpu

ADD = """
.kernel add
.arg inp buffer
.arg out buffer
  s_buffer_load_dword s19, s[8:11], 3
  s_buffer_load_dword s20, s[12:15], 0
  s_buffer_load_dword s21, s[12:15], 1
  s_waitcnt lgkmcnt(0)
  s_mul_i32 s1, s16, s19
  v_add_i32 v3, vcc, s1, v0
  v_lshlrev_b32 v3, 2, v3
  v_add_i32 v4, vcc, s20, v3
  buffer_load_dword v6, v4, s[4:7], 0 offen
  s_waitcnt vmcnt(0)
  v_add_i32 v6, vcc, {imm}, v6
  v_add_i32 v5, vcc, s21, v3
  buffer_store_dword v6, v5, s[4:7], 0 offen
  s_waitcnt vmcnt(0)
  s_endpgm
"""


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_prepared_cache()
    yield
    clear_prepared_cache()


def _device(engine):
    device = SoftGpu(ArchConfig.baseline())
    device.gpu.default_engine = engine
    return device


def _run_add(device, program):
    n = 128
    inp = device.upload("inp", np.arange(n, dtype=np.uint32))
    out = device.alloc("out", 4 * n)
    device.preload_all()
    result = device.run(program, (n,), (64,), args=[inp, out])
    data = device.read(out)
    return result, data


class TestContentKey:
    def test_identical_binaries_share_key(self):
        a = assemble(ADD.format(imm=7))
        b = assemble(ADD.format(imm=7) + "\n; trailing comment\n")
        assert a is not b
        assert a.content_key() == b.content_key()

    def test_mutated_binary_changes_key(self):
        assert assemble(ADD.format(imm=7)).content_key() != \
            assemble(ADD.format(imm=9)).content_key()


class TestPreparedCache:
    def test_hit_on_identical_binary(self):
        a = assemble(ADD.format(imm=7))
        b = assemble(ADD.format(imm=7) + "\n; cosmetic\n")
        prepared_a, hit_a = lookup_prepared(a)
        prepared_b, hit_b = lookup_prepared(b)
        assert not hit_a and hit_b
        assert prepared_a is prepared_b
        stats = prepared_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_miss_on_mutated_binary(self):
        lookup_prepared(assemble(ADD.format(imm=7)))
        _, hit = lookup_prepared(assemble(ADD.format(imm=9)))
        assert not hit
        assert prepared_cache_stats()["misses"] == 2

    def test_eviction_is_lru(self):
        previous = set_prepared_cache_capacity(2)
        try:
            programs = [assemble(ADD.format(imm=i)) for i in (1, 2, 3)]
            for program in programs:
                lookup_prepared(program)
            keys = prepared_cache_keys()
            assert len(keys) == 2
            assert programs[0].content_key()[:16] not in keys
            # The evicted program re-prepares as a miss.
            _, hit = lookup_prepared(programs[0])
            assert not hit
        finally:
            set_prepared_cache_capacity(previous)
            clear_prepared_cache()

    def test_plans_cover_program(self):
        program = assemble(ADD.format(imm=7))
        plan = get_prepared(program)
        assert len(plan.plans) == len(program.instructions)
        assert set(plan.by_address) == {
            inst.address for inst in program.instructions}


class TestWarmVsCold:
    def test_cache_hit_produces_identical_run_stats(self):
        source = ADD.format(imm=13)
        cold_dev = _device("superblock")
        cold_res, cold_data = _run_add(cold_dev, assemble(source))
        assert prepared_cache_stats()["misses"] >= 1

        warm_dev = _device("superblock")
        warm_res, warm_data = _run_add(warm_dev, assemble(source))
        assert prepared_cache_stats()["hits"] >= 1

        assert np.array_equal(cold_data, warm_data)
        assert cold_res.cu_cycles == warm_res.cu_cycles
        assert cold_res.stats.instructions == warm_res.stats.instructions
        assert cold_res.stats.per_unit == warm_res.stats.per_unit
        assert cold_res.stats.per_name == warm_res.stats.per_name

    def test_compiled_engine_matches_reference_exactly(self):
        source = ADD.format(imm=21)
        ref_res, ref_data = _run_add(_device("reference"), assemble(source))
        sb_res, sb_data = _run_add(_device("superblock"), assemble(source))
        assert np.array_equal(ref_data, sb_data)
        assert ref_res.cu_cycles == sb_res.cu_cycles
        assert ref_res.stats.instructions == sb_res.stats.instructions
        assert ref_res.stats.per_unit == sb_res.stats.per_unit
        assert ref_res.stats.per_name == sb_res.stats.per_name
        assert ref_res.engine == "reference"
        assert sb_res.engine == "superblock"


COLLIDE = """
.kernel collide
.arg inp buffer
.arg out buffer
  s_buffer_load_dword s19, s[8:11], 3
  s_buffer_load_dword s20, s[12:15], 0
  s_buffer_load_dword s21, s[12:15], 1
  s_waitcnt lgkmcnt(0)
  s_mul_i32 s1, s16, s19
  v_add_i32 v3, vcc, s1, v0
  v_and_b32 v12, 7, v0
  v_lshlrev_b32 v12, 2, v12
  v_add_i32 v12, vcc, s21, v12
  v_mov_b32 v6, 1
  v_add_i32 v6, vcc, v6, v3
  {op} v6, v12, s[4:7], 0 offen
  s_waitcnt vmcnt(0)
  s_endpgm
"""

OOB_STORE = """
.kernel oob
.arg inp buffer
.arg out buffer
  s_buffer_load_dword s21, s[12:15], 1
  s_waitcnt lgkmcnt(0)
  v_mov_b32 v12, 0x{offset:08x}
  v_add_i32 v12, vcc, s21, v12
  buffer_store_dword v0, v12, s[4:7], 0 offen
  s_waitcnt vmcnt(0)
  s_endpgm
"""


def _run_collide(engine, op):
    device = _device(engine)
    n = 64
    inp = device.upload("inp", np.arange(n, dtype=np.uint32))
    out = device.alloc("out", 4 * n)
    device.preload_all()
    result = device.run(assemble(COLLIDE.format(op=op)), (n,), (n,),
                        args=[inp, out])
    return result, device.read(out)


class TestDuplicateStoreAddresses:
    """Colliding lane addresses through the fused buffer executor must
    resolve last-active-lane-wins, exactly like the reference loop."""

    def test_aligned_dword_collisions_match_reference(self):
        ref_res, ref_data = _run_collide("reference", "buffer_store_dword")
        res, data = _run_collide("superblock", "buffer_store_dword")
        assert np.array_equal(ref_data, data)
        assert res.cu_cycles == ref_res.cu_cycles
        # Lanes 8k+i all write slot i; the winner is the last one (56+i),
        # which stored 1 + gid = 57+i.
        assert ref_data[:8].tolist() == [57 + i for i in range(8)]

    def test_byte_collisions_match_reference(self):
        ref_res, ref_data = _run_collide("reference", "buffer_store_byte")
        res, data = _run_collide("superblock", "buffer_store_byte")
        assert np.array_equal(ref_data, data)
        assert res.cu_cycles == ref_res.cu_cycles


class TestEdgeAddressParity:
    def test_out_of_range_store_raise_parity(self):
        """The fused executor must raise at the same instruction with
        the same message as the reference LSU."""
        from repro.errors import SimulationError

        messages = {}
        for engine in ("reference", "superblock"):
            device = _device(engine)
            inp = device.upload("inp", np.arange(64, dtype=np.uint32))
            out = device.alloc("out", 4 * 64)
            device.preload_all()
            with pytest.raises(SimulationError) as exc:
                device.run(assemble(OOB_STORE.format(offset=0x7F000000)),
                           (64,), (64,), args=[inp, out])
            messages[engine] = str(exc.value)
        assert messages["reference"] == messages["superblock"]


class TestNoSilentFallbacks:
    def test_builder_failure_propagates(self, monkeypatch):
        """A specializer crash is a bug: it must fail loudly instead of
        degrading to the generic dispatcher closure.  "Cannot
        specialize" is an explicit ``None`` return, not an exception."""
        def boom(inst):
            raise RuntimeError("specializer bug")

        monkeypatch.setattr(prepared, "_build_vector", boom)
        clear_prepared_cache()
        source = ADD.format(imm=5)
        with pytest.raises(RuntimeError, match="specializer bug"):
            _run_add(_device("superblock"), assemble(source))
