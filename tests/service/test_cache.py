"""Content-addressed artifact cache: key derivation + memoization."""

import pytest

from repro.asm.assembler import assemble
from repro.core.config import ArchConfig
from repro.core.trimmer import TrimmingTool
from repro.fpga.synthesis import Synthesizer
from repro.service.cache import (
    ArtifactCache,
    application_key,
    config_key,
)

KERNEL = """
.kernel demo
  s_buffer_load_dword s20, s[12:15], 0
  s_waitcnt lgkmcnt(0)
  v_add_i32 v3, vcc, s20, v0
  v_lshlrev_b32 v3, 2, v3
  tbuffer_store_format_x v3, v3, s[4:7], 0 offen
  s_endpgm
"""

#: Same program, different whitespace and comments.
KERNEL_REFORMATTED = """
.kernel demo

  s_buffer_load_dword   s20, s[12:15], 0     ; arg 0
  s_waitcnt     lgkmcnt(0)
  v_add_i32     v3, vcc, s20, v0
  v_lshlrev_b32 v3, 2, v3

  tbuffer_store_format_x v3, v3, s[4:7], 0 offen
  s_endpgm
"""

KERNEL_DIFFERENT = KERNEL.replace("v_lshlrev_b32 v3, 2, v3",
                                  "v_lshlrev_b32 v3, 3, v3")


class TestKeys:
    def test_whitespace_edit_same_content_key(self):
        """Cosmetic edits assemble to the same dwords -> same key."""
        a = assemble(KERNEL)
        b = assemble(KERNEL_REFORMATTED)
        assert a.words == b.words
        assert a.content_key() == b.content_key()

    def test_semantic_edit_changes_content_key(self):
        assert assemble(KERNEL).content_key() != \
            assemble(KERNEL_DIFFERENT).content_key()

    def test_application_key_order_independent(self):
        a, b = assemble(KERNEL), assemble(KERNEL_DIFFERENT)
        base = ArchConfig.baseline()
        assert application_key([a, b], base, 32) == \
            application_key([b, a], base, 32)

    def test_application_key_depends_on_datapath(self):
        a = assemble(KERNEL)
        base = ArchConfig.baseline()
        assert application_key([a], base, 32) != \
            application_key([a], base, 8)

    def test_config_key_ignores_label(self):
        a = ArchConfig.baseline()
        b = ArchConfig(label="renamed")
        assert config_key(a) == config_key(b)

    def test_config_key_sees_shape_and_isa(self):
        base = ArchConfig.baseline()
        assert config_key(base) != config_key(base.with_parallelism(num_cus=2))
        trimmed = ArchConfig(supported=frozenset({"s_endpgm"}), num_simd=1)
        assert config_key(base) != config_key(trimmed)


class TestMemoization:
    def test_trim_hits_across_whitespace(self):
        cache = ArtifactCache()
        tool = TrimmingTool()
        first = cache.trim([assemble(KERNEL)], tool)
        second = cache.trim([assemble(KERNEL_REFORMATTED)], tool)
        assert first is second
        assert cache.stats.hits["trim"] == 1

    def test_plan_hits_per_config_and_mode(self):
        from repro.core.parallelize import plan

        cache = ArtifactCache()
        synth = Synthesizer()
        trimmed = TrimmingTool().trim([assemble(KERNEL)]).config
        first = cache.plan(trimmed, "multithread", synth)
        assert cache.plan(trimmed, "multithread", synth) is first
        assert first == plan(trimmed, "multithread", synthesizer=synth)
        multicore = cache.plan(trimmed, "multicore", synth)
        assert config_key(multicore) != config_key(first)
        assert cache.stats.hits["plan"] == 1
        assert cache.stats.misses["plan"] == 2

    def test_synthesize_hits(self):
        cache = ArtifactCache()
        synth = Synthesizer()
        first = cache.synthesize(ArchConfig.baseline(), synth)
        second = cache.synthesize(ArchConfig.baseline(), synth)
        assert first is second
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_clear(self):
        cache = ArtifactCache()
        cache.synthesize(ArchConfig.baseline(), Synthesizer())
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.total_hits == 0
