"""The service's application key and the prepared-program cache share
one key space: ``Program.content_key()``."""

from repro.asm import assemble
from repro.core.config import ArchConfig
from repro.cu.prepared import (clear_prepared_cache, lookup_prepared,
                               prepared_cache_keys)
from repro.service.cache import application_key

KERNEL = """
.kernel warmup
  s_buffer_load_dword s20, s[12:15], 0
  s_waitcnt lgkmcnt(0)
  v_add_i32 v3, vcc, s20, v0
  v_lshlrev_b32 v3, 2, v3
  tbuffer_store_format_x v3, v3, s[4:7], 0 offen
  s_endpgm
"""


class TestSharedKeySpace:
    def test_prepared_cache_keys_on_the_content_key(self):
        clear_prepared_cache()
        try:
            program = assemble(KERNEL)
            lookup_prepared(program)
            assert prepared_cache_keys() == [program.content_key()]
        finally:
            clear_prepared_cache()

    def test_cosmetic_edit_shares_key(self):
        a = assemble(KERNEL)
        b = assemble(KERNEL + "\n; cosmetic\n")
        assert a.content_key() == b.content_key()
        base = ArchConfig.baseline()
        assert application_key([a], base, 32) == \
            application_key([b], base, 32)
