"""The service's binary key is the prepared-program cache's key."""

from repro.asm import assemble
from repro.service.cache import binary_key

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
    def test_binary_key_is_the_content_key(self):
        program = assemble(KERNEL)
        assert binary_key(program) == program.content_key()

    def test_cosmetic_edit_shares_key(self):
        assert binary_key(assemble(KERNEL)) == \
            binary_key(assemble(KERNEL + "\n; cosmetic\n"))
