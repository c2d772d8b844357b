"""Assembled-program container and kernel metadata.

A :class:`Program` is what AMD CodeXL hands the SCRATCH toolchain in
the paper: the kernel's Southern Islands binary plus "the detailed
information about the initial register state" (Section 2.2.2) that the
ultra-threaded dispatcher needs -- how many SGPRs/VGPRs the kernel
uses, how much LDS it needs, and the layout of its arguments in
constant buffer 1.  Our assembler produces the same bundle.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..errors import AssemblyError
from ..isa.decode import decode_program

#: Decoded-program memo: content hash of the dwords -> decode result.
#: Re-assembling or re-constructing a kernel with identical words (the
#: service's cold boards, fuzz replays, repeated CLI invocations) skips
#: ``decode_program`` entirely; the decode is a pure function of the
#: words, so sharing the instruction list is safe.
_DECODE_CACHE_CAPACITY = 256
_decode_cache = OrderedDict()
_decode_lock = threading.Lock()


def _words_digest(words):
    return hashlib.sha256(struct.pack("<{}I".format(len(words)), *words)).hexdigest()


def _decode_cached(words):
    key = _words_digest(words)
    with _decode_lock:
        cached = _decode_cache.get(key)
        if cached is not None:
            _decode_cache.move_to_end(key)
            return key, cached
    decoded = decode_program(list(words))
    with _decode_lock:
        _decode_cache[key] = decoded
        while len(_decode_cache) > _DECODE_CACHE_CAPACITY:
            _decode_cache.popitem(last=False)
    return key, decoded


@dataclass(frozen=True)
class KernelArg:
    """One kernel argument slot in constant buffer 1.

    ``kind`` is ``"buffer"`` (a global-memory offset is stored in the
    slot) or ``"scalar"`` (the value itself is stored).  ``offset`` is
    the slot's byte offset within CB1; the OpenCL ABI the paper follows
    packs arguments at 4-byte granularity.
    """

    name: str
    kind: str
    offset: int

    def __post_init__(self):
        if self.kind not in ("buffer", "scalar"):
            raise AssemblyError("bad kernel arg kind: {!r}".format(self.kind))


class Program:
    """An assembled Southern Islands kernel.

    Attributes
    ----------
    name:
        Kernel name (the ``.kernel`` directive, or ``"kernel"``).
    words:
        The binary, as a list of 32-bit dwords.
    instructions:
        The decode of ``words`` -- produced once here and shared by the
        simulator and the trimming tool.
    labels:
        label name -> byte address.
    args:
        Argument layout for constant buffer 1, in declaration order.
    sgpr_count / vgpr_count:
        Highest register index used + 1 (the dispatcher uses these to
        size per-wavefront register allocations).
    lds_size:
        Bytes of local data share the kernel declares (``.lds`` ).
    """

    def __init__(self, name, words, labels=None, args=None, sgpr_count=16,
                 vgpr_count=4, lds_size=0, source=None):
        self.name = name
        self.words = list(words)
        self.labels = dict(labels or {})
        self.args = list(args or [])
        self.sgpr_count = sgpr_count
        self.vgpr_count = vgpr_count
        self.lds_size = lds_size
        self.source = source
        self._words_key, self.instructions = _decode_cached(self.words)
        self._by_address = {inst.address: i for i, inst in enumerate(self.instructions)}
        self._content_key = None

    # -- navigation used by the simulator ---------------------------------

    def index_of_address(self, address):
        """Map a byte address (PC value) to an instruction index."""
        try:
            return self._by_address[address]
        except KeyError:
            raise AssemblyError(
                "PC 0x{:x} is not an instruction boundary in kernel {!r}".format(
                    address, self.name
                )
            ) from None

    @property
    def size_bytes(self):
        return 4 * len(self.words)

    def content_key(self):
        """Stable content hash of everything execution can depend on.

        Covers the binary words plus the dispatch metadata (argument
        layout, register counts, LDS size).  Two programs with equal
        keys behave identically on any board, which is what lets the
        service's artifact cache and the prepared-program cache share
        entries across :class:`Program` instances.
        """
        if self._content_key is None:
            digest = hashlib.sha256()
            digest.update(self.name.encode())
            digest.update(self._words_key.encode())
            digest.update(";".join(
                "{}:{}:{}".format(a.name, a.kind, a.offset) for a in self.args
            ).encode())
            digest.update("{}/{}/{}".format(
                self.sgpr_count, self.vgpr_count, self.lds_size).encode())
            self._content_key = digest.hexdigest()
        return self._content_key

    def arg(self, name):
        for a in self.args:
            if a.name == name:
                return a
        raise AssemblyError("kernel {!r} has no argument {!r}".format(self.name, name))

    # -- introspection -----------------------------------------------------

    def instruction_names(self):
        """Multiset of mnemonics, in program order (static occurrence)."""
        return [inst.spec.name for inst in self.instructions]

    def __len__(self):
        return len(self.instructions)

    def __repr__(self):
        return "Program({!r}, {} instructions, {} dwords)".format(
            self.name, len(self.instructions), len(self.words)
        )
