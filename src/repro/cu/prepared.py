"""Prepared execution plans: the pipeline's trimmed hot path.

An interpreting issue loop (like the verify-only spec loop,
:mod:`repro.verify.spec`) re-classifies every instruction at every
issue -- dictionary lookups on the mnemonic, operand-code decoding in
:meth:`Wavefront.read_scalar`.  None of that work depends on anything but the *instruction
encoding*, which is immutable once a :class:`~repro.asm.program.Program`
is decoded.

A :class:`PreparedProgram` hoists all of it to once-per-program cost:

* every instruction becomes an :class:`InstPlan` carrying its
  pre-classified kind, its static front-end cost and unit occupancy
  (rows of the program's :class:`~repro.cu.timing.TimingTable`) and
  the index of its unit's pool;
* every executor is generated once, by
  :func:`repro.cu.superblock.build_superblocks`, into one module per
  program (kept on :attr:`PreparedProgram.source` for inspection): the
  ALU specializer writes the ALU plans' executors, the LSU's memory
  emitter (:func:`repro.cu.lsu.emit_memory`) the memory plans', which
  also carry their static timing query and transaction count.  Both
  use the program facts (:mod:`repro.cu.facts`) the module records on
  :attr:`PreparedProgram.facts`.  The issue loop calls the memory
  plans' executors; the spec loop calls the same emitter's executors
  written without facts -- the LSU has no other copy of its semantics;
* plans are looked up by PC through a plain dict, replacing
  ``index_of_address`` + list indexing;
* prepared programs are memoized in an LRU keyed on
  :meth:`~repro.asm.program.Program.content_key` alone (the costs are
  the constants of :mod:`repro.cu.timing`, so nothing else selects a
  plan), so repeat launches of the same binary (service jobs, fuzz
  replays, benchmark repeats) skip the whole preparation.

Exactness contract: an ALU plan's executor must be *observationally
identical* to ``operations.execute`` on the same instruction -- same
register effects, same exceptions at the same point.  Any shape the
specializer cannot prove it reproduces runs the generic dispatcher, so
the compiled path is never wrong, merely (rarely) not fast.  The
``spec`` oracle in :mod:`repro.verify` and the scalar/vector
conformance matrices enforce the contract bit-for-bit; the LSU matrix
(``tests/cu/test_lsu_conformance.py``) pins the memory executors to a
one-address-at-a-time model.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..errors import TrimmedInstructionError
from .superblock import build_superblocks
from .timing import (KIND_ALU, KIND_BARRIER, KIND_ENDPGM,  # noqa: F401
                     KIND_MEMORY, KIND_WAITCNT, POOL_INDEX, get_timing_table)


class InstPlan:
    """Per-instruction precomputation consumed by the issue loop.

    Kind, front-end cost and static occupancy are read straight out of
    the program's :class:`~repro.cu.timing.TimingTable` row; ``pool``
    indexes ``ComputeUnit.pools``.  The plan adds what the table cannot
    hold -- the executors, bound by
    :func:`~repro.cu.superblock.build_superblocks`: ``exec_fn(wf)`` for
    ALU plans, ``mem_fn(wf, gm)`` for memory plans.  A memory plan's
    ``mem_timing`` is its :mod:`~repro.cu.lsu` timing query and its
    ``occupancy`` the table's base LSU period times its static
    transaction count.
    """

    __slots__ = ("index", "address", "name", "pool", "unit_name", "kind",
                 "fe_cost", "occupancy", "pc_step", "simm16", "exec_fn",
                 "mem_fn", "mem_timing", "inst", "specialized")

    def __init__(self, inst, index, table):
        sp = inst.spec
        self.index = index
        self.address = inst.address
        self.name = sp.name
        self.pool = POOL_INDEX[sp.unit]
        self.unit_name = sp.unit.value
        self.kind = table.kinds[index]
        self.fe_cost = table.fe_costs[index]
        self.occupancy = table.occupancies[index]
        self.pc_step = inst.words * 4
        self.simm16 = inst.fields["simm16"] if self.kind == KIND_WAITCNT \
            else 0
        self.exec_fn = None
        self.mem_fn = None
        self.mem_timing = None
        self.inst = inst
        #: True when the executor is emitted: not the generic ALU
        #: dispatcher, nor a memory encoding that always raises.
        self.specialized = False


# ---------------------------------------------------------------------------
# Prepared programs and the content-keyed cache.
# ---------------------------------------------------------------------------

class PreparedProgram:
    """Execution plans for one program.

    Carries the program's :class:`~repro.cu.timing.TimingTable` (the
    static cost columns, shared through its own content-keyed LRU) next
    to the plans that bind executors to those rows, and the generated
    module's ``source``.
    """

    __slots__ = ("program", "table", "plans", "by_address", "source",
                 "facts", "_restrictions", "__weakref__")

    def __init__(self, program):
        self.program = program
        self.table = get_timing_table(program)
        self.plans = [InstPlan(inst, i, self.table)
                      for i, inst in enumerate(program.instructions)]
        self.by_address = {plan.address: plan for plan in self.plans}
        self.source, self.facts = build_superblocks(self)
        self._restrictions = {}

    def restrictions(self, cu):
        """Addresses whose instructions fail ``cu._check_supported``.

        Returns ``None`` when every instruction is admissible (the
        common case -- the issue loop then skips the check entirely), or
        a frozenset of byte addresses that must go through the full
        check (and raise) at issue time.
        """
        key = (cu.supported, cu.num_simd == 0, cu.num_simf == 0)
        cached = self._restrictions.get(key)
        if cached is None:
            bad = set()
            for plan in self.plans:
                try:
                    cu._check_supported(plan.inst)
                except TrimmedInstructionError:
                    bad.add(plan.address)
            cached = frozenset(bad) if bad else False
            self._restrictions[key] = cached
        return cached or None


PREPARED_CACHE_CAPACITY = 128

_cache_lock = threading.Lock()
_cache = OrderedDict()
_cache_hits = 0
_cache_misses = 0


def lookup_prepared(program):
    """Return ``(PreparedProgram, hit)`` for a program, keyed on
    ``program.content_key()``.

    Programs without a :meth:`content_key` (ad-hoc stand-ins in tests)
    are prepared uncached.
    """
    global _cache_hits, _cache_misses
    key_fn = getattr(program, "content_key", None)
    if key_fn is None:
        return PreparedProgram(program), False
    key = key_fn()
    with _cache_lock:
        prepared = _cache.get(key)
        if prepared is not None:
            _cache.move_to_end(key)
            _cache_hits += 1
            return prepared, True
        _cache_misses += 1
    prepared = PreparedProgram(program)
    with _cache_lock:
        existing = _cache.get(key)
        if existing is not None:
            _cache.move_to_end(key)
            return existing, True
        _cache[key] = prepared
        while len(_cache) > PREPARED_CACHE_CAPACITY:
            _cache.popitem(last=False)
    return prepared, False


def get_prepared(program):
    """The cached :class:`PreparedProgram` for a program."""
    return lookup_prepared(program)[0]


def prepared_cache_stats():
    with _cache_lock:
        return {"hits": _cache_hits, "misses": _cache_misses,
                "size": len(_cache), "capacity": PREPARED_CACHE_CAPACITY}


def prepared_cache_keys():
    """Content keys of the cached entries, LRU-first (tests)."""
    with _cache_lock:
        return list(_cache)


def clear_prepared_cache():
    global _cache_hits, _cache_misses
    with _cache_lock:
        _cache.clear()
        _cache_hits = 0
        _cache_misses = 0


def set_prepared_cache_capacity(capacity):
    """Override the LRU capacity; returns the previous value (tests)."""
    global PREPARED_CACHE_CAPACITY
    with _cache_lock:
        previous = PREPARED_CACHE_CAPACITY
        PREPARED_CACHE_CAPACITY = capacity
        while len(_cache) > PREPARED_CACHE_CAPACITY:
            _cache.popitem(last=False)
    return previous
