"""Execution timing model of the MIAOW2.0 compute-unit pipeline.

The simulator is *functional-first with event timing*: instruction
semantics execute eagerly, and this module prices every instruction in
CU cycles.  The model captures the properties the paper's evaluation
hinges on:

* one instruction enters Decode per CU cycle; 64-bit encodings (VOP3,
  memory formats, literal-carrying ops) need **two fetches**
  (Section 2.1.1) and therefore two front-end cycles,
* a vector instruction sweeps the 64 work-items through a 16-lane
  SIMD/SIMF block in ``64/16 = 4`` passes; quarter-rate operations
  (transcendentals, reciprocals) take four times as long,
* adding VALUs (multi-thread parallelism, Section 4.2) multiplies
  vector issue bandwidth because concurrent wavefronts occupy separate
  blocks -- this is exactly the effect Figure 7B measures,
* the in-order wavefront serialises on its own results, so a
  wavefront's next instruction issues only after the previous one's
  occupancy ends; latency is hidden *across* wavefronts, as in the
  real round-robin fetch controller.

The numbers here are per-instruction *occupancy* (initiation-to-free)
of the relevant unit, not end-to-end latency of the 7-stage pipe; the
pipeline depth itself only adds a constant epilogue per wavefront and
is irrelevant to the relative results the paper reports.

Beyond the per-instruction pricing functions, this module is the
**compiled timing layer** shared by every launch engine:

* :class:`TimingTable` -- per-program arrays of front-end cost, unit
  occupancy, pool id, kind and scheduler flags, computed once per
  ``(content_key, CuTimingParams)`` pair and cached in an LRU, so no
  engine re-derives costs per dynamic instruction;
* :class:`UnitPool` / :func:`acquire_slot` -- the one occupancy-pool
  scheduler primitive (previously duplicated between the pipeline and
  the superblock compiler);
* :func:`step_advance` -- advancement of ``(t, busy)`` over a
  superblock's static step rows, the block timing of every
  sole-candidate superblock issue.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError
from ..isa.categories import FunctionalUnit, OpCategory

#: Work-items per wavefront / physical SIMD lanes per VALU block.
VECTOR_PASSES = 64 // 16


@dataclass(frozen=True)
class CuTimingParams:
    """Cycle costs of the compute-unit stages (50 MHz domain)."""

    #: Front-end (fetch+decode+issue) occupancy of a one-word encoding.
    frontend_cycles: int = 1
    #: Extra front-end cycles for a two-fetch (64-bit/literal) encoding.
    second_fetch_cycles: int = 1
    #: SALU occupancy per scalar op.
    salu_cycles: int = 1
    #: Branch unit occupancy.
    branch_cycles: int = 1
    #: VALU passes for a full-rate vector op (64 lanes / 16-wide block).
    valu_passes: int = VECTOR_PASSES
    #: Cycles per pass of a simple integer vector op.
    int_pass_cycles: int = 1
    #: Cycles per pass of an integer multiply (soft DSP cascade).
    int_mul_pass_cycles: int = 3
    #: Cycles per pass of a floating-point add/compare/convert (the
    #: soft FPU's normalise/round pipeline is several cycles deep and
    #: not fully pipelined in the FPGA mapping).
    fp_pass_cycles: int = 2
    #: Cycles per pass of a floating-point multiply/MAC.
    fp_mul_pass_cycles: int = 3
    #: Rate penalty of quarter-rate (trans/div) vector ops.
    trans_multiplier: int = 4
    #: LSU address-calculation occupancy per memory op.
    lsu_cycles: int = 1
    #: Cycles to drain the pipeline when a wavefront ends (epilogue).
    endpgm_cycles: int = 4


DEFAULT_TIMING = CuTimingParams()


def frontend_cost(inst, params=DEFAULT_TIMING):
    """Front-end cycles for an instruction (1 or 2 fetches)."""
    cost = params.frontend_cycles
    if inst.words > 1:
        cost += params.second_fetch_cycles
    return cost


def unit_occupancy(inst, params=DEFAULT_TIMING, transactions=1):
    """Occupancy, in cycles, of the instruction's execution unit.

    ``transactions`` is the access's dynamic memory-transaction count
    (SMRD dwordx2/x4, multi-dword MUBUF): the LSU stays occupied one
    base period per transaction.  It is an explicit argument -- the
    static :class:`TimingTable` stores the base occupancy and every
    issue path applies the multiplier per step.
    """
    unit = inst.spec.unit
    if unit is FunctionalUnit.SALU:
        return params.salu_cycles
    if unit is FunctionalUnit.BRANCH:
        return params.branch_cycles
    if unit is FunctionalUnit.LSU:
        return params.lsu_cycles * max(1, transactions)
    spec = inst.spec
    if spec.dtype.is_float:
        per_pass = (params.fp_mul_pass_cycles
                    if spec.category is OpCategory.MUL
                    else params.fp_pass_cycles)
    else:
        per_pass = (params.int_mul_pass_cycles
                    if spec.category is OpCategory.MUL
                    else params.int_pass_cycles)
    cycles = params.valu_passes * per_pass
    if spec.trans_rate:
        cycles *= params.trans_multiplier
    return cycles


# ---------------------------------------------------------------------------
# Instruction kinds and unit pools.
# ---------------------------------------------------------------------------

#: Scheduler-relevant instruction classes (shared with
#: :mod:`repro.cu.prepared`, which re-exports them).
KIND_ALU = 0
KIND_MEMORY = 1
KIND_ENDPGM = 2
KIND_BARRIER = 3
KIND_WAITCNT = 4

#: Unit-pool ids used by every compiled timing structure (superblock
#: ``steps`` rows, :class:`TimingTable` ``pool`` column).
POOL_SALU = 0
POOL_BRANCH = 1
POOL_SIMD = 2
POOL_SIMF = 3
POOL_LSU = 4

UNIT_POOL_ID = {
    FunctionalUnit.SALU: POOL_SALU,
    FunctionalUnit.BRANCH: POOL_BRANCH,
    FunctionalUnit.SIMD: POOL_SIMD,
    FunctionalUnit.SIMF: POOL_SIMF,
    FunctionalUnit.LSU: POOL_LSU,
}

#: Scheduler flags in :attr:`TimingTable.flags`.
FLAG_BRANCH = 1
FLAG_BARRIER = 2
FLAG_WAITCNT = 4
FLAG_ENDPGM = 8
FLAG_MEMORY = 16


class UnitPool:
    """N interchangeable instances of one functional-unit type.

    The single occupancy-scheduler primitive of the simulator: the
    pipeline's pool dict holds these, and every compiled path operates
    directly on :attr:`busy_until` (through :func:`acquire_slot` or the
    inlined single-instance arithmetic), folding ``busy_cycles`` in per
    block.
    """

    def __init__(self, count):
        self.busy_until = [0.0] * max(0, count)
        self.busy_cycles = 0.0

    def reset(self):
        self.busy_until = [0.0] * len(self.busy_until)
        self.busy_cycles = 0.0

    @property
    def count(self):
        return len(self.busy_until)

    def acquire(self, now, occupancy):
        """Schedule on the earliest-free instance; returns completion."""
        if not self.busy_until:
            raise SimulationError("no instance of this functional unit exists")
        idx = min(range(len(self.busy_until)), key=self.busy_until.__getitem__)
        start = max(now, self.busy_until[idx])
        done = start + occupancy
        self.busy_until[idx] = done
        self.busy_cycles += occupancy
        return done


def acquire_slot(busy, now, occ):
    """Multi-instance pool issue on a raw ``busy_until`` list.

    Exactly :meth:`UnitPool.acquire` minus the ``busy_cycles``
    bookkeeping, which the compiled paths fold in per block (integer
    occupancies, so the deferred sum is order-independent).
    """
    idx = min(range(len(busy)), key=busy.__getitem__)
    start = busy[idx]
    if now > start:
        start = now
    done = start + occ
    busy[idx] = done
    return done


# ---------------------------------------------------------------------------
# Per-program timing tables.
# ---------------------------------------------------------------------------

class TimingTable:
    """Static per-program timing columns, one row per instruction.

    NumPy arrays are the canonical storage (``frontend``,
    ``occupancy``, ``pool``, ``kind``, ``flags``); the matching
    ``fe_costs`` / ``occupancies`` / ``kinds`` tuples hold the same
    rows as plain Python ints for the hot issue loops, where indexing a
    tuple is cheaper than unboxing ``np.int32`` (and cannot leak NumPy
    scalars into cycle arithmetic or JSON payloads).

    ``occupancy`` is the *static* occupancy: the full unit occupancy
    for ALU/branch rows and the base (single-transaction) LSU period
    for memory rows -- the dynamic transaction count multiplies it at
    issue time, explicitly.  Rows for ``s_endpgm`` / ``s_barrier`` /
    ``s_waitcnt`` carry occupancy 0: they never touch a unit pool.
    """

    __slots__ = ("params", "frontend", "occupancy", "pool", "kind",
                 "flags", "fe_costs", "occupancies", "kinds")

    def __init__(self, program, params):
        self.params = params
        instructions = program.instructions
        n = len(instructions)
        frontend = np.zeros(n, dtype=np.int32)
        occupancy = np.zeros(n, dtype=np.int32)
        pool = np.zeros(n, dtype=np.int8)
        kind = np.zeros(n, dtype=np.int8)
        flags = np.zeros(n, dtype=np.uint8)
        for i, inst in enumerate(instructions):
            sp = inst.spec
            frontend[i] = frontend_cost(inst, params)
            pool[i] = UNIT_POOL_ID[sp.unit]
            name = sp.name
            if name == "s_endpgm":
                kind[i] = KIND_ENDPGM
                flags[i] = FLAG_ENDPGM
            elif name == "s_barrier":
                kind[i] = KIND_BARRIER
                flags[i] = FLAG_BARRIER
            elif name == "s_waitcnt":
                kind[i] = KIND_WAITCNT
                flags[i] = FLAG_WAITCNT
            elif sp.is_memory:
                kind[i] = KIND_MEMORY
                flags[i] = FLAG_MEMORY
                occupancy[i] = params.lsu_cycles
            else:
                kind[i] = KIND_ALU
                occupancy[i] = unit_occupancy(inst, params)
                if sp.unit is FunctionalUnit.BRANCH:
                    flags[i] = FLAG_BRANCH
        for arr in (frontend, occupancy, pool, kind, flags):
            arr.setflags(write=False)
        self.frontend = frontend
        self.occupancy = occupancy
        self.pool = pool
        self.kind = kind
        self.flags = flags
        self.fe_costs = tuple(int(c) for c in frontend)
        self.occupancies = tuple(int(c) for c in occupancy)
        self.kinds = tuple(int(c) for c in kind)

    def __len__(self):
        return len(self.fe_costs)


TIMING_TABLE_CACHE_CAPACITY = 128

_table_lock = threading.Lock()
_tables = OrderedDict()
_table_hits = 0
_table_misses = 0


def lookup_timing_table(program, params=DEFAULT_TIMING):
    """Return ``(TimingTable, hit)`` for a program/params pair.

    Keyed ``(content_key, CuTimingParams)`` exactly like the prepared-
    program LRU it sits alongside (``PreparedProgram`` construction
    pulls its plan costs from here, so a service-warmed program shares
    one table across every worker).  Programs without a
    :meth:`content_key` (ad-hoc stand-ins in tests) are built uncached.
    """
    global _table_hits, _table_misses
    key_fn = getattr(program, "content_key", None)
    if key_fn is None:
        return TimingTable(program, params), False
    key = (key_fn(), params)
    with _table_lock:
        table = _tables.get(key)
        if table is not None:
            _tables.move_to_end(key)
            _table_hits += 1
            return table, True
        _table_misses += 1
    table = TimingTable(program, params)
    with _table_lock:
        existing = _tables.get(key)
        if existing is not None:
            _tables.move_to_end(key)
            return existing, True
        _tables[key] = table
        while len(_tables) > TIMING_TABLE_CACHE_CAPACITY:
            _tables.popitem(last=False)
    return table, False


def get_timing_table(program, params=DEFAULT_TIMING):
    """The cached :class:`TimingTable` for a program/params pair."""
    return lookup_timing_table(program, params)[0]


def timing_table_cache_stats():
    with _table_lock:
        return {"hits": _table_hits, "misses": _table_misses,
                "size": len(_tables),
                "capacity": TIMING_TABLE_CACHE_CAPACITY}


def clear_timing_table_cache():
    global _table_hits, _table_misses
    with _table_lock:
        _tables.clear()
        _table_hits = 0
        _table_misses = 0


# ---------------------------------------------------------------------------
# Block timing.
# ---------------------------------------------------------------------------

def step_advance(steps, start, busy_lists):
    """Advance ``(fe_done, t)`` over static step rows, one per step.

    ``steps`` holds ``(frontend_cost, occupancy, pool_id)`` rows;
    ``busy_lists`` the four ALU-pool ``busy_until`` lists indexed by
    pool id.  This is the per-instruction ALU issue arithmetic of the
    compiled loop verbatim (single-instance inline, multi-instance
    through :func:`acquire_slot`), so a sole-candidate block issue
    prices exactly like the reference's instruction-by-instruction
    walk.
    """
    t = start
    fd = start
    for fe, occ, pid in steps:
        fd = t + fe
        busy = busy_lists[pid]
        if len(busy) == 1:
            b = busy[0]
            t = (fd if fd > b else b) + occ
            busy[0] = t
        else:
            t = acquire_slot(busy, fd, occ)
    return fd, t
