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
**compiled timing layer** shared by the CU issue loop and the verify
spec loop:

* :class:`TimingTable` -- per-program rows of front-end cost, unit
  occupancy and kind, computed once per program content key and
  cached in an LRU, so no loop re-derives costs per dynamic
  instruction;
* :class:`UnitPool` -- the one occupancy-pool scheduler primitive.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..errors import SimulationError
from ..isa.categories import FunctionalUnit, OpCategory

#: Work-items per wavefront / physical SIMD lanes per VALU block.
VECTOR_PASSES = 64 // 16


# The cost laws of the MIAOW2.0 compute-unit stages (50 MHz domain).
# Trimming changes which units exist and how many, never what a stage
# costs, so these are constants.

#: Front-end (fetch+decode+issue) occupancy of a one-word encoding.
FRONTEND_CYCLES = 1
#: Extra front-end cycles for a two-fetch (64-bit/literal) encoding.
SECOND_FETCH_CYCLES = 1
#: SALU occupancy per scalar op.
SALU_CYCLES = 1
#: Branch unit occupancy.
BRANCH_CYCLES = 1
#: Cycles per pass of a simple integer vector op.
INT_PASS_CYCLES = 1
#: Cycles per pass of an integer multiply (soft DSP cascade).
INT_MUL_PASS_CYCLES = 3
#: Cycles per pass of a floating-point add/compare/convert (the soft
#: FPU's normalise/round pipeline is several cycles deep and not fully
#: pipelined in the FPGA mapping).
FP_PASS_CYCLES = 2
#: Cycles per pass of a floating-point multiply/MAC.
FP_MUL_PASS_CYCLES = 3
#: Rate penalty of quarter-rate (trans/div) vector ops.
TRANS_MULTIPLIER = 4
#: LSU address-calculation occupancy per memory transaction.
LSU_CYCLES = 1
#: Cycles to drain the pipeline when a wavefront ends (epilogue).
ENDPGM_CYCLES = 4


def frontend_cost(inst):
    """Front-end cycles for an instruction (1 or 2 fetches)."""
    if inst.words > 1:
        return FRONTEND_CYCLES + SECOND_FETCH_CYCLES
    return FRONTEND_CYCLES


def unit_occupancy(inst):
    """Occupancy, in cycles, of the instruction's execution unit.

    For a memory instruction this is the base (one-transaction) LSU
    period; :func:`repro.cu.superblock.build_superblocks` multiplies a
    memory plan's occupancy by its static transaction count (SMRD
    dwordx2/x4, multi-dword MUBUF) once, at emit time.
    """
    unit = inst.spec.unit
    if unit is FunctionalUnit.SALU:
        return SALU_CYCLES
    if unit is FunctionalUnit.BRANCH:
        return BRANCH_CYCLES
    if unit is FunctionalUnit.LSU:
        return LSU_CYCLES
    spec = inst.spec
    if spec.dtype.is_float:
        per_pass = (FP_MUL_PASS_CYCLES if spec.category is OpCategory.MUL
                    else FP_PASS_CYCLES)
    else:
        per_pass = (INT_MUL_PASS_CYCLES if spec.category is OpCategory.MUL
                    else INT_PASS_CYCLES)
    cycles = VECTOR_PASSES * per_pass
    if spec.trans_rate:
        cycles *= TRANS_MULTIPLIER
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


#: The functional units with an occupancy pool, in pool-list order:
#: ``ComputeUnit.pools[POOL_INDEX[unit]]`` is ``unit``'s pool, and
#: prepared plans carry the index (a list lookup, not an Enum hash).
POOL_UNITS = (FunctionalUnit.SALU, FunctionalUnit.BRANCH,
              FunctionalUnit.SIMD, FunctionalUnit.SIMF, FunctionalUnit.LSU)
POOL_INDEX = {unit: index for index, unit in enumerate(POOL_UNITS)}


class UnitPool:
    """N interchangeable instances of one functional-unit type.

    The single occupancy-scheduler primitive of the simulator: the
    pipeline's pool list holds these.  The issue loop inlines the
    single-instance case on :attr:`busy_until` and adds the occupancy
    to ``busy_cycles`` itself; multi-instance pools go through
    :meth:`acquire`.
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
        busy = self.busy_until
        idx = busy.index(min(busy))
        start = max(now, busy[idx])
        done = start + occupancy
        busy[idx] = done
        self.busy_cycles += occupancy
        return done


# ---------------------------------------------------------------------------
# Per-program timing tables.
# ---------------------------------------------------------------------------

class TimingTable:
    """Static per-program timing rows, one per instruction.

    ``fe_costs`` / ``occupancies`` / ``kinds`` are tuples of plain
    Python ints: the hot issue loops index them directly, and no NumPy
    scalar can leak into cycle arithmetic or JSON payloads.

    ``occupancies`` holds the *static* occupancy: the full unit
    occupancy for ALU/branch rows and the base (single-transaction) LSU
    period for memory rows -- each memory plan multiplies it by its
    static transaction count when it is emitted.  Rows for ``s_endpgm`` /
    ``s_barrier`` / ``s_waitcnt`` carry occupancy 0: they never touch a
    unit pool.
    """

    __slots__ = ("fe_costs", "occupancies", "kinds")

    def __init__(self, program):
        fe_costs, occupancies, kinds = [], [], []
        for inst in program.instructions:
            sp = inst.spec
            name = sp.name
            occupancy = 0
            if name == "s_endpgm":
                kind = KIND_ENDPGM
            elif name == "s_barrier":
                kind = KIND_BARRIER
            elif name == "s_waitcnt":
                kind = KIND_WAITCNT
            elif sp.is_memory:
                kind = KIND_MEMORY
                occupancy = LSU_CYCLES
            else:
                kind = KIND_ALU
                occupancy = unit_occupancy(inst)
            fe_costs.append(frontend_cost(inst))
            occupancies.append(occupancy)
            kinds.append(kind)
        self.fe_costs = tuple(fe_costs)
        self.occupancies = tuple(occupancies)
        self.kinds = tuple(kinds)

    def __len__(self):
        return len(self.fe_costs)


TIMING_TABLE_CACHE_CAPACITY = 128

_table_lock = threading.Lock()
_tables = OrderedDict()
_table_hits = 0
_table_misses = 0


def lookup_timing_table(program):
    """Return ``(TimingTable, hit)`` for a program.

    Keyed on ``program.content_key()`` exactly like the prepared-
    program LRU it sits alongside (``PreparedProgram`` construction
    pulls its plan costs from here, so a service-warmed program shares
    one table across every worker).  Programs without a
    :meth:`content_key` (ad-hoc stand-ins in tests) are built uncached.
    """
    global _table_hits, _table_misses
    key_fn = getattr(program, "content_key", None)
    if key_fn is None:
        return TimingTable(program), False
    key = key_fn()
    with _table_lock:
        table = _tables.get(key)
        if table is not None:
            _tables.move_to_end(key)
            _table_hits += 1
            return table, True
        _table_misses += 1
    table = TimingTable(program)
    with _table_lock:
        existing = _tables.get(key)
        if existing is not None:
            _tables.move_to_end(key)
            return existing, True
        _tables[key] = table
        while len(_tables) > TIMING_TABLE_CACHE_CAPACITY:
            _tables.popitem(last=False)
    return table, False


def get_timing_table(program):
    """The cached :class:`TimingTable` for a program."""
    return lookup_timing_table(program)[0]


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
