"""The spec loop: the CU issue loop written as a plain interpreter.

:func:`run_spec` is the specification the issue loop
(:meth:`repro.cu.pipeline.ComputeUnit._run_compiled`) is checked
against.  It decodes and classifies every instruction at every issue,
reads its costs from the program's timing table and runs every ALU
instruction through :func:`repro.cu.operations.execute`, ALU semantics
written independently of the emitted plan executors.  Memory
instructions run executors of the LSU's one emitter (pinned by the LSU
conformance matrix), but emitted without program facts
(:mod:`repro.cu.facts`): a wrong uniform-address fact in the issue
loop's executors shows up as a difference here.  It emits the same
observation events in the same order: it is the spec of the event
stream too.  Only :func:`spec_execution` reaches it; no production
path does.
"""

from __future__ import annotations

import contextlib
import weakref
from operator import attrgetter

from ..cu import lsu, operations
from ..cu.lsu import MEM_SCALAR, MEM_VECTOR
from ..cu.pipeline import ComputeUnit, CuRunStats
from ..cu.prepared import KIND_MEMORY, get_prepared
from ..cu.timing import ENDPGM_CYCLES
from ..errors import SimulationError
from ..obs.events import InstructionIssue, Span, Stall, WavefrontStep

_READY = attrgetter("ready_at")

#: Prepared program -> its memory executors emitted without facts.
_FACT_FREE = weakref.WeakKeyDictionary()


def fact_free_memory(prepared):
    """Plan index -> executor of every memory plan of ``prepared``, as
    :func:`repro.cu.lsu.emit_memory` writes it with no program facts;
    compiled on first use, once per prepared program."""
    executors = _FACT_FREE.get(prepared)
    if executors is None:
        plans = [plan for plan in prepared.plans if plan.kind == KIND_MEMORY]
        source = "\n".join(lsu.emit_memory(plan.inst, "_mem%d" % plan.index)[0]
                           for plan in plans)
        ns = dict(lsu.RUNTIME)
        exec(compile(source, "<spec memory>", "exec"), ns)
        executors = _FACT_FREE[prepared] = {
            plan.index: ns["_mem%d" % plan.index] for plan in plans}
    return executors


def run_spec(cu, workgroup, start_time, wavefronts):
    """Run one workgroup on ``cu`` through the spec loop; returns
    ``(end_time, CuRunStats)`` like ``ComputeUnit.run_workgroup``,
    whose checks have already passed."""
    stats = CuRunStats()
    stalls = {}
    active = 0
    obs = cu.obs
    cu_index = cu.cu_index
    prepared = get_prepared(wavefronts[0].program)
    table = prepared.table
    memory_fns = fact_free_memory(prepared)
    for wf in wavefronts:
        wf.ready_at = start_time
        wf.stall_cause = "operand-dep"
    decode_free = finish_time = start_time
    barrier_waiters = []
    issued = 0
    rr = 0  # round-robin tie-break rotation

    live = list(wavefronts)
    while live:
        # Pick the earliest-ready wavefront, ties in round-robin order.
        candidates = [wf for wf in live if not wf.at_barrier]
        if not candidates:
            raise SimulationError(
                "barrier deadlock: every live wavefront is waiting")
        turn = rr % len(candidates)
        wf = min(candidates[turn:] + candidates[:turn], key=_READY)
        rr += 1

        index = wf.program.index_of_address(wf.pc)
        inst = wf.program.instructions[index]
        name = inst.spec.name
        cu._check_supported(inst)
        issued += 1
        if issued > cu.max_instructions:
            raise SimulationError(
                "instruction budget exceeded (kernel stuck in a loop?)")
        start = max(wf.ready_at, decode_free)
        fe_cost = table.fe_costs[index]
        active += fe_cost
        if start > decode_free:
            # The issue slot idled waiting on this wavefront; the gap
            # goes to whatever last deferred its ready time.
            cause = wf.stall_cause
            stalls[cause] = stalls.get(cause, 0) + (start - decode_free)
            if obs is not None:
                obs.emit_stall(Stall(
                    cycle=decode_free, cu_index=cu_index, wf_id=wf.wf_id,
                    cause=cause, cycles=start - decode_free))
        if obs is not None:
            obs.emit_issue(InstructionIssue(
                cycle=start, cu_index=cu_index, wf_id=wf.wf_id,
                address=inst.address, name=name,
                unit=inst.spec.unit.value, frontend_cycles=fe_cost))
        fe_done = decode_free = start + fe_cost
        wf.pc += inst.words * 4
        wf.instructions_executed += 1
        stats.instructions += 1
        unit_name = inst.spec.unit.value
        stats.per_unit[unit_name] = stats.per_unit.get(unit_name, 0) + 1
        stats.per_name[name] = stats.per_name.get(name, 0) + 1

        if name == "s_endpgm":
            wf.done = True
            finish_time = max(finish_time,
                              fe_done + ENDPGM_CYCLES,
                              *(wf.outstanding_vm or [0.0]),
                              *(wf.outstanding_lgkm or [0.0]))
            live.remove(wf)
            # A barrier can now be releasable if this wavefront
            # exited before reaching it.
            cu._try_release_barrier(workgroup, barrier_waiters)
        elif name == "s_barrier":
            wf.at_barrier = True
            wf.ready_at = fe_done
            barrier_waiters.append(wf)
            if workgroup.arrive_at_barrier():
                cu._release(workgroup, barrier_waiters)
        elif name == "s_waitcnt":
            wf.ready_at = cu._waitcnt_target(
                wf, inst.fields["simm16"], fe_done)
            wf.stall_cause = ("memory" if wf.ready_at > fe_done
                              else "operand-dep")
        elif inst.spec.is_memory:
            # The fact-free executor; the occupancy is the base LSU
            # period times the static transaction count.
            plan = prepared.plans[index]
            access = memory_fns[index](wf, cu.memory.global_mem)
            occupancy = plan.occupancy
            lsu_done = cu.pools[plan.pool].acquire(fe_done, occupancy)
            if plan.mem_timing == MEM_VECTOR:
                wf.outstanding_vm.append(cu.memory.access_time(
                    cu_index, lsu_done, access))
            elif plan.mem_timing == MEM_SCALAR:
                wf.outstanding_lgkm.append(cu.memory.access_time(
                    cu_index, lsu_done, access, scalar=True))
            else:
                wf.outstanding_lgkm.append(cu.memory.lds_access_time(
                    lsu_done, cu_index=cu_index))
            stats.memory_accesses += 1
            wf.ready_at = lsu_done
            wf.stall_cause = ("fu-busy" if lsu_done - occupancy > fe_done
                              else "operand-dep")
        else:  # ALU / branch
            occupancy = table.occupancies[index]
            done = cu.pool(inst.spec.unit).acquire(fe_done, occupancy)
            operations.execute(wf, inst)
            wf.ready_at = done
            finish_time = max(finish_time, done)
            # Waited on a busy unit instance vs. serialised on the
            # wavefront's own in-order result.
            wf.stall_cause = ("fu-busy" if done - occupancy > fe_done
                              else "operand-dep")
        if obs is not None:
            obs.emit_step(WavefrontStep(
                cycle=fe_done, cu_index=cu_index, wf=wf, inst=inst))

    end_time = max(finish_time, decode_free)
    stats.active_cycles = active
    stats._close(cu_index, len(wavefronts), start_time, decode_free,
                 end_time, stalls)
    if obs is not None:
        if end_time > decode_free:
            obs.emit_stall(Stall(
                cycle=decode_free, cu_index=cu_index, wf_id=-1,
                cause="drain", cycles=end_time - decode_free))
        obs.emit_span(Span(
            kind="workgroup",
            name="wg{}".format(",".join(map(str, workgroup.group_id))),
            start=start_time, end=end_time, cu_index=cu_index,
            meta=(("wavefronts", len(wavefronts)),
                  ("instructions", issued))))
    return end_time, stats


@contextlib.contextmanager
def spec_execution():
    """Route every :class:`~repro.cu.pipeline.ComputeUnit` workgroup
    through :func:`run_spec` for the duration of the context.

    A process-global swap of the issue loop, for differential checks
    only (the same idiom as :func:`repro.cu.vector.lanewise_execution`).
    """
    saved = ComputeUnit._run_compiled
    ComputeUnit._run_compiled = run_spec
    try:
        yield
    finally:
        ComputeUnit._run_compiled = saved
