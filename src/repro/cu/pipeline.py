"""The MIAOW2.0 compute-unit pipeline simulator.

Implements the seven-stage pipeline of Figure 2 as an event-timed
model: Fetch (round-robin over resident wavefronts), Decode (classify
+ register translation, one instruction per cycle, two fetches for
64-bit encodings), Issue (scoreboard: in-order per wavefront,
barrier/halt handled immediately), Schedule/Execute (SALU, SIMD and
SIMF pools, LSU) and Write-back.

Trimming enforcement lives here: a :class:`ComputeUnit` built from a
trimmed architecture carries the surviving instruction set and raises
:class:`~repro.errors.TrimmedInstructionError` if a kernel executes
anything that was scratched -- the safety property that makes
"removal of unused resources does not affect execution" (Section 3.2)
checkable rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SimulationError, TrimmedInstructionError
from ..isa.categories import FunctionalUnit
from ..isa.registers import MAX_WAVEFRONTS
from ..obs.events import (STALL_CAUSES, InstructionIssue, Span, Stall,
                          WavefrontStep)
from . import lsu, operations
from .prepared import get_prepared
from .timing import (KIND_ALU, KIND_ENDPGM, KIND_MEMORY, KIND_WAITCNT,
                     DEFAULT_TIMING, UnitPool, get_timing_table)

_WAITCNT_VM_MASK = 0xF
_WAITCNT_LGKM_SHIFT = 8
_WAITCNT_LGKM_MASK = 0x1F


@dataclass
class CuRunStats:
    """Cycle and instruction accounting for one workgroup execution.

    ``cycles`` is the workgroup's elapsed execution time; a merged
    stats object (one kernel launch) therefore holds the *sum* of
    per-workgroup busy cycles, which exceeds the launch makespan when
    workgroups overlap across compute units.

    Both issue loops fill every field -- they are free-running
    aggregates, like the FPGA's activity registers, and the
    :class:`~repro.obs.counters.PerfCounters` taxonomy is built from
    them without observing the run:

    * ``active_cycles`` -- front-end busy cycles (each issue's
      front-end cost);
    * ``stalls`` -- front-end idle cycles by cause (the
      :data:`~repro.obs.events.STALL_CAUSES`, ``drain`` being the tail
      after a workgroup's last issue); causes that never idled are
      absent, so ``active_cycles + sum(stalls)`` equals ``cycles``;
    * ``workgroups`` / ``peak_wavefronts`` -- workgroups executed and
      the largest one's wavefront count;
    * ``cu_cycles`` / ``cu_workgroups`` -- ``cycles`` and
      ``workgroups`` keyed by compute-unit index.
    """

    cycles: float = 0.0
    instructions: int = 0
    per_unit: dict = field(default_factory=dict)
    per_name: dict = field(default_factory=dict)
    memory_accesses: int = 0
    wavefronts: int = 0
    active_cycles: int = 0
    stalls: dict = field(default_factory=dict)
    workgroups: int = 0
    peak_wavefronts: int = 0
    cu_cycles: dict = field(default_factory=dict)
    cu_workgroups: dict = field(default_factory=dict)

    def merge(self, other):
        self.cycles += other.cycles
        self.instructions += other.instructions
        self.memory_accesses += other.memory_accesses
        self.wavefronts += other.wavefronts
        self.active_cycles += other.active_cycles
        self.workgroups += other.workgroups
        if other.peak_wavefronts > self.peak_wavefronts:
            self.peak_wavefronts = other.peak_wavefronts
        for mine, theirs in ((self.per_unit, other.per_unit),
                             (self.per_name, other.per_name),
                             (self.stalls, other.stalls),
                             (self.cu_cycles, other.cu_cycles),
                             (self.cu_workgroups, other.cu_workgroups)):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value

    def _close(self, cu_index, wavefronts, start_time, decode_free,
               end_time, stalls):
        """Fill the per-workgroup fields at the end of one run."""
        if end_time > decode_free:
            # Tail after the last issue: outstanding memory plus the
            # endpgm epilogue draining the pipe.
            stalls["drain"] = stalls.get("drain", 0) + (end_time - decode_free)
        self.cycles = end_time - start_time
        self.stalls = {cause: idle for cause, idle in stalls.items() if idle}
        self.wavefronts = wavefronts
        self.workgroups = 1
        self.peak_wavefronts = wavefronts
        self.cu_cycles = {cu_index: self.cycles}
        self.cu_workgroups = {cu_index: 1}


class ComputeUnit:
    """One MIAOW2.0 compute unit.

    Parameters
    ----------
    memory:
        The shared :class:`~repro.mem.system.MemorySystem`.
    cu_index:
        Index into the memory system's per-CU prefetch buffers.
    num_simd / num_simf:
        Integer and floating-point VALU block counts.  The baseline CU
        has one of each; trimming may remove the SIMF entirely and the
        parallelism planner may replicate either (Figure 6's last two
        columns).
    supported:
        ``None`` for the full 156-instruction decode, or the surviving
        mnemonic set of a trimmed architecture.
    max_instructions:
        Safety valve against runaway kernels.
    """

    def __init__(self, memory, cu_index=0, num_simd=1, num_simf=1,
                 supported=None, timing=DEFAULT_TIMING,
                 max_wavefronts=MAX_WAVEFRONTS, max_instructions=200_000_000):
        self.memory = memory
        self.cu_index = cu_index
        self.supported = frozenset(supported) if supported is not None else None
        self.timing = timing
        self.max_wavefronts = max_wavefronts
        self.max_instructions = max_instructions
        self.pools = {
            FunctionalUnit.SALU: UnitPool(1),
            FunctionalUnit.BRANCH: UnitPool(1),
            FunctionalUnit.SIMD: UnitPool(num_simd),
            FunctionalUnit.SIMF: UnitPool(num_simf),
            FunctionalUnit.LSU: UnitPool(1),
        }
        self.num_simd = num_simd
        self.num_simf = num_simf
        #: Observation slot: ``None`` (the common case -- every hook
        #: point is a single ``is not None`` guard, so unobserved runs
        #: pay nothing) or the board's
        #: :class:`~repro.obs.observer.ObserverHub`, installed by
        #: ``SoftGpu.attach`` / ``Gpu.attach``.
        self.obs = None

    def reset_occupancy(self):
        """Clear functional-unit occupancy (absolute timeline times).

        Must accompany any board-timeline rewind: ``busy_until`` holds
        absolute cycle numbers, so a reset timeline would otherwise see
        phantom occupancy from the previous run.
        """
        for pool in self.pools.values():
            pool.reset()

    # ------------------------------------------------------------------

    def _check_supported(self, inst):
        sp = inst.spec
        if not sp.implemented:
            raise TrimmedInstructionError(
                sp.name, "not implemented in MIAOW2.0 (characterisation superset)"
            )
        if self.supported is not None and sp.name not in self.supported:
            raise TrimmedInstructionError(sp.name, sp.unit.value)
        if sp.unit is FunctionalUnit.SIMF and self.num_simf == 0:
            raise TrimmedInstructionError(sp.name, "SIMF removed")
        if sp.unit is FunctionalUnit.SIMD and self.num_simd == 0:
            raise TrimmedInstructionError(sp.name, "SIMD removed")

    @staticmethod
    def _waitcnt_target(wf, simm16, now):
        """Earliest time the waitcnt's count conditions are satisfied."""

        def settle(outstanding, allowed):
            if len(outstanding) <= allowed:
                return 0.0
            ordered = sorted(outstanding)
            return ordered[len(outstanding) - allowed - 1]

        vm_allowed = simm16 & _WAITCNT_VM_MASK
        lgkm_allowed = (simm16 >> _WAITCNT_LGKM_SHIFT) & _WAITCNT_LGKM_MASK
        ready = max(now, settle(wf.outstanding_vm, vm_allowed),
                    settle(wf.outstanding_lgkm, lgkm_allowed))
        wf.outstanding_vm = [t for t in wf.outstanding_vm if t > ready]
        wf.outstanding_lgkm = [t for t in wf.outstanding_lgkm if t > ready]
        return ready

    # ------------------------------------------------------------------

    def run_workgroup(self, workgroup, start_time=0.0, compiled=None):
        """Execute one workgroup's wavefronts to completion.

        Returns ``(end_time, CuRunStats)``.  The wavefronts must already
        be register-initialised by the ultra-threaded dispatcher.

        ``compiled=None`` runs the compiled issue loop exactly when no
        observer is attached, the rule a board launch applies per
        slice (:attr:`repro.soc.gpu.Gpu.issue_loop`); ``False`` forces the
        reference interpreter, which the per-instruction validation
        sweep uses to exercise the live operations tables.  The
        compiled loop produces bit-identical state, cycle counts and
        stats -- the ``superblock`` and ``counters`` oracles enforce
        this -- but emits no observation events, so an attached
        observer always gets the reference loop.
        """
        wavefronts = [wf for wf in workgroup.wavefronts if not wf.done]
        if len(wavefronts) > self.max_wavefronts:
            raise SimulationError(
                "workgroup needs {} wavefronts; the CU supports {}".format(
                    len(wavefronts), self.max_wavefronts
                )
            )
        if compiled is None:
            compiled = self.obs is None
        if compiled and self.obs is None and wavefronts:
            program = wavefronts[0].program
            if all(wf.program is program for wf in wavefronts):
                return self._run_compiled(workgroup, start_time, wavefronts)
        return self._run_reference(workgroup, start_time, wavefronts)

    def _run_reference(self, workgroup, start_time, wavefronts):
        stats = CuRunStats()
        stalls = {}
        active = 0
        obs = self.obs
        # Static cost columns, one table per distinct program (the
        # reference loop, unlike the compiled loop, allows mixed-program
        # wavefronts).  The rows are exactly frontend_cost /
        # unit_occupancy per instruction, so timing is unchanged.
        tables = {}
        for wf in wavefronts:
            wf.ready_at = start_time
            wf.stall_cause = "operand-dep"
            if id(wf.program) not in tables:
                tables[id(wf.program)] = get_timing_table(
                    wf.program, self.timing)
        decode_free = start_time
        finish_time = start_time
        barrier_waiters = []
        issued = 0
        rr = 0  # round-robin tie-break rotation

        live = list(wavefronts)
        while live:
            # -- pick the next wavefront: earliest-ready, round-robin ties
            candidates = [wf for wf in live if not wf.at_barrier]
            if not candidates:
                raise SimulationError(
                    "barrier deadlock: every live wavefront is waiting"
                )
            best, best_key = None, None
            n = len(candidates)
            for j in range(n):
                wf = candidates[(rr + j) % n]
                key = wf.ready_at
                if best is None or key < best_key:
                    best, best_key = wf, key
            rr += 1
            wf = best

            table = tables[id(wf.program)]
            index = wf.program.index_of_address(wf.pc)
            inst = wf.program.instructions[index]
            self._check_supported(inst)

            issued += 1
            if issued > self.max_instructions:
                raise SimulationError(
                    "instruction budget exceeded (kernel stuck in a loop?)"
                )
            start = max(wf.ready_at, decode_free)
            fe_cost = table.fe_costs[index]
            active += fe_cost
            if start > decode_free:
                # The issue slot idled for (start - decode_free) cycles
                # waiting on this wavefront; attribute the gap to
                # whatever last deferred its ready time.
                cause = wf.stall_cause
                stalls[cause] = stalls.get(cause, 0) + (start - decode_free)
                if obs is not None:
                    obs.emit_stall(Stall(
                        cycle=decode_free, cu_index=self.cu_index,
                        wf_id=wf.wf_id, cause=cause,
                        cycles=start - decode_free))
            if obs is not None:
                obs.emit_issue(InstructionIssue(
                    cycle=start, cu_index=self.cu_index, wf_id=wf.wf_id,
                    address=inst.address, name=inst.spec.name,
                    unit=inst.spec.unit.value, frontend_cycles=fe_cost))
            fe_done = start + fe_cost
            decode_free = fe_done
            wf.pc += inst.words * 4
            wf.instructions_executed += 1
            stats.instructions += 1
            unit_name = inst.spec.unit.value
            stats.per_unit[unit_name] = stats.per_unit.get(unit_name, 0) + 1
            stats.per_name[inst.spec.name] = stats.per_name.get(inst.spec.name, 0) + 1

            name = inst.spec.name
            if name == "s_endpgm":
                wf.done = True
                end = fe_done + self.timing.endpgm_cycles
                finish_time = max(finish_time, end,
                                  *(wf.outstanding_vm or [0.0]),
                                  *(wf.outstanding_lgkm or [0.0]))
                live.remove(wf)
                # A barrier can now be releasable if this wavefront
                # exited before reaching it.
                self._try_release_barrier(workgroup, barrier_waiters)
                if obs is not None:
                    obs.emit_step(WavefrontStep(
                        cycle=fe_done, cu_index=self.cu_index, wf=wf,
                        inst=inst))
                continue
            if name == "s_barrier":
                wf.at_barrier = True
                wf.ready_at = fe_done
                barrier_waiters.append(wf)
                if workgroup.arrive_at_barrier():
                    self._release(workgroup, barrier_waiters)
                if obs is not None:
                    obs.emit_step(WavefrontStep(
                        cycle=fe_done, cu_index=self.cu_index, wf=wf,
                        inst=inst))
                continue
            if name == "s_waitcnt":
                wf.ready_at = self._waitcnt_target(
                    wf, inst.fields["simm16"], fe_done)
                # The cause string must track every deferral, observed
                # or not: the stall aggregates attribute the wavefront's
                # next issue gap to it.
                wf.stall_cause = ("memory" if wf.ready_at > fe_done
                                  else "operand-dep")
                if obs is not None:
                    obs.emit_step(WavefrontStep(
                        cycle=fe_done, cu_index=self.cu_index, wf=wf,
                        inst=inst))
                continue

            if inst.spec.is_memory:
                pool = self.pools[FunctionalUnit.LSU]
                info = lsu.execute_memory(wf, inst, self.memory)
                # Dynamic LSU pricing: the table row holds the base
                # (single-transaction) occupancy; coalescing width is
                # an explicit multiplier, not an attribute stashed on
                # the instruction.
                transactions = info.transactions
                occupancy = table.occupancies[index] * (
                    transactions if transactions > 1 else 1)
                lsu_done = pool.acquire(fe_done, occupancy)
                if info.space == "lds":
                    complete = self.memory.lds_access_time(
                        lsu_done, cu_index=self.cu_index)
                elif info.addrs is not None and info.lane_mask is not None:
                    complete = self.memory.access_time(
                        self.cu_index, lsu_done, info.addrs, info.lane_mask,
                        info.span)
                else:
                    complete = self.memory.scalar_access_time(
                        self.cu_index, lsu_done, info.addrs)
                getattr(wf, "outstanding_" + info.counter).append(complete)
                stats.memory_accesses += 1
                wf.ready_at = lsu_done
                wf.stall_cause = ("fu-busy"
                                  if lsu_done - occupancy > fe_done
                                  else "operand-dep")
                if obs is not None:
                    obs.emit_step(WavefrontStep(
                        cycle=fe_done, cu_index=self.cu_index, wf=wf,
                        inst=inst))
                continue

            # ALU / branch path.
            pool = self.pools[inst.spec.unit]
            occupancy = table.occupancies[index]
            done = pool.acquire(fe_done, occupancy)
            operations.execute(wf, inst)
            wf.ready_at = done
            finish_time = max(finish_time, done)
            # Waited on a busy unit instance vs. serialised on the
            # wavefront's own in-order result.
            wf.stall_cause = ("fu-busy" if done - occupancy > fe_done
                              else "operand-dep")
            if obs is not None:
                obs.emit_step(WavefrontStep(
                    cycle=fe_done, cu_index=self.cu_index, wf=wf, inst=inst))

        end_time = max(finish_time, decode_free)
        stats.active_cycles = active
        stats._close(self.cu_index, len(wavefronts), start_time,
                     decode_free, end_time, stalls)
        if obs is not None:
            if end_time > decode_free:
                obs.emit_stall(Stall(
                    cycle=decode_free, cu_index=self.cu_index, wf_id=-1,
                    cause="drain", cycles=end_time - decode_free))
            obs.emit_span(Span(
                kind="workgroup",
                name="wg{}".format(",".join(str(g) for g in
                                            workgroup.group_id)),
                start=start_time, end=end_time, cu_index=self.cu_index,
                meta=(("wavefronts", len(wavefronts)),
                      ("instructions", issued))))
        return end_time, stats

    def _run_compiled(self, workgroup, start_time, wavefronts):
        """Compiled issue loop: the reference loop minus all the
        per-issue reclassification, operand decoding and event guards.

        Every timing decision is computed with the same arithmetic on
        the same values as :meth:`_run_reference`; divergence in any
        bit of final state, stats or cycles is a bug (and is what the
        ``superblock`` oracle hunts for).

        Every instruction issues from its prepared plan
        (:mod:`repro.cu.prepared`; ALU executors emitted by
        :mod:`repro.cu.superblock`), so each effect lands at its own
        issue slot as in the reference.  When the architecture lacks an
        instruction of the program, that instruction's plan goes
        through the full support check, so it raises at its exact
        issue slot.
        """
        prepared = get_prepared(wavefronts[0].program, self.timing)
        bad = prepared.restrictions(self)
        by_address = prepared.by_address
        stats = CuRunStats()
        stalls = dict.fromkeys(STALL_CAUSES, 0)
        for wf in wavefronts:
            wf.ready_at = start_time
            wf.stall_cause = "operand-dep"
        decode_free = start_time
        finish_time = start_time
        barrier_waiters = []
        issued = 0
        rr = 0
        counts = [0] * len(prepared.plans)
        memory_accesses = 0
        max_instructions = self.max_instructions
        memory = self.memory
        cu_index = self.cu_index
        pools = self.pools
        lsu_pool = pools[FunctionalUnit.LSU]
        lsu_base = self.timing.lsu_cycles
        endpgm_cycles = self.timing.endpgm_cycles

        live = list(wavefronts)
        while live:
            # barrier_waiters tracks exactly the at-barrier wavefronts
            # (workgroups run once on fresh wavefronts), so the common
            # no-barrier case skips the candidate filter.
            if barrier_waiters:
                candidates = [wf for wf in live if not wf.at_barrier]
                if not candidates:
                    raise SimulationError(
                        "barrier deadlock: every live wavefront is waiting"
                    )
            else:
                candidates = live
            n = len(candidates)
            best, best_key = None, None
            for j in range(n):
                wf = candidates[(rr + j) % n]
                key = wf.ready_at
                if best is None or key < best_key:
                    best, best_key = wf, key
            rr += 1
            wf = best
            ready = wf.ready_at
            if ready > decode_free:
                # Attribute the idle issue slot to whatever deferred
                # this wavefront; operand-dep, the common cause, is
                # summed as the remainder after the loop.
                cause = wf.stall_cause
                if cause != "operand-dep":
                    stalls[cause] += ready - decode_free
                start = ready
            else:
                start = decode_free

            plan = by_address.get(wf.pc)
            if plan is None:
                wf.program.index_of_address(wf.pc)  # raises AssemblyError
                raise SimulationError(
                    "prepared program lost PC 0x{:x}".format(wf.pc))
            if bad is not None and plan.address in bad:
                self._check_supported(plan.inst)

            issued += 1
            if issued > max_instructions:
                raise SimulationError(
                    "instruction budget exceeded (kernel stuck in a loop?)"
                )
            fe_done = start + plan.fe_cost
            decode_free = fe_done
            wf.pc += plan.pc_step
            wf.instructions_executed += 1
            counts[plan.index] += 1

            kind = plan.kind
            if kind == KIND_ALU:
                pool = pools[plan.unit]
                occupancy = plan.occupancy
                busy = pool.busy_until
                if len(busy) == 1:
                    free_at = busy[0]
                    done = (fe_done if fe_done > free_at else free_at) + occupancy
                    busy[0] = done
                    pool.busy_cycles += occupancy
                else:
                    done = pool.acquire(fe_done, occupancy)
                plan.exec_fn(wf)
                wf.ready_at = done
                if done > finish_time:
                    finish_time = done
                wf.stall_cause = ("fu-busy" if done - occupancy > fe_done
                                  else "operand-dep")
            elif kind == KIND_MEMORY:
                info = plan.mem_fn(wf, plan.inst, memory)
                transactions = info.transactions
                occupancy = lsu_base * (transactions if transactions > 1 else 1)
                busy = lsu_pool.busy_until
                free_at = busy[0]
                lsu_done = (fe_done if fe_done > free_at else free_at) + occupancy
                busy[0] = lsu_done
                lsu_pool.busy_cycles += occupancy
                if info.space == "lds":
                    complete = memory.lds_access_time(lsu_done, cu_index=cu_index)
                elif info.addrs is not None and info.lane_mask is not None:
                    complete = memory.access_time(
                        cu_index, lsu_done, info.addrs, info.lane_mask,
                        info.span)
                else:
                    complete = memory.scalar_access_time(
                        cu_index, lsu_done, info.addrs)
                if info.counter == "vm":
                    wf.outstanding_vm.append(complete)
                else:
                    wf.outstanding_lgkm.append(complete)
                memory_accesses += 1
                wf.ready_at = lsu_done
                wf.stall_cause = ("fu-busy"
                                  if lsu_done - occupancy > fe_done
                                  else "operand-dep")
            elif kind == KIND_WAITCNT:
                target = self._waitcnt_target(wf, plan.simm16, fe_done)
                wf.ready_at = target
                wf.stall_cause = ("memory" if target > fe_done
                                  else "operand-dep")
            elif kind == KIND_ENDPGM:
                wf.done = True
                end = fe_done + endpgm_cycles
                finish_time = max(finish_time, end,
                                  *(wf.outstanding_vm or [0.0]),
                                  *(wf.outstanding_lgkm or [0.0]))
                live.remove(wf)
                self._try_release_barrier(workgroup, barrier_waiters)
            else:  # KIND_BARRIER
                wf.at_barrier = True
                wf.ready_at = fe_done
                barrier_waiters.append(wf)
                if workgroup.arrive_at_barrier():
                    self._release(workgroup, barrier_waiters)

        end_time = max(finish_time, decode_free)
        stats.instructions = issued
        stats.memory_accesses = memory_accesses
        per_unit = stats.per_unit
        per_name = stats.per_name
        active = 0
        for plan, count in zip(prepared.plans, counts):
            if count:
                per_unit[plan.unit_name] = per_unit.get(plan.unit_name, 0) + count
                per_name[plan.name] = per_name.get(plan.name, 0) + count
                active += count * plan.fe_cost
        stats.active_cycles = active
        # Every front-end cycle up to the last issue is busy or idle by
        # exactly one cause; operand-dep owns what no other cause
        # claimed (exact: board times are quarter-cycle multiples).
        stalls["operand-dep"] = (decode_free - start_time - active
                                 - sum(stalls.values()))
        stats._close(cu_index, len(wavefronts), start_time, decode_free,
                     end_time, stalls)
        return end_time, stats

    def _release(self, workgroup, barrier_waiters):
        release_time = max(wf.ready_at for wf in barrier_waiters)
        for wf in barrier_waiters:
            wf.at_barrier = False
            wf.ready_at = release_time + 1
            wf.stall_cause = "barrier"
        barrier_waiters.clear()
        workgroup.release_barrier()

    def _try_release_barrier(self, workgroup, barrier_waiters):
        if not barrier_waiters:
            return
        live = [wf for wf in workgroup.wavefronts if not wf.done]
        if live and all(wf.at_barrier for wf in live):
            self._release(workgroup, barrier_waiters)
