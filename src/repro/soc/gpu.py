"""The complete MIAOW2.0 FPGA system: CUs + MicroBlaze + memory.

Mirrors Figure 2's system diagram: N compute units behind an AXI
interconnect, the MicroBlaze acting as host and ultra-threaded
dispatcher, the MIG-fronted DDR3 global memory, and (for DCD+PM
configurations) a BRAM prefetch buffer per CU.

The whole board shares **one timeline**, kept in CU-domain cycles.
MicroBlaze work (host phases, workgroup dispatch, prefetch preloading)
is converted through the clock ratio, so moving the MicroBlaze to
200 MHz (the DCD design) speeds those phases up by 4x on this
timeline, which is precisely the paper's first optimisation.

Workgroups are distributed to the earliest-free CU, one dispatch at a
time (the dispatcher is a single soft core).  For large NDRanges the
``max_groups`` option executes a sample of workgroups and linearly
extrapolates the makespan -- an SPMD-homogeneity shortcut used by the
Figure 7 parameter sweeps; correctness-checking runs always execute
everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.config import ArchConfig
from ..cu.pipeline import ComputeUnit, CuRunStats
from ..errors import LaunchError, LaunchPreempted
from ..mem.system import MemorySystem
from ..obs.counters import aggregate_counters
from ..obs.events import Span
from ..obs.observer import ObserverHub
from .clocks import DUAL_DOMAIN, SINGLE_DOMAIN
from .dispatcher import Dispatcher, LaunchGeometry
from .microblaze import MicroBlaze

#: Fixed memory map of the board image.
CB0_BASE = 0x100
CB1_BASE = 0x200
CB1_SIZE = 0x100
HEAP_BASE = 0x1000

#: MicroBlaze cycles per 32-bit word when preloading the prefetch BRAM.
PRELOAD_MB_CYCLES_PER_WORD = 2.0


#: The two CU issue loops a launch slice can run, named on
#: :attr:`LaunchResult.engine`.  Observation picks the loop: only the
#: reference interpreter emits observation events, so a slice runs it
#: exactly when an observer is attached, and the compiled superblock
#: loop (every instruction issued from its prepared plan, ALU
#: executors generated by repro.cu.superblock) otherwise.  Profiling
#: attaches no observer: both loops fill the same run aggregates
#: (:class:`BoardActivity`), which the performance counters are built
#: from.  Both produce bit-identical memory, registers, stats and
#: cycle counts -- the ``superblock`` oracle enforces it, the
#: ``counters`` oracle the counters -- and both run a multi-CU launch
#: serially, one workgroup at a time on the earliest-free CU.
REFERENCE = "reference"
SUPERBLOCK = "superblock"


def _capture_registers(workgroup, registers):
    """Record each wavefront's final architectural state under
    ``(group_id, wf_id)``."""
    for wf in workgroup.wavefronts:
        registers[(workgroup.group_id, wf.wf_id)] = {
            "sgprs": wf.sgprs.tobytes(),
            "vgprs": wf.vgprs.tobytes(),
            "vcc": wf.vcc,
            "exec": wf.exec_mask,
            "scc": wf.scc,
        }


@dataclass
class BoardActivity:
    """The board's run aggregates over one window.

    Free-running, like the FPGA's activity registers: every launch
    slice and host operation records here whether or not an observer
    is attached, and :meth:`Gpu.activity_counters` turns the window
    into the :class:`~repro.obs.counters.PerfCounters` taxonomy.

    ``runs`` holds one :class:`CuRunStats` per launch slice run in the
    window (its workgroups merged); ``spans`` one ``(kind, start,
    end)`` interval per completed kernel launch, host phase and
    prefetch preload -- exactly the spans an attached observer would
    receive; ``memory`` is the memory system's counters when the
    window opened.
    """

    memory: dict
    runs: list = field(default_factory=list)
    spans: list = field(default_factory=list)

    def stats(self):
        """Every workgroup run in the window, merged."""
        total = CuRunStats()
        for run in self.runs:
            total.merge(run)
        return total


@dataclass
class LaunchResult:
    """Timing + accounting of one kernel launch."""

    kernel: str
    cu_cycles: float
    total_groups: int
    executed_groups: int
    stats: CuRunStats
    sampled: bool = False
    #: The issue loop that ran the launch's final slice (every slice
    #: of an unsliced launch): :data:`REFERENCE` or :data:`SUPERBLOCK`.
    engine: str = REFERENCE
    registers: object = None  # (group_id, wf_id) -> state, if collected

    @property
    def instructions(self):
        if not self.sampled:
            return self.stats.instructions
        scale = self.total_groups / max(1, self.executed_groups)
        return int(self.stats.instructions * scale)


@dataclass
class LaunchFrame:
    """The resumable state of one in-flight serial launch.

    Workgroups run to completion inside the CU model, so a launch only
    ever pauses **at workgroup boundaries** -- the frame is the
    wavefront scheduler's state between dispatches: which workgroups
    are still pending, the per-CU and dispatcher free times, the
    accumulated stats and (optionally) the architectural register
    state of every retired wavefront.  ``now`` does not advance while
    a launch is in flight, so a frame plus the board state is exactly
    what a :class:`~repro.exec.checkpoint.BoardCheckpoint` serializes.
    """

    program: object
    geometry: LaunchGeometry
    pending: list            # group ids not yet dispatched
    dispatch_cost: float     # CU-domain cycles per workgroup dispatch
    total_groups: int
    sampled: bool
    cu_free: list            # per-CU earliest-free time (absolute)
    disp_free: float         # dispatcher earliest-free time (absolute)
    end_time: float          # makespan so far (absolute)
    stats: CuRunStats
    executed_groups: int = 0
    registers: object = None  # {} when collecting, else None

    @property
    def instructions(self):
        """Instruction-count watermark: executed so far in this launch."""
        return self.stats.instructions


class Gpu:
    """One simulated board configuration, with a running timeline."""

    def __init__(self, arch=None, global_mem_size=1 << 24, prefetch_brams=928,
                 global_mem=None):
        """``global_mem`` wraps an existing
        :class:`~repro.mem.global_memory.GlobalMemory` (its size then
        overrides ``global_mem_size``): everything else -- CUs, unit
        pools, memory timing, prefetch, dispatcher, MicroBlaze -- is
        built for ``arch``.  That is how
        :meth:`~repro.runtime.device.SoftGpu.retarget` swaps the
        design while the DDR image stays in place."""
        self.arch = arch or ArchConfig.baseline()
        self.clocks = (DUAL_DOMAIN if self.arch.generation.clock_ratio > 1
                       else SINGLE_DOMAIN)
        if global_mem is not None:
            global_mem_size = global_mem.size
        self.memory = MemorySystem(
            params=self.arch.memory_timing,
            num_cus=self.arch.num_cus,
            global_size=global_mem_size,
            prefetch_brams=prefetch_brams,
            global_mem=global_mem,
        )
        self.cus = [
            ComputeUnit(
                self.memory, cu_index=i,
                num_simd=self.arch.num_simd, num_simf=self.arch.num_simf,
                supported=self.arch.supported,
            )
            for i in range(self.arch.num_cus)
        ]
        self.microblaze = MicroBlaze()
        self.dispatcher = Dispatcher(
            self.memory,
            uav_base=HEAP_BASE,
            uav_size=global_mem_size - HEAP_BASE,
            cb0_base=CB0_BASE,
            cb1_base=CB1_BASE,
            cb1_size=CB1_SIZE,
        )
        self.now = 0.0  # board timeline, CU-domain cycles
        self.total_instructions = 0
        self.launches = []
        #: The :class:`LaunchFrame` of a preempted launch, if any --
        #: set when a sliced launch raises
        #: :class:`~repro.errors.LaunchPreempted`, consumed by
        #: :meth:`resume_launch`, cleared by :meth:`reset_timeline`.
        self.paused = None
        #: Observer fan-out for the whole board.  ``self.obs`` (and the
        #: matching slots on every CU and the memory system) is None
        #: until an observer attaches, so unobserved simulation skips
        #: all event construction.
        self.hub = ObserverHub()
        self.obs = None
        # The activity window (BoardActivity): since construction, the
        # last reset_timeline or the last open_activity.
        self.open_activity()
        # The host templates always mirror the small constant-buffer
        # region (launch geometry + kernel arguments) into the prefetch
        # memory right after writing it -- scalar loads of kernel
        # arguments would otherwise serialise on the MicroBlaze relay.
        if self.arch.has_prefetch:
            self.memory.preload_all(0, HEAP_BASE)

    # -- observation --------------------------------------------------------

    def attach(self, observer):
        """Register an observer for every event the board emits."""
        self.hub.attach(observer)
        self._sync_obs()
        return observer

    def detach(self, observer):
        """Remove one observer; restores the zero-cost path when empty."""
        self.hub.detach(observer)
        self._sync_obs()

    @property
    def observers(self):
        return tuple(self.hub.observers)

    @property
    def issue_loop(self):
        """The loop the next launch slice runs: :data:`REFERENCE` when
        an observer is attached, :data:`SUPERBLOCK` otherwise."""
        return REFERENCE if self.obs is not None else SUPERBLOCK

    def open_activity(self):
        """Start a new :class:`BoardActivity` window; returns it."""
        self.activity = BoardActivity(memory=dict(self.memory.stats))
        return self.activity

    def activity_counters(self):
        """The current activity window as a
        :class:`~repro.obs.counters.CounterSet` -- equal to what a
        :class:`~repro.obs.counters.PerfCounters` observer attached for
        the same window counts, on either issue loop."""
        activity = self.activity
        current = self.memory.stats
        memory = {key: current[key] - before
                  for key, before in activity.memory.items()}
        return aggregate_counters(activity.stats(), activity.spans, memory)

    def _sync_obs(self):
        hub = self.hub if len(self.hub) else None
        self.obs = hub
        self.memory.obs = hub
        for cu in self.cus:
            cu.obs = hub

    # -- time bookkeeping ---------------------------------------------------

    def _mb_to_cu(self, mb_cycles):
        return mb_cycles / self.clocks.ratio

    @property
    def elapsed_seconds(self):
        return self.clocks.cu_cycles_to_seconds(self.now)

    def reset_timeline(self):
        self.now = 0.0
        self.total_instructions = 0
        self.launches = []
        self.paused = None
        self.microblaze.reset()
        self.memory.reset_timing()
        for cu in self.cus:
            cu.reset_occupancy()
        self.open_activity()

    # -- host-side operations -------------------------------------------------

    def host_phase(self, name, alu_ops=0, fp_ops=0, mem_touches=0):
        """Run a host-code phase on the MicroBlaze; advances the timeline."""
        started = self.now
        mb = self.microblaze.run_phase(name, alu_ops, fp_ops, mem_touches)
        self.now += self._mb_to_cu(mb)
        self.activity.spans.append(("host_phase", started, self.now))
        if self.obs is not None:
            self.obs.emit_span(Span(
                kind="host_phase", name=name, start=started, end=self.now,
                meta=(("mb_cycles", mb),)))
        return mb

    def preload_prefetch(self, start, nbytes):
        """MicroBlaze command: preload a range into every CU's buffer.

        Charges the copy time on the timeline even when the range does
        not fit (the firmware still attempts it); returns whether the
        range is now covered.
        """
        if not self.arch.has_prefetch:
            return False
        started = self.now
        covered = self.memory.preload_all(start, nbytes)
        mb = PRELOAD_MB_CYCLES_PER_WORD * (nbytes / 4.0)
        self.microblaze.charge_cycles("preload", mb)
        self.now += self._mb_to_cu(mb)
        self.activity.spans.append(("preload", started, self.now))
        if self.obs is not None:
            self.obs.emit_span(Span(
                kind="preload", name="preload:0x{:x}+{}".format(start, nbytes),
                start=started, end=self.now,
                meta=(("nbytes", nbytes), ("covered", covered))))
        return covered

    # -- kernel launch ---------------------------------------------------------

    def launch(self, program, global_size, local_size, max_groups=None,
               collect_registers=False, max_slice_instructions=None):
        """Execute a kernel over an NDRange; returns a :class:`LaunchResult`.

        ``max_groups`` enables workgroup sampling: at most that many
        workgroups are executed and the makespan is scaled by
        ``total/executed``.  Functional output is then partial --
        callers only do this inside timing sweeps.

        The launch runs serially, one workgroup at a time on the
        earliest-free CU, on the reference loop when an observer is
        attached and the compiled loop otherwise; the loop is recorded
        on the result.  ``collect_registers`` captures every
        wavefront's final architectural state on the result (either
        loop), keyed by ``(group_id, wf_id)``.

        ``max_slice_instructions`` turns the launch into a time slice:
        once that many instructions retire the launch yields at the
        next workgroup boundary by raising
        :class:`~repro.errors.LaunchPreempted`, leaving its
        :class:`LaunchFrame` in :attr:`paused` for
        :meth:`resume_launch` (or a checkpoint).
        """
        geometry = LaunchGeometry.of(global_size, local_size)
        if geometry.work_items_per_group > 64 * 40:
            raise LaunchError("workgroup exceeds the CU's 40-wavefront capacity")
        if max_slice_instructions is not None and max_slice_instructions < 1:
            raise LaunchError("max_slice_instructions must be >= 1")
        if self.paused is not None:
            raise LaunchError(
                "board has a preempted launch of {!r}; resume or reset it "
                "before launching again".format(self.paused.program.name))
        self.dispatcher.write_cb0(geometry)

        total = geometry.total_groups
        group_ids = list(geometry.group_ids())
        sampled = False
        if max_groups is not None and total > max_groups:
            # Endpoint-anchored decimation: always executes the first
            # and last workgroups (where divergent kernels diverge,
            # e.g. image borders) and spreads the rest evenly.
            if max_groups <= 1:
                picks = [0]
            else:
                span = total - 1
                picks = [round(i * span / (max_groups - 1))
                         for i in range(max_groups)]
            group_ids = [group_ids[i] for i in picks]
            sampled = True

        dispatch_cost = self._mb_to_cu(
            self.dispatcher.dispatch_cost_mb_cycles(geometry))
        frame = LaunchFrame(
            program=program, geometry=geometry,
            pending=group_ids, dispatch_cost=dispatch_cost,
            total_groups=total, sampled=sampled,
            cu_free=[self.now] * len(self.cus), disp_free=self.now,
            end_time=self.now, stats=CuRunStats(),
            registers={} if collect_registers else None)
        return self._run_frame(frame, max_slice_instructions)

    def _run_frame(self, frame, budget=None):
        """Run a serial launch frame until done or the slice expires.

        The observer set is read once per slice, so a sliced launch
        may run its slices on different loops; the result names the
        loop of the final slice.
        """
        loop = self.issue_loop
        ran = CuRunStats()  # this slice's workgroups
        while frame.pending:
            gid = frame.pending[0]
            wg = self.dispatcher.build_workgroup(frame.program,
                                                 frame.geometry, gid)
            cu_idx = min(range(len(self.cus)),
                         key=frame.cu_free.__getitem__)
            # The ultra-threaded dispatcher prepares the next
            # workgroup while CUs execute, so dispatch pipelines
            # ahead; a CU only waits when dispatch throughput is
            # the bottleneck (which is what caps multi-core scaling
            # for short kernels).
            ready = frame.disp_free + frame.dispatch_cost
            frame.disp_free = ready
            start = max(frame.cu_free[cu_idx], ready)
            end, wg_stats = self.cus[cu_idx].run_workgroup(
                wg, start_time=start)
            frame.cu_free[cu_idx] = end
            ran.merge(wg_stats)
            frame.end_time = max(frame.end_time, end)
            frame.pending.pop(0)
            frame.executed_groups += 1
            if frame.registers is not None:
                _capture_registers(wg, frame.registers)
            if (budget is not None and frame.pending
                    and ran.instructions >= budget):
                self._retire_slice(frame, ran)
                self.paused = frame
                raise LaunchPreempted(
                    frame.program.name,
                    executed_groups=frame.executed_groups,
                    total_groups=frame.executed_groups + len(frame.pending),
                    instructions=frame.stats.instructions)
        self._retire_slice(frame, ran)
        return self._finish_launch(frame, loop)

    def _retire_slice(self, frame, ran):
        """Record a slice's merged workgroup stats in the activity
        window and fold them into its launch frame."""
        self.activity.runs.append(ran)
        if frame.stats.workgroups:
            # A resumed launch: a new object, so the window that holds
            # an earlier slice never sees this one.
            total = CuRunStats()
            total.merge(frame.stats)
            total.merge(ran)
            frame.stats = total
        else:
            frame.stats = ran

    def resume_launch(self, max_slice_instructions=None):
        """Continue the paused launch; returns its :class:`LaunchResult`.

        The frame may have been produced on this board or restored
        from a :class:`~repro.exec.checkpoint.BoardCheckpoint` captured
        on a different board with the same content key.  May preempt
        again under ``max_slice_instructions``.
        """
        frame = self.paused
        if frame is None:
            raise LaunchError("no preempted launch to resume")
        self.paused = None
        return self._run_frame(frame, max_slice_instructions)

    def _finish_launch(self, frame, loop):
        """Close a completed frame: timeline, span, launch record."""
        elapsed = frame.end_time - self.now
        if frame.sampled and frame.executed_groups:
            elapsed *= frame.total_groups / float(frame.executed_groups)
        self.activity.spans.append(("kernel", self.now, self.now + elapsed))
        if self.obs is not None:
            self.obs.emit_span(Span(
                kind="kernel", name=frame.program.name,
                start=self.now, end=self.now + elapsed,
                meta=(("total_groups", frame.total_groups),
                      ("executed_groups", frame.executed_groups),
                      ("sampled", frame.sampled))))
        self.now += elapsed
        result = LaunchResult(
            kernel=frame.program.name,
            cu_cycles=elapsed,
            total_groups=frame.total_groups,
            executed_groups=frame.executed_groups,
            stats=frame.stats,
            sampled=frame.sampled,
            engine=loop,
            registers=frame.registers,
        )
        self.total_instructions += result.instructions
        self.launches.append(result)
        return result
