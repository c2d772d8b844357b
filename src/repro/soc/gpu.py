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

from dataclasses import dataclass

from ..core.config import ArchConfig
from ..cu.pipeline import ComputeUnit, CuRunStats
from ..errors import LaunchError, LaunchPreempted
from ..mem.system import MemorySystem
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


#: Launch execution engines.  Both produce bit-identical memory,
#: registers, stats and cycle counts (the ``superblock`` oracle
#: enforces it); they differ only in wall-clock speed and
#: observability.  Multi-CU launches run serially on either engine,
#: one workgroup at a time on the earliest-free CU:
#:
#: ``reference``   the original serial interpreter loop; the only
#:                 engine that emits observation events (per-issue
#:                 stall attribution), with frontend/occupancy costs
#:                 read from the shared per-program TimingTable.
#: ``superblock``  the compiled serial loop: prepared per-instruction
#:                 plans, with straight-line ALU runs fused into
#:                 compiled superblocks (repro.cu.superblock) whose
#:                 timing advances by step_advance over the static
#:                 cost table (repro.cu.timing).  The ``auto``
#:                 default whenever no observer is attached.
ENGINES = ("reference", "superblock")

#: Engines that no longer exist, each with how ``superblock`` replaces it.
REMOVED_ENGINES = {
    "fast": "the compiled engine it was folded into",
    "parallel": "the serial compiled engine, which was faster on "
                "every multi-CU board",
}


def unknown_engine_message(engine, choices=ENGINES):
    """The error text for an engine name outside ``choices``.

    A removed engine gets a message naming its replacement rather than
    an alias: it fails loudly instead of silently running something
    else.
    """
    if engine in REMOVED_ENGINES:
        return "launch engine {!r} was removed; use 'superblock', {}".format(
            engine, REMOVED_ENGINES[engine])
    return "unknown launch engine {!r} (expected one of {})".format(
        engine, ", ".join(choices))


def _capture_registers(workgroup, registers):
    """Record final architectural state, keyed like the verify
    recorder's ``(group_id, wf_id)`` snapshots."""
    for wf in workgroup.wavefronts:
        registers[(workgroup.group_id, wf.wf_id)] = {
            "sgprs": wf.sgprs.tobytes(),
            "vgprs": wf.vgprs.tobytes(),
            "vcc": wf.vcc,
            "exec": wf.exec_mask,
            "scc": wf.scc,
        }


@dataclass
class LaunchResult:
    """Timing + accounting of one kernel launch."""

    kernel: str
    cu_cycles: float
    total_groups: int
    executed_groups: int
    stats: CuRunStats
    sampled: bool = False
    engine: str = "reference"
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
    engine: str
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

    def __init__(self, arch=None, global_mem_size=1 << 24, prefetch_brams=928):
        self.arch = arch or ArchConfig.baseline()
        self.clocks = (DUAL_DOMAIN if self.arch.generation.clock_ratio > 1
                       else SINGLE_DOMAIN)
        self.memory = MemorySystem(
            params=self.arch.memory_timing,
            num_cus=self.arch.num_cus,
            global_size=global_mem_size,
            prefetch_brams=prefetch_brams,
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
        #: Default launch engine when ``launch`` gets none: ``None`` /
        #: ``"auto"`` picks per launch (reference when observed,
        #: superblock otherwise).
        self.default_engine = None
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

    # -- host-side operations -------------------------------------------------

    def host_phase(self, name, alu_ops=0, fp_ops=0, mem_touches=0):
        """Run a host-code phase on the MicroBlaze; advances the timeline."""
        started = self.now
        mb = self.microblaze.run_phase(name, alu_ops, fp_ops, mem_touches)
        self.now += self._mb_to_cu(mb)
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
        if self.obs is not None:
            self.obs.emit_span(Span(
                kind="preload", name="preload:0x{:x}+{}".format(start, nbytes),
                start=started, end=self.now,
                meta=(("nbytes", nbytes), ("covered", covered))))
        return covered

    # -- kernel launch ---------------------------------------------------------

    def _resolve_engine(self, engine):
        if engine in (None, "auto"):
            engine = self.default_engine
        if engine in (None, "auto"):
            return "reference" if self.obs is not None else "superblock"
        if engine not in ENGINES:
            raise LaunchError(unknown_engine_message(engine))
        if engine != "reference" and self.obs is not None:
            # Only the reference loop emits observation events; an
            # attached observer silently wins over the engine request.
            return "reference"
        return engine

    def launch(self, program, global_size, local_size, max_groups=None,
               engine=None, collect_registers=False,
               max_slice_instructions=None):
        """Execute a kernel over an NDRange; returns a :class:`LaunchResult`.

        ``max_groups`` enables workgroup sampling: at most that many
        workgroups are executed and the makespan is scaled by
        ``total/executed``.  Functional output is then partial --
        callers only do this inside timing sweeps.

        ``engine`` picks one of :data:`ENGINES` (``None``/``"auto"``
        resolves to ``reference`` when an observer is attached and to
        ``superblock`` otherwise); every engine runs the launch
        serially, one workgroup at a time on the earliest-free CU.  The
        engine actually used is recorded on the result.
        ``collect_registers`` captures every wavefront's final
        architectural state on the result (any engine), in the same
        format the verify recorder uses.

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
            engine=self._resolve_engine(engine),
            pending=group_ids, dispatch_cost=dispatch_cost,
            total_groups=total, sampled=sampled,
            cu_free=[self.now] * len(self.cus), disp_free=self.now,
            end_time=self.now, stats=CuRunStats(),
            registers={} if collect_registers else None)
        return self._run_frame(frame, max_slice_instructions)

    def _run_frame(self, frame, budget=None):
        """Run a serial launch frame until done or the slice expires."""
        compiled = frame.engine == "superblock"
        slice_base = frame.stats.instructions
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
                wg, start_time=start, compiled=compiled)
            frame.cu_free[cu_idx] = end
            frame.stats.merge(wg_stats)
            frame.end_time = max(frame.end_time, end)
            frame.pending.pop(0)
            frame.executed_groups += 1
            if frame.registers is not None:
                _capture_registers(wg, frame.registers)
            if (budget is not None and frame.pending
                    and frame.stats.instructions - slice_base >= budget):
                self.paused = frame
                raise LaunchPreempted(
                    frame.program.name,
                    executed_groups=frame.executed_groups,
                    total_groups=frame.executed_groups + len(frame.pending),
                    instructions=frame.stats.instructions)
        return self._finish_launch(frame)

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

    def _finish_launch(self, frame):
        """Close a completed frame: timeline, span, launch record."""
        elapsed = frame.end_time - self.now
        if frame.sampled and frame.executed_groups:
            elapsed *= frame.total_groups / float(frame.executed_groups)
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
            engine=frame.engine,
            registers=frame.registers,
        )
        self.total_instructions += result.instructions
        self.launches.append(result)
        return result
