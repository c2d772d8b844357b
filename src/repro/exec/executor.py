"""The :class:`Executor`: one request in, one result envelope out.

Every run in the toolchain -- a CLI benchmark, a service job, a bench
sample, a fuzz-oracle configuration, a profiled kernel -- goes
through :meth:`Executor.execute`:

1. lease a board from the :class:`~repro.exec.lease.BoardPool`
   (warm -- reset, or retargeted to the request's architecture -- if
   the pool holds an idle board of the same memory size and
   instruction cap; prepared plans and per-program timing tables are
   cached process-wide under the ``content_key x timing-params``
   space, so they survive lease churn regardless),
2. apply the request's launch policy (workgroup sampling, slicing),
3. open the board's activity window and attach the requested event
   observers (Chrome trace, caller-supplied); they watch the one issue
   loop every run takes.  ``profile`` attaches nothing: its counters
   are built from the window's run aggregates,
4. run the workload -- with a ``checkpoint=`` resume point, its
   ``resume`` callable restores and continues the paused launch,
5. capture everything the caller may need *while the board is still
   leased* -- metrics, counters, launch records, output digests,
   optionally the full memory image -- and
6. release the board back to the pool, scrubbed.

The result is an :class:`ExecutionResult`: outputs plus run metrics
plus board provenance (warm or cold).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import LaunchPreempted
from ..fpga.synthesis import Synthesizer
from ..obs.counters import PerfCounters
from ..obs.serialize import SerializableMixin
from ..runtime.metrics import RunMetrics
from .checkpoint import STATUS_DONE, STATUS_PREEMPTED, PreemptedResult
from .lease import BoardPool, config_key
from .request import ExecutionRequest, WorkloadRun


@dataclass
class ExecutionResult(SerializableMixin):
    """Everything one executed request produced."""

    request: ExecutionRequest
    label: str
    arch: object
    metrics: RunMetrics
    #: Board-timeline totals (host phases + launches).
    seconds: float
    instructions: int
    cu_cycles: float
    #: Provenance: whether the board came warm out of the pool.
    warm_board: bool
    board_key: str
    launches: Tuple[object, ...] = ()
    counters: Optional[object] = None      # PerfCounters, when profiled
    trace: Optional[object] = None         # ChromeTrace, when traced
    digests: Dict[str, str] = field(default_factory=dict)
    memory_image: Optional[bytes] = None
    registers: Optional[dict] = None
    memory_stats: Dict[str, int] = field(default_factory=dict)
    ctx: object = None
    #: ``STATUS_DONE``, or ``STATUS_PREEMPTED`` when the run yielded at
    #: a slice boundary -- then ``preempted`` carries the
    #: :class:`~repro.exec.checkpoint.PreemptedResult` envelope
    #: (progress counters + the resume checkpoint) and the
    #: outputs/digests are absent.
    status: str = STATUS_DONE
    preempted: Optional[PreemptedResult] = None

    def to_dict(self):
        out = {
            "label": self.label,
            "arch": self.arch.describe(),
            "metrics": self.metrics.to_dict(),
            "cu_cycles": self.cu_cycles,
            "warm_board": self.warm_board,
            "digests": dict(self.digests),
            "status": self.status,
        }
        if self.counters is not None:
            out["counters"] = self.counters.to_dict()
        if self.preempted is not None:
            out["preempted"] = self.preempted.to_dict()
        return out


class Executor:
    """Resolves :class:`ExecutionRequest` objects against a board pool.

    One executor owns one :class:`BoardPool` and one memoized
    synthesizer (for power pricing when the request brings no report).
    Thread-safe: concurrent ``execute`` calls lease distinct boards.
    """

    def __init__(self, pool=None, synthesizer=None):
        # Not ``pool or BoardPool()``: an *empty* pool is falsy (it has
        # __len__), and silently swapping a caller's pool for a private
        # one breaks eviction/warm-provenance guarantees.
        self.pool = pool if pool is not None else BoardPool()
        self.synthesizer = synthesizer or Synthesizer()
        self._reports = {}
        self._lock = threading.Lock()

    # -- power pricing -----------------------------------------------------

    def synthesize(self, arch):
        """Synthesis report for ``arch``, memoized by config key."""
        key = config_key(arch)
        with self._lock:
            report = self._reports.get(key)
        if report is None:
            report = self.synthesizer.synthesize(arch)
            with self._lock:
                self._reports[key] = report
        return report

    # -- execution ---------------------------------------------------------

    def execute_many(self, requests, workers=None, return_exceptions=False):
        """Fan a batch of requests out across a thread pool.

        Results come back in request order.  The board pool's exclusive
        checkout makes concurrent leases safe; requests beyond the
        concurrency level reuse the boards earlier ones released.  With
        ``return_exceptions`` (the :func:`asyncio.gather` idiom), a
        request that raised :class:`~repro.errors.ReproError` yields
        the exception object in its slot instead of aborting the batch
        -- the contract sweep drivers (``repro dse``) rely on; other
        exception types always propagate.
        """
        from concurrent.futures import ThreadPoolExecutor

        from ..errors import ReproError

        requests = list(requests)
        if not requests:
            return []
        workers = max(1, min(workers or 4, len(requests)))
        with ThreadPoolExecutor(max_workers=workers,
                                thread_name_prefix="repro-exec") as pool:
            futures = [pool.submit(self.execute, r) for r in requests]
            out = []
            for future in futures:
                try:
                    out.append(future.result())
                except ReproError as exc:
                    if not return_exceptions:
                        raise
                    out.append(exc)
            return out

    def execute(self, request: ExecutionRequest) -> ExecutionResult:
        workload = request.resolve_workload()
        arch = request.resolve_arch()
        # A resume leases by the checkpoint's board identity (arch,
        # memory size, instruction cap), not the request's defaults --
        # the board the run continues on must share the content key of
        # the one it was preempted on.
        if request.checkpoint is not None:
            global_mem_size = request.checkpoint.global_mem_size
            max_instructions = request.checkpoint.max_instructions
        else:
            global_mem_size = request.global_mem_size
            max_instructions = request.max_instructions
        with self.pool.lease(arch,
                             global_mem_size=global_mem_size,
                             max_instructions=max_instructions
                             ) as lease:
            board = lease.board
            board.max_groups = request.max_groups
            board.slice_instructions = request.max_slice_instructions
            resume = None
            if request.checkpoint is not None:
                def resume(cp=request.checkpoint):
                    # Called where the workload would launch: its host
                    # setup must have laid out the checkpoint's heap.
                    cp.check_heap(board.heap)
                    lease.restore(cp)
                    board.gpu.open_activity()
                    return board.resume()

            # The window the counters cover: exactly the span an attached
            # observer would see (around the run; a resume reopens it
            # after the restore).
            board.gpu.open_activity()
            attached = []
            trace = None
            if request.trace:
                from ..obs.chrome_trace import ChromeTrace

                trace = ChromeTrace(clock_hz=board.gpu.clocks.cu_hz)
                attached.append(trace)
            attached.extend(request.observers)
            for observer in attached:
                board.attach(observer)
            paused_frame = None
            try:
                run = workload.run(board, request, resume=resume)
            except LaunchPreempted:
                # Slice budget hit: the launch parked itself as
                # ``gpu.paused``.  Not an error -- capture a checkpoint
                # below and hand back a PREEMPTED envelope.
                paused_frame = board.gpu.paused
                run = WorkloadRun()
            finally:
                for observer in attached:
                    board.detach(observer)
            counters = None
            if request.profile:
                counters = PerfCounters(board.gpu.activity_counters())

            digests = {
                name: hashlib.sha256(
                    board.read(buf, dtype="u1").tobytes()).hexdigest()
                for name, buf in run.outputs.items()
            }
            memory_image = None
            if request.capture_memory:
                mem = board.gpu.memory.global_mem
                memory_image = mem.read_block(
                    0, mem.size, np.uint8).tobytes()

            launches = tuple(board.gpu.launches)
            registers = None
            for launch in launches:
                if launch.registers is not None:
                    registers = dict(registers or {})
                    registers.update(launch.registers)

            report = request.report or self.synthesize(arch)
            label = request.label or "{}@{}".format(workload.describe(),
                                                    arch.describe())
            status, preempted = STATUS_DONE, None
            if paused_frame is not None:
                status = STATUS_PREEMPTED
                preempted = PreemptedResult(
                    checkpoint=lease.checkpoint(),
                    kernel=paused_frame.program.name,
                    instructions=paused_frame.instructions,
                    groups_executed=paused_frame.executed_groups,
                    groups_total=paused_frame.total_groups,
                )
            metrics = RunMetrics(
                label=label,
                seconds=board.elapsed_seconds,
                instructions=board.instructions,
                power=report.power,
            )
            result = ExecutionResult(
                request=request,
                label=label,
                arch=arch,
                metrics=metrics,
                seconds=board.elapsed_seconds,
                instructions=board.instructions,
                cu_cycles=board.elapsed_cu_cycles,
                warm_board=lease.warm,
                board_key=lease.key,
                launches=launches,
                counters=counters,
                trace=trace,
                digests=digests,
                memory_image=memory_image,
                registers=registers,
                memory_stats=dict(board.gpu.memory.stats),
                ctx=run.ctx,
                status=status,
                preempted=preempted,
            )
        return result


#: The process-wide default executor: every in-process caller that
#: does not need an isolated pool (flow, CLI, profiler, oracles)
#: shares it, so repeated runs of the same configuration reuse warm
#: boards across subsystems.
_DEFAULT = None
_DEFAULT_LOCK = threading.Lock()


def default_executor() -> Executor:
    global _DEFAULT
    if _DEFAULT is None:
        with _DEFAULT_LOCK:
            if _DEFAULT is None:
                _DEFAULT = Executor()
    return _DEFAULT


def execute(request: ExecutionRequest) -> ExecutionResult:
    """Execute one request on the process-wide default executor."""
    return default_executor().execute(request)
