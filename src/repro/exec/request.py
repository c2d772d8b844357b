"""The execution-request model: what one run *is*, as plain data.

An :class:`ExecutionRequest` bundles everything that nine call sites
used to hand-roll separately -- which work to run, on which
architecture, with which launch engine, workgroup sampling, memory
size, and observation/verification policy.  The
:class:`~repro.exec.executor.Executor` resolves a request into an
:class:`~repro.exec.executor.ExecutionResult`.

Three workload shapes cover every caller:

* :class:`BenchmarkWorkload` -- an application from the kernel
  registry (by name + constructor params, which keeps the request
  picklable for the service's process workers, or as an
  already-built instance for in-process callers like the flow).
* :class:`ProgramWorkload` -- one raw assembled kernel plus its
  NDRange and input/output buffers; the shape the fuzz oracles and
  host templates use.
* ``checkpoint=`` -- a :class:`~repro.exec.checkpoint.BoardCheckpoint`
  to restore and resume; the shape a preempted run comes back as.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..core.config import ArchConfig
from ..errors import LaunchError
from ..soc.gpu import ENGINES, HEAP_BASE, unknown_engine_message
from .lease import DEFAULT_GLOBAL_MEM

#: The one engine-selection registry: every surface that accepts an
#: engine name -- :class:`ExecutionRequest.engine`,
#: :class:`repro.service.Job.engine`, ``repro serve --engine``,
#: ``repro run --engine`` -- validates against this tuple.  ``auto``
#: resolves per board (see :meth:`repro.soc.gpu.Gpu._resolve_engine`).
ENGINE_NAMES = ("auto",) + ENGINES


def validate_engine(engine, none_ok=True, error=LaunchError):
    """Check one engine name against :data:`ENGINE_NAMES`.

    ``None`` is accepted (as ``auto``) unless ``none_ok`` is False;
    ``error`` picks the exception type so admission-control surfaces
    can raise :class:`~repro.errors.AdmissionError` instead.  Returns
    the name unchanged.
    """
    if engine is None:
        if none_ok:
            return engine
        raise error("an engine name is required (one of {})".format(
            ", ".join(ENGINE_NAMES)))
    if engine not in ENGINE_NAMES:
        raise error(unknown_engine_message(engine, ENGINE_NAMES))
    return engine


@dataclass
class WorkloadRun:
    """What one workload execution left behind (pre-measurement)."""

    ctx: object = None
    #: name -> Buffer of the outputs eligible for digesting.
    outputs: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class BenchmarkWorkload:
    """An application from the kernel registry (or a live instance)."""

    name: Optional[str] = None
    params: Mapping[str, object] = field(default_factory=dict)
    instance: Optional[object] = None

    def resolve(self):
        if self.instance is not None:
            return self.instance
        from ..kernels import KERNELS

        if self.name not in KERNELS:
            raise LaunchError(
                "unknown benchmark {!r}; available: {}".format(
                    self.name, ", ".join(sorted(KERNELS))))
        return KERNELS[self.name](**dict(self.params))

    def describe(self):
        if self.instance is not None:
            return self.instance.name
        return self.name or "?"

    def run(self, board, request):
        bench = self.resolve()
        ctx = bench.run_on(board, verify=request.verify)
        outputs = {}
        if request.digests:
            outputs = {name: ctx[name] for name in bench.reference(ctx)}
        return WorkloadRun(ctx=ctx, outputs=outputs)


@dataclass(frozen=True)
class ProgramWorkload:
    """One raw kernel launch: upload inputs, alloc outputs, run.

    Kernel arguments are the input buffers followed by the output
    buffers, in declaration order -- the convention of the fuzz
    generator and the host templates.
    """

    program: object
    global_size: Tuple[int, ...]
    local_size: Tuple[int, ...]
    #: (buffer name, numpy array) pairs uploaded before launch.
    inputs: Tuple[Tuple[str, object], ...] = ()
    #: (buffer name, byte size) pairs allocated before launch.
    outputs: Tuple[Tuple[str, int], ...] = ()
    preload: bool = True

    def describe(self):
        return self.program.name

    def run(self, board, request):
        args, outputs = [], {}
        for name, array in self.inputs:
            args.append(board.upload(name, np.ascontiguousarray(array)))
        for name, nbytes in self.outputs:
            buf = board.alloc(name, nbytes)
            outputs[name] = buf
            args.append(buf)
        if self.preload:
            board.preload_all()
        board.run(self.program, self.global_size, self.local_size,
                  args=args,
                  collect_registers=request.collect_registers)
        if not request.digests:
            outputs = {}
        return WorkloadRun(ctx=None, outputs=outputs)


@dataclass(frozen=True)
class ExecutionRequest:
    """One execution, fully specified.

    Shorthand: ``ExecutionRequest(benchmark="matrix_add_i32")`` is a
    :class:`BenchmarkWorkload` request; pass ``workload=`` for
    anything else.  ``engine=None``/``"auto"`` lets the board resolve
    a launch engine per run; ``report`` supplies a synthesis report
    for power pricing (the executor synthesises and memoizes one
    otherwise).
    """

    benchmark: Optional[str] = None
    params: Mapping[str, object] = field(default_factory=dict)
    workload: Optional[object] = None
    #: Resume source: a :class:`~repro.exec.checkpoint.BoardCheckpoint`
    #: (counts as the request's one workload; ``arch``,
    #: ``global_mem_size`` and ``max_instructions`` then come from it).
    checkpoint: Optional[object] = None
    arch: Optional[ArchConfig] = None
    engine: Optional[str] = None
    max_groups: Optional[int] = None
    global_mem_size: int = DEFAULT_GLOBAL_MEM
    verify: bool = True
    profile: bool = False
    trace: bool = False
    trace_instructions: bool = True
    observers: Tuple[object, ...] = ()
    collect_registers: bool = False
    capture_memory: bool = False
    digests: bool = False
    max_instructions: Optional[int] = None
    #: Preemption budget: yield with a ``PREEMPTED`` result (carrying
    #: a checkpoint) once a launch retires this many instructions.
    max_slice_instructions: Optional[int] = None
    numpy_errstate: Optional[str] = None
    report: Optional[object] = None
    label: str = ""

    def __post_init__(self):
        sources = sum(source is not None for source in
                      (self.benchmark, self.workload, self.checkpoint))
        if sources != 1:
            raise LaunchError(
                "an execution request names exactly one of 'benchmark', "
                "'workload' or 'checkpoint'")
        validate_engine(self.engine)
        if self.global_mem_size <= HEAP_BASE:
            raise LaunchError(
                "global_mem_size must exceed the heap base (0x{:x})"
                .format(HEAP_BASE))
        if (self.max_slice_instructions is not None
                and self.max_slice_instructions < 1):
            raise LaunchError("max_slice_instructions must be >= 1")

    def resolve_workload(self):
        if self.checkpoint is not None:
            from .checkpoint import CheckpointWorkload

            return CheckpointWorkload(self.checkpoint)
        if self.workload is not None:
            return self.workload
        return BenchmarkWorkload(name=self.benchmark,
                                 params=dict(self.params))

    def resolve_arch(self):
        if self.checkpoint is not None:
            return self.checkpoint.arch
        return self.arch or ArchConfig.baseline()
