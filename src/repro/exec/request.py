"""The execution-request model: what one run *is*, as plain data.

An :class:`ExecutionRequest` bundles everything that nine call sites
used to hand-roll separately -- which work to run, on which
architecture, with which workgroup sampling, memory size, and
observation/verification policy (observers watch the one CU issue
loop; profiling attaches none).  The
:class:`~repro.exec.executor.Executor` resolves a request into an
:class:`~repro.exec.executor.ExecutionResult`.

Two workload shapes cover every caller:

* :class:`BenchmarkWorkload` -- an application from the kernel
  registry (by name + constructor params, which keeps the request
  picklable for the service's process workers, or as an
  already-built instance for in-process callers like the flow).
* :class:`ProgramWorkload` -- one raw assembled kernel plus its
  NDRange and input/output buffers; the shape the fuzz oracles and
  host templates use.

A preempted run comes back as its own workload plus ``checkpoint=``,
the :class:`~repro.exec.checkpoint.BoardCheckpoint` to resume from:
the workload runs its host setup as usual, calls the executor's
``resume`` in place of its launch, and is verified and digested like a
straight run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..core.config import ArchConfig
from ..errors import LaunchError
from ..soc.gpu import HEAP_BASE
from .lease import DEFAULT_GLOBAL_MEM


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

    def run(self, board, request, resume=None):
        # One reference per run: verify returns the dict it checked, and
        # the digests take their output names from it.
        bench = self.resolve()
        ctx = bench.run_on(board, verify=False, resume=resume)
        expected = {}
        if request.verify:
            expected = bench.verify(board, ctx)
        elif request.digests:
            expected = bench.reference(ctx)
        outputs = ({name: ctx[name] for name in expected}
                   if request.digests else {})
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

    def describe(self):
        return self.program.name

    def run(self, board, request, resume=None):
        args, outputs = [], {}
        for name, array in self.inputs:
            args.append(board.upload(name, np.ascontiguousarray(array)))
        for name, nbytes in self.outputs:
            buf = board.alloc(name, nbytes)
            outputs[name] = buf
            args.append(buf)
        if resume is not None:
            resume()
        else:
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
    anything else.  ``profile`` builds the result's performance
    counters from the run's aggregates and attaches no observer.
    Attached observers (``trace``, ``observers``) receive the events of
    the same issue loop every run takes; the counters come out
    identical with them.  ``report`` supplies a synthesis
    report for power pricing (the executor synthesises and memoizes one
    otherwise).
    """

    benchmark: Optional[str] = None
    params: Mapping[str, object] = field(default_factory=dict)
    workload: Optional[object] = None
    #: Resume point: a :class:`~repro.exec.checkpoint.BoardCheckpoint`
    #: of this same workload, taken when an earlier slice preempted.
    #: ``arch``, ``global_mem_size`` and ``max_instructions`` then come
    #: from it.
    checkpoint: Optional[object] = None
    arch: Optional[ArchConfig] = None
    max_groups: Optional[int] = None
    global_mem_size: int = DEFAULT_GLOBAL_MEM
    verify: bool = True
    profile: bool = False
    trace: bool = False
    observers: Tuple[object, ...] = ()
    collect_registers: bool = False
    capture_memory: bool = False
    digests: bool = False
    max_instructions: Optional[int] = None
    #: Preemption budget: yield with a ``PREEMPTED`` result (carrying
    #: a checkpoint) once a launch retires this many instructions.
    max_slice_instructions: Optional[int] = None
    report: Optional[object] = None
    label: str = ""

    def __post_init__(self):
        if (self.benchmark is None) == (self.workload is None):
            raise LaunchError(
                "an execution request names exactly one of 'benchmark' "
                "or 'workload' (a 'checkpoint' resumes one of them)")
        if self.global_mem_size <= HEAP_BASE:
            raise LaunchError(
                "global_mem_size must exceed the heap base (0x{:x})"
                .format(HEAP_BASE))
        if (self.max_slice_instructions is not None
                and self.max_slice_instructions < 1):
            raise LaunchError("max_slice_instructions must be >= 1")

    def resolve_workload(self):
        if self.workload is not None:
            return self.workload
        return BenchmarkWorkload(name=self.benchmark,
                                 params=dict(self.params))

    def resolve_arch(self):
        if self.checkpoint is not None:
            return self.checkpoint.arch
        return self.arch or ArchConfig.baseline()
