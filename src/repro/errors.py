"""Exception hierarchy shared by every subsystem of the reproduction.

Each subpackage raises the most specific subclass that applies so that
callers can catch at the granularity they care about (``ReproError``
for "anything this library raised", or e.g. ``AssemblyError`` for
toolchain problems only).
"""


class ReproError(Exception):
    """Base class for every error raised by this library."""


class IsaError(ReproError):
    """A problem with instruction definitions, encodings or operands."""


class EncodingError(IsaError):
    """An instruction could not be encoded into Southern Islands binary."""


class DecodingError(IsaError):
    """A binary word sequence is not a valid Southern Islands instruction."""


class AssemblyError(ReproError):
    """The assembler rejected a source program."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line {}: {}".format(line, message)
        super().__init__(message)
        self.line = line


class SimulationError(ReproError):
    """The compute-unit simulator reached an invalid state."""


class TrapError(SimulationError):
    """A kernel executed an operation that the hardware would trap on."""


class TrimError(ReproError):
    """The trimming tool was asked to produce an unusable architecture."""


class TrimmedInstructionError(SimulationError):
    """A kernel executed an instruction removed by the trimming tool.

    This is the safety property of SCRATCH: running a binary on an
    architecture trimmed for a *different* binary must fail loudly, not
    silently compute garbage.
    """

    def __init__(self, instruction_name, unit=None):
        detail = "instruction '{}' was trimmed from the architecture".format(
            instruction_name
        )
        if unit is not None:
            detail += " (functional unit {})".format(unit)
        super().__init__(detail)
        self.instruction_name = instruction_name
        self.unit = unit


class ResourceError(ReproError):
    """A synthesis/fit step exceeded the FPGA device resources."""


class AreaBudgetError(ResourceError):
    """A design point's synthesised area exceeded its re-investment
    budget: trimming did not free enough resources to pay for the
    requested extra compute (Section 3.2's constraint, enforced by the
    design-space explorer)."""

    def __init__(self, what, needed, budget):
        super().__init__(
            "{} exceeds its area budget: needs {}, budget {}".format(
                what, needed, budget))
        self.what = what
        self.needed = needed
        self.budget = budget


class DseError(ReproError):
    """The design-space exploration engine was given an invalid sweep
    specification, preset or result store."""


class LaunchError(ReproError):
    """The runtime was given an invalid kernel launch configuration."""


class CheckpointError(ReproError):
    """A board checkpoint could not be captured, verified or restored
    (digest mismatch, board-key mismatch, or malformed payload)."""


class LaunchPreempted(Exception):
    """Control-flow signal: a launch yielded at a slice boundary.

    Deliberately *not* a :class:`ReproError` -- preemption is not a
    failure, and error-handling paths that catch ``ReproError`` (the
    service worker, ``execute_many``) must never swallow it.  The
    :class:`~repro.exec.Executor` converts it into a ``PREEMPTED``
    :class:`~repro.exec.ExecutionResult` carrying a
    :class:`~repro.exec.checkpoint.BoardCheckpoint`; the paused launch
    state stays on the board until it is checkpointed or reset.
    """

    def __init__(self, kernel, executed_groups, total_groups, instructions):
        super().__init__(
            "launch of {!r} preempted after {}/{} workgroups "
            "({} instructions)".format(kernel, executed_groups,
                                       total_groups, instructions))
        self.kernel = kernel
        self.executed_groups = executed_groups
        self.total_groups = total_groups
        self.instructions = instructions


class ServiceError(ReproError):
    """The kernel-execution service could not process a request."""


class AdmissionError(ServiceError):
    """The admission controller rejected a job (bad request or a full
    queue whose backpressure window expired)."""


class JobTimeoutError(ServiceError):
    """A job exceeded its wall-clock budget inside the service."""

    def __init__(self, job_id, timeout_s):
        super().__init__(
            "job {} exceeded its {:.3g}s timeout".format(job_id, timeout_s))
        self.job_id = job_id
        self.timeout_s = timeout_s
