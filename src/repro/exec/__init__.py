"""repro.exec: the unified execution-session layer.

The one way to run a kernel.  Every entry point of the toolchain --
``repro run``/``profile``/``serve``/``bench``/``fuzz``, the
:class:`~repro.core.flow.ScratchFlow` pipeline, the validation sweep
-- builds an :class:`ExecutionRequest` and hands it to an
:class:`Executor`, which leases a warm board from the shared
:class:`BoardPool`, applies the observation/verify policy, and
returns an :class:`ExecutionResult` envelope (outputs, metrics,
counters, board provenance)::

    from repro.exec import ExecutionRequest, execute

    result = execute(ExecutionRequest(benchmark="matrix_add_i32"))
    print(result.metrics, result.warm_board)

See ``docs/execution.md`` for the request -> result lifecycle and the
lease semantics.
"""

from .checkpoint import (STATUS_DONE, STATUS_PREEMPTED, BoardCheckpoint,
                         PreemptedResult)
from .executor import ExecutionResult, Executor, default_executor, execute
from .lease import (DEFAULT_GLOBAL_MEM, MAX_WARM_BOARDS, BoardLease,
                    BoardPool, board_key, config_key)
from .microbench import run_microbench
from .request import (BenchmarkWorkload, ExecutionRequest, ProgramWorkload,
                      WorkloadRun)

__all__ = [
    "ExecutionRequest", "ExecutionResult", "Executor",
    "BenchmarkWorkload", "ProgramWorkload", "WorkloadRun",
    "BoardCheckpoint", "PreemptedResult",
    "STATUS_DONE", "STATUS_PREEMPTED",
    "BoardPool", "BoardLease", "board_key", "config_key",
    "DEFAULT_GLOBAL_MEM", "MAX_WARM_BOARDS",
    "default_executor", "execute", "run_microbench",
]
