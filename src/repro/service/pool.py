"""Worker pool: N simulated boards executing jobs in parallel.

Workers execute jobs through the unified :mod:`repro.exec` layer: each
worker context owns an :class:`~repro.exec.Executor` whose
:class:`~repro.exec.BoardPool` keeps **warm boards** -- live
:class:`SoftGpu` instances pooled by physical identity (global-memory
size, instruction cap).  A job reuses the worker's idle board: after
:meth:`SoftGpu.reset` when the board already has the job's
configuration, after :meth:`SoftGpu.retarget` to it otherwise --
skipping the memory-image allocation either way.  This is the
dynamic-dispatch half of the static/dynamic split the soft-GPGPU
serving literature argues for (the static half lives in
:mod:`repro.service.cache`).

Three execution modes:

* ``process`` -- ``concurrent.futures.ProcessPoolExecutor``; true
  parallelism, boards warm per OS process.  The default for
  ``python -m repro serve``.
* ``thread``  -- ``ThreadPoolExecutor`` over one shared executor (the
  board pool's exclusive checkout makes that safe); cheap to spin up,
  GIL-bound.  Used by tests and small deployments.
* ``inline``  -- synchronous execution on the caller's thread;
  deterministic, zero concurrency.  Used for debugging.

Payloads and result dicts are plain picklable data; ``ReproError``
failures are carried *inside* the result dict rather than as pickled
exceptions so custom exception constructors never cross the process
boundary.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import (BrokenExecutor, Future, ProcessPoolExecutor,
                                ThreadPoolExecutor)
from dataclasses import dataclass
from typing import Dict, Optional

from ..core.config import ArchConfig
from ..errors import ReproError, ServiceError
from ..exec import (MAX_WARM_BOARDS, STATUS_PREEMPTED, ExecutionRequest,
                    Executor, PreemptedResult)

__all__ = ["JobPayload", "WorkerPool", "MAX_WARM_BOARDS"]


@dataclass(frozen=True)
class JobPayload:
    """Everything a worker needs to execute one job (picklable)."""

    job_id: int
    benchmark: str
    params: Dict[str, object]
    arch: ArchConfig
    max_groups: Optional[int] = None
    verify: bool = True
    profile: bool = False
    global_mem_size: Optional[int] = None
    #: Preemption budget (instructions per slice), if the job is sliced.
    slice_instructions: Optional[int] = None
    #: A ``PreemptedResult.to_dict()`` envelope when this dispatch
    #: resumes an earlier slice; the request then continues from the
    #: carried checkpoint instead of launching the benchmark over.
    resume: Optional[Dict[str, object]] = None

    def to_request(self) -> ExecutionRequest:
        kwargs = {}
        if self.global_mem_size is not None:
            kwargs["global_mem_size"] = self.global_mem_size
        if self.resume is not None:
            kwargs["checkpoint"] = PreemptedResult.from_dict(
                self.resume).checkpoint
        return ExecutionRequest(
            benchmark=self.benchmark,
            params=dict(self.params),
            arch=self.arch,
            max_groups=self.max_groups,
            verify=self.verify,
            profile=self.profile,
            digests=True,
            max_slice_instructions=self.slice_instructions,
            **kwargs)


def _run_payload(executor: Executor, payload: JobPayload):
    """Execute one payload on ``executor``; returns a picklable dict."""
    try:
        result = executor.execute(payload.to_request())
        out = {
            "ok": True,
            "job_id": payload.job_id,
            "worker": os.getpid(),
            "warm_board": result.warm_board,
        }
        if result.counters is not None:
            # This dispatch's slice only (a raw CounterSet); the
            # scheduler merges every slice of a sliced job.
            out["counters"] = result.counters.counters.to_dict()
        if result.status == STATUS_PREEMPTED:
            out["preempted"] = True
            out["envelope"] = result.preempted.to_dict()
            return out
        out.update(seconds=result.seconds,
                   instructions=result.instructions,
                   cu_cycles=result.cu_cycles,
                   digests=result.digests)
        return out
    except ReproError as exc:
        return {
            "ok": False,
            "job_id": payload.job_id,
            "error": str(exc),
            "error_type": type(exc).__name__,
            "worker": os.getpid(),
            "warm_board": False,
        }


#: Per-process executor (process mode; one per forked worker, built
#: lazily so importing this module costs nothing in the parent).
_PROCESS_EXECUTOR = None


def _process_executor() -> Executor:
    global _PROCESS_EXECUTOR
    if _PROCESS_EXECUTOR is None:
        _PROCESS_EXECUTOR = Executor()
    return _PROCESS_EXECUTOR


def _execute_in_process(payload: JobPayload):
    """Top-level entry point for process-pool workers (picklable)."""
    return _run_payload(_process_executor(), payload)


class WorkerPool:
    """A fleet of simulated boards behind a futures executor."""

    MODES = ("process", "thread", "inline")

    def __init__(self, workers=2, mode="process"):
        if mode not in self.MODES:
            raise ServiceError(
                "unknown pool mode {!r}; expected one of {}".format(
                    mode, ", ".join(self.MODES)))
        if workers < 1:
            raise ServiceError("a pool needs at least one worker")
        self.workers = workers
        self.mode = mode
        # Thread and inline modes share one executor per pool: the
        # board pool's exclusive checkout makes concurrent leases safe,
        # and a pool-private executor keeps warm-board state from
        # leaking between services (tests build many).
        self._exec = Executor() if mode != "process" else None
        self._lock = threading.Lock()
        if mode == "process":
            self._executor = ProcessPoolExecutor(max_workers=workers)
        elif mode == "thread":
            self._executor = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-worker")
        else:
            self._executor = None

    def submit(self, payload: JobPayload) -> Future:
        """Dispatch one payload; returns a future of the result dict."""
        if self.mode == "process":
            with self._lock:
                try:
                    return self._executor.submit(_execute_in_process, payload)
                except BrokenExecutor:
                    # A worker process died (killed, out of memory): the
                    # executor stays broken for good, so replace it --
                    # with cold boards -- instead of failing every later
                    # job.  Its in-flight jobs already failed.
                    self._executor.shutdown(wait=False)
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.workers)
                    return self._executor.submit(_execute_in_process, payload)
        if self.mode == "thread":
            return self._executor.submit(_run_payload, self._exec, payload)
        future = Future()
        try:
            future.set_result(_run_payload(self._exec, payload))
        except BaseException as exc:  # simulator bug: surface via future
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True):
        if self._executor is not None:
            self._executor.shutdown(wait=wait)
        if self._exec is not None:
            self._exec.pool.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.shutdown()
        return False
