"""Admission control and orchestration: the service front door.

:class:`KernelService` glues the subsystem together::

    submit(job)
      └─ admission: validate the request, resolve the *static* flow
         through the content-addressed ArtifactCache (trim → plan →
         synthesize, memoized per application), then enqueue under
         backpressure
    dispatcher thread
      └─ pops jobs in (priority, config-hash) order -- so jobs sharing
         a trimmed configuration batch onto a board already configured
         for them -- and
         feeds the worker pool, holding at most ``2 x workers`` jobs in
         flight so the bounded queue is the real waiting room
    completion callbacks
      └─ per-job timeout and retry policy, RunMetrics assembly from the
         worker's timings plus the cached synthesis report's power, and
         ServiceStats accounting

Results are :class:`~repro.service.jobs.JobResult`; callers wait on
one job (:meth:`result`) or the whole backlog (:meth:`drain`).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import BrokenExecutor
from functools import partial

from ..core.config import FIXED_LABELS, ArchConfig
from ..core.trimmer import TrimmingTool
from ..errors import (AdmissionError, JobTimeoutError, ServiceError,
                      SimulationError)
from ..fpga.synthesis import Synthesizer
from ..obs.counters import CounterSet, PerfCounters
from ..runtime.metrics import RunMetrics
from .cache import ArtifactCache, config_key
from .jobs import Job, JobResult, JobStatus, next_job_id
from .pool import JobPayload, WorkerPool
from .queue import BoundedJobQueue
from .stats import ServiceStats

class _Ticket:
    """Mutable per-job state tracked by the scheduler."""

    def __init__(self, job_id, job, arch, report, key, submitted):
        self.job_id = job_id
        self.job = job
        self.arch = arch
        self.report = report
        self.config_key = key
        self.attempts = 0
        self.preemptions = 0
        #: PreemptedResult.to_dict() of the latest slice; the next
        #: dispatch resumes from its checkpoint instead of restarting.
        self.resume_envelope = None
        #: A profiled job's counters, merged over its finished slices.
        self.counters = None
        #: Clock reading at ``submit``, before admission.
        self.submitted = submitted
        self.future = None
        self.timer = None
        self.settled = False
        self.slot_held = False
        self.result = None
        self.done = threading.Event()
        self.lock = threading.Lock()


class KernelService:
    """A multi-tenant kernel-execution service over simulated boards."""

    def __init__(self, workers=2, mode="process", queue_depth=64,
                 baseline=None, cache=None, max_inflight=None,
                 clock=time.monotonic):
        self.baseline = baseline or ArchConfig.baseline()
        self.cache = cache or ArtifactCache()
        self.synthesizer = Synthesizer()
        self.tool = TrimmingTool(synthesizer=self.synthesizer)
        self.stats = ServiceStats(clock=clock)
        self.queue = BoundedJobQueue(queue_depth)
        self.pool = WorkerPool(workers, mode)
        self._clock = clock
        #: Uncollected tickets by job id, in submission order.
        self._tickets = {}
        self._lock = threading.Lock()
        self._inflight = threading.Semaphore(max_inflight or 2 * workers)
        self._closed = False
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-dispatch", daemon=True)
        self._dispatcher.start()

    # -- admission ---------------------------------------------------------

    def _resolve(self, job: Job):
        """Run (or reuse) the static flow; returns (arch, report, key).

        This is where the paper's per-application reuse happens: the
        trim plan, parallelism plan and synthesis report come out of
        the content-addressed cache, so only the first submission of an
        application (and mode) pays for Algorithm 1, planning and the
        synthesis model.
        """
        from ..kernels import KERNELS

        if job.benchmark not in KERNELS:
            raise AdmissionError(
                "unknown benchmark {!r}".format(job.benchmark))
        try:
            bench = KERNELS[job.benchmark](**job.params)
        except SimulationError as exc:
            # Unknown or wrong-typed parameters: refused here, not in
            # the worker.
            raise AdmissionError(str(exc)) from exc

        programs = bench.programs()
        if job.slice_instructions is not None and len(programs) > 1:
            # A checkpoint resumes the in-flight *launch*; host-side
            # choreography after it (further kernels) is not replayed,
            # so slicing is only sound for single-kernel applications.
            raise AdmissionError(
                "slice_instructions requires a single-kernel "
                "application; {} has {} kernels".format(
                    job.benchmark, len(programs)))

        if job.config in FIXED_LABELS:
            arch = ArchConfig.named(job.config)
            report = self.cache.synthesize(arch, self.synthesizer)
            return arch, report, config_key(arch)

        trim = self.cache.trim(programs, self.tool,
                               baseline=self.baseline,
                               datapath_bits=bench.datapath_bits)
        if job.config == "trimmed":
            return trim.config, trim.report, config_key(trim.config)
        arch = self.cache.plan(trim.config, job.config, self.synthesizer)
        report = self.cache.synthesize(arch, self.synthesizer)
        return arch, report, config_key(arch)

    def submit(self, job: Job, block=True, timeout=None) -> int:
        """Admit one job; returns its id.

        Raises :class:`AdmissionError` for invalid requests, and for
        backpressure (queue full beyond ``timeout`` seconds, or
        immediately with ``block=False``).
        """
        if self._closed:
            raise AdmissionError("service is shut down")
        # Stamped before admission: a job's latency includes the trim,
        # plan and synthesis its admission may run.
        submitted = self._clock()
        try:
            arch, report, key = self._resolve(job)
        except AdmissionError:
            self.stats.record_rejection()
            raise
        job_id = next_job_id()
        ticket = _Ticket(job_id, job, arch, report, key, submitted)
        with self._lock:
            self._tickets[job_id] = ticket
        try:
            self.queue.put(ticket, priority=job.priority, batch_key=key,
                           block=block, timeout=timeout)
        except AdmissionError:
            with self._lock:
                del self._tickets[job_id]
            self.stats.record_rejection()
            raise
        self.stats.record_submit()
        return job_id

    def submit_many(self, jobs, block=True, timeout=None):
        return [self.submit(job, block=block, timeout=timeout)
                for job in jobs]

    # -- dispatch ----------------------------------------------------------

    def _dispatch_loop(self):
        while True:
            ticket = self.queue.get()
            if ticket is None:
                return
            # Cap in-flight jobs so the bounded admission queue -- not
            # the executor's unbounded internal queue -- absorbs load.
            while not self._inflight.acquire(timeout=0.1):
                if self._closed:
                    self._settle(ticket, self._cancelled(ticket))
                    break
            else:
                ticket.slot_held = True
                self._dispatch(ticket)

    def _dispatch(self, ticket):
        # A resume continues work already under way: it does not
        # consume an attempt (preemption is progress, not failure).
        if ticket.resume_envelope is None:
            ticket.attempts += 1
            ticket.counters = None
        payload = JobPayload(
            job_id=ticket.job_id,
            benchmark=ticket.job.benchmark,
            params=dict(ticket.job.params),
            arch=ticket.arch,
            max_groups=ticket.job.max_groups,
            verify=ticket.job.verify,
            profile=ticket.job.profile,
            global_mem_size=ticket.job.global_mem_size,
            slice_instructions=ticket.job.slice_instructions,
            resume=ticket.resume_envelope,
        )
        if ticket.job.timeout_s is not None and ticket.timer is None:
            ticket.timer = threading.Timer(
                ticket.job.timeout_s, self._on_timeout, args=(ticket,))
            ticket.timer.daemon = True
            ticket.timer.start()
        try:
            future = self.pool.submit(payload)
        except Exception as exc:  # never let a submit error kill dispatch
            self._settle(ticket, JobResult(
                ticket.job_id, ticket.job, JobStatus.FAILED,
                error="{}: {}".format(type(exc).__name__, exc),
                attempts=ticket.attempts,
                preemptions=ticket.preemptions,
                latency_s=self._latency(ticket)))
            return
        ticket.future = future
        future.add_done_callback(partial(self._on_done, ticket))

    # -- completion --------------------------------------------------------

    def _latency(self, ticket):
        # Submission-to-settle: admission and queue wait count.  That is
        # the number a latency SLO is about -- and the one preemptive
        # time slicing improves for short jobs stuck behind a long run.
        return max(0.0, self._clock() - ticket.submitted)

    def _cancelled(self, ticket):
        return JobResult(ticket.job_id, ticket.job, JobStatus.CANCELLED,
                         error="service shut down before dispatch",
                         attempts=ticket.attempts,
                         latency_s=self._latency(ticket))

    def _on_done(self, ticket, future):
        if future.cancelled():
            # Only the timeout cancels a job's future, and it settles
            # the ticket itself.
            return
        with ticket.lock:
            if ticket.settled:
                return
        exc = future.exception()
        if isinstance(exc, BrokenExecutor):
            # The worker process died mid-job; the pool replaces it on
            # the next submit.
            exc = ServiceError("worker process died while running job "
                               "{}: {}".format(ticket.job_id, exc))
        if exc is not None:
            outcome = {"ok": False, "error": str(exc),
                       "error_type": type(exc).__name__}
        else:
            outcome = future.result()

        if not outcome["ok"]:
            if ticket.resume_envelope is not None:
                # A failed *resume* consumes an attempt like any other
                # failed run (only successful slices are free), so a
                # persistently failing resume still exhausts retries.
                ticket.attempts += 1
            if ticket.attempts <= ticket.job.retries:
                self.stats.record_retry()
                self._dispatch(ticket)
                return
            self._settle(ticket, JobResult(
                ticket.job_id, ticket.job, JobStatus.FAILED,
                error="{}: {}".format(outcome.get("error_type", "Error"),
                                      outcome.get("error", "")),
                attempts=ticket.attempts,
                preemptions=ticket.preemptions,
                latency_s=self._latency(ticket),
                worker=outcome.get("worker"),
                warm_board=outcome.get("warm_board", False)))
            return

        if "counters" in outcome:
            counters = CounterSet.from_dict(outcome["counters"])
            if ticket.counters is not None:
                counters = ticket.counters.merge(counters)
            ticket.counters = counters

        if outcome.get("preempted"):
            # The slice budget expired: the job made progress and comes
            # back as a checkpoint envelope.  Release the in-flight
            # slot *before* requeueing so a short high-priority job can
            # jump in on the (now free, still warm) board, then put the
            # ticket back at its job priority -- the resume may land on
            # any worker (the checkpoint migrates across boards).
            ticket.preemptions += 1
            ticket.resume_envelope = outcome["envelope"]
            self.stats.record_preemption()
            if ticket.slot_held:
                ticket.slot_held = False
                self._inflight.release()
            if not self.queue.requeue(ticket,
                                      priority=ticket.job.priority,
                                      batch_key=ticket.config_key):
                self._settle(ticket, self._cancelled(ticket))
            return

        metrics = RunMetrics(
            label="{}@{}".format(ticket.job.benchmark,
                                 ticket.arch.describe()),
            seconds=outcome["seconds"],
            instructions=outcome["instructions"],
            power=ticket.report.power,
        )
        self._settle(ticket, JobResult(
            ticket.job_id, ticket.job, JobStatus.DONE,
            metrics=metrics,
            attempts=ticket.attempts,
            preemptions=ticket.preemptions,
            latency_s=self._latency(ticket),
            worker=outcome.get("worker"),
            warm_board=outcome.get("warm_board", False),
            digests=outcome.get("digests", {}),
            counters=(None if ticket.counters is None
                      else PerfCounters(ticket.counters).to_dict())),
            cu_cycles=outcome.get("cu_cycles", 0.0))

    def _on_timeout(self, ticket):
        with ticket.lock:
            if ticket.settled:
                return
        future = ticket.future
        if future is not None:
            future.cancel()
        self._settle(ticket, JobResult(
            ticket.job_id, ticket.job, JobStatus.TIMEOUT,
            error=str(JobTimeoutError(ticket.job_id, ticket.job.timeout_s)),
            attempts=ticket.attempts,
            latency_s=self._latency(ticket)))

    def _settle(self, ticket, result, cu_cycles=0.0):
        with ticket.lock:
            if ticket.settled:
                return
            ticket.settled = True
            ticket.result = result
        # The ticket stays until result() collects it: drop what only
        # an unsettled job needs -- a sliced job's last checkpoint
        # (a whole memory image) and the worker future.
        ticket.resume_envelope = None
        ticket.future = None
        if ticket.timer is not None:
            ticket.timer.cancel()
        if ticket.slot_held:
            ticket.slot_held = False
            self._inflight.release()
        self.stats.record_result(result, cu_cycles=cu_cycles)
        ticket.done.set()

    # -- results -----------------------------------------------------------

    def result(self, job_id, timeout=None) -> JobResult:
        """Block until one job settles; returns its JobResult.

        Collecting a result releases the job's ticket: a later call
        with the same id raises ``ServiceError`` like an unknown id.
        """
        with self._lock:
            ticket = self._tickets.get(job_id)
        if ticket is None:
            raise ServiceError("unknown job id {}".format(job_id))
        return self._collect(ticket, timeout)

    def _collect(self, ticket, timeout):
        if not ticket.done.wait(timeout=timeout):
            raise JobTimeoutError(ticket.job_id, timeout)
        with self._lock:
            self._tickets.pop(ticket.job_id, None)
        return ticket.result

    def drain(self, timeout=None):
        """Wait for every job not yet collected; results in submission
        order."""
        deadline = None if timeout is None else self._clock() + timeout
        results = []
        with self._lock:
            tickets = list(self._tickets.values())
        for ticket in tickets:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - self._clock())
            results.append(self._collect(ticket, remaining))
        return results

    def run(self, jobs, timeout=None):
        """Convenience: submit a batch, drain it, return the results."""
        self.submit_many(jobs)
        return self.drain(timeout=timeout)

    # -- observability -----------------------------------------------------

    def snapshot(self):
        """A JSON-ready dashboard frame of the whole service."""
        return self.stats.snapshot(
            cache_stats=self.cache.stats,
            queue_depth=len(self.queue),
            queue_highwater=self.queue.depth_highwater,
            workers=self.pool.workers,
        )

    # -- lifecycle ---------------------------------------------------------

    def close(self, wait=True):
        """Stop admitting, drain the dispatcher, shut the pool down."""
        self._closed = True
        self.queue.close()
        if wait:
            self._dispatcher.join(timeout=30)
        self.pool.shutdown(wait=wait)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False
