"""repro.service: a multi-tenant kernel-execution service.

Turns the one-shot :class:`~repro.core.flow.ScratchFlow` pipeline into
a schedulable serving system: jobs name a benchmark and an
architecture spec; an admission controller resolves the static SCRATCH
flow through a content-addressed artifact cache (the paper's per-
application trimming reuse made explicit); a worker pool executes jobs
on warm simulated boards in parallel; and a stats surface reports
throughput, latency percentiles, queue pressure and cache hit rates.

Quickstart::

    from repro.service import Job, KernelService

    with KernelService(workers=4, mode="process") as svc:
        ids = svc.submit_many([
            Job("matrix_add_i32", {"n": 64}, config="trimmed"),
            Job("conv2d_f32", {"n": 32, "k": 5}, config="multicore"),
        ])
        for result in svc.drain():
            print(result.status.value, result.metrics)
        print(svc.snapshot())
"""

from .cache import (
    ArtifactCache,
    CacheStats,
    application_key,
    config_key,
)
from .jobs import (
    Job,
    JobResult,
    JobStatus,
    load_jobs,
    suite_jobs,
)
from .pool import JobPayload, WorkerPool
from .queue import BoundedJobQueue
from .scheduler import KernelService
from .stats import ServiceStats, percentile

__all__ = [
    "ArtifactCache", "CacheStats", "application_key",
    "config_key",
    "Job", "JobResult", "JobStatus", "load_jobs",
    "suite_jobs",
    "JobPayload", "WorkerPool", "BoundedJobQueue",
    "KernelService", "ServiceStats", "percentile",
]
