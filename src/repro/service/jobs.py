"""Job model of the kernel-execution service.

A :class:`Job` is one requested kernel-suite execution: it names a
benchmark application from the registry, its constructor parameters
(which fix the NDRange and argument buffers), and the architecture the
caller wants it run on as one of the six labels of
:data:`~repro.core.config.ARCH_LABELS` -- a fixed generation
(``original``, ``dcd``, ``baseline``) or one of the application-aware
SCRATCH configurations (``trimmed``, ``multicore``, ``multithread``)
that the admission controller derives per application via the trimming
tool and memoizes in the artifact cache.

Jobs are plain data (picklable) so they can cross the process boundary
into pool workers; results come back as :class:`JobResult`.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.config import ARCH_LABELS
from ..errors import AdmissionError
from ..runtime.metrics import RunMetrics
from ..soc.gpu import HEAP_BASE

_job_counter = itertools.count(1)


class JobStatus(enum.Enum):
    """Lifecycle of a job inside the service."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    TIMEOUT = "timeout"
    CANCELLED = "cancelled"


@dataclass(frozen=True)
class Job:
    """One kernel-execution request.

    ``priority`` follows the unix-nice convention: *lower* values are
    scheduled first.  ``timeout_s`` bounds wall-clock execution time in
    the worker; ``retries`` is how many times a failed attempt is
    re-dispatched before the job is reported FAILED.  ``profile``
    returns the run's performance counters, built from its aggregates
    without an observer; a time-sliced job's
    counters cover all of its slices.  ``global_mem_size`` sizes the
    board's global memory for jobs whose working set exceeds the
    default (the board pool is keyed by it, so a large-memory job is
    never handed an undersized warm board).  ``config`` is one of the
    six :data:`~repro.core.config.ARCH_LABELS`.
    """

    benchmark: str
    params: Dict[str, object] = field(default_factory=dict)
    config: str = "trimmed"
    priority: int = 0
    max_groups: Optional[int] = None
    verify: bool = True
    timeout_s: Optional[float] = None
    retries: int = 0
    tag: str = ""
    profile: bool = False             # return PerfCounters from the worker
    global_mem_size: Optional[int] = None  # board global-memory bytes
    #: Preemption budget: the job yields a checkpoint and returns to
    #: the queue every time a launch retires this many instructions,
    #: letting shorter, higher-priority jobs jump in on the warm board.
    slice_instructions: Optional[int] = None

    def __post_init__(self):
        if self.config not in ARCH_LABELS:
            raise AdmissionError(
                "unknown config spec {!r}; expected one of {}".format(
                    self.config, ", ".join(ARCH_LABELS)))
        if self.retries < 0:
            raise AdmissionError("negative retry budget")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise AdmissionError("timeout_s must be positive")
        if self.global_mem_size is not None \
                and self.global_mem_size <= HEAP_BASE:
            raise AdmissionError(
                "global_mem_size must exceed the heap base (0x{:x})"
                .format(HEAP_BASE))
        if self.slice_instructions is not None \
                and self.slice_instructions < 1:
            raise AdmissionError("slice_instructions must be >= 1")

    def describe(self):
        return "{}({}) on {}".format(
            self.benchmark,
            ", ".join("{}={}".format(k, v)
                      for k, v in sorted(self.params.items())),
            self.config)


def next_job_id():
    """Monotonic job ids, unique within one service process."""
    return next(_job_counter)


@dataclass
class JobResult:
    """What the service reports back for one job."""

    job_id: int
    job: Job
    status: JobStatus
    metrics: Optional[RunMetrics] = None
    error: str = ""
    attempts: int = 1
    #: Times the job was preempted at a slice boundary and requeued
    #: (resume dispatches are not attempts: preemption is progress).
    preemptions: int = 0
    latency_s: float = 0.0
    worker: Optional[int] = None      # worker pid (process mode)
    warm_board: bool = False          # reused a pooled SoftGpu
    digests: Dict[str, str] = field(default_factory=dict)
    counters: Optional[Dict[str, object]] = None  # PerfCounters.to_dict()

    @property
    def ok(self):
        return self.status is JobStatus.DONE

    def to_dict(self):
        out = {
            "job_id": self.job_id,
            "benchmark": self.job.benchmark,
            "config": self.job.config,
            "tag": self.job.tag,
            "status": self.status.value,
            "attempts": self.attempts,
            "preemptions": self.preemptions,
            "latency_s": self.latency_s,
            "worker": self.worker,
            "warm_board": self.warm_board,
            "digests": dict(self.digests),
        }
        if self.metrics is not None:
            out["metrics"] = self.metrics.to_dict()
        if self.counters is not None:
            out["counters"] = self.counters
        if self.error:
            out["error"] = self.error
        return out


def load_jobs(source):
    """Parse a job list from a JSON file path, file object, or dict.

    Format::

        {"jobs": [
          {"benchmark": "matrix_add_i32", "params": {"n": 64},
           "config": "trimmed", "priority": 0, "repeat": 3}
        ]}

    ``repeat`` expands one entry into N identical jobs (the repeated-
    submission pattern the artifact cache accelerates), at most
    :data:`MAX_REPEAT`.  A bare list is accepted in place of the
    wrapping object.  An unknown field, or a field of the wrong JSON
    type, raises :class:`AdmissionError` naming the entry index and the
    field.
    """
    try:
        if isinstance(source, str):
            with open(source) as handle:
                payload = json.load(handle)
        elif hasattr(source, "read"):
            payload = json.load(source)
        else:
            payload = source
    except json.JSONDecodeError as exc:
        raise AdmissionError("job list is not valid JSON: {}".format(exc))
    if isinstance(payload, dict):
        entries = payload.get("jobs", [])
    else:
        entries = payload
    if not isinstance(entries, list):
        raise AdmissionError("job list must be a JSON array")

    jobs = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "benchmark" not in entry:
            raise AdmissionError(
                "job entry {} must be an object with a 'benchmark' key"
                .format(i))
        entry = dict(entry)
        unknown = set(entry) - set(_ENTRY_FIELDS)
        if unknown:
            raise AdmissionError(
                "job entry {}: unknown fields {}".format(i, sorted(unknown)))
        for name, value in entry.items():
            _check_field_type(i, name, value)
        repeat = entry.pop("repeat", 1)
        if not 1 <= repeat <= MAX_REPEAT:
            raise AdmissionError(
                "job entry {}: repeat must be in 1..{}, got {}".format(
                    i, MAX_REPEAT, repeat))
        job = Job(**entry)
        jobs.extend([job] * repeat)
    return jobs


#: The largest ``repeat`` one job-file entry may ask for: the entry
#: expands into that many jobs before any is admitted.
MAX_REPEAT = 10_000


#: The fields a job-file entry may carry, each with the JSON types it
#: accepts (``None`` is JSON null).  ``repeat`` is the file format's
#: own; the rest are :class:`Job` fields.
_ENTRY_FIELDS = {
    "benchmark": (str,),
    "params": (dict,),
    "config": (str,),
    "priority": (int,),
    "max_groups": (int, None),
    "verify": (bool,),
    "timeout_s": (int, float, None),
    "retries": (int,),
    "tag": (str,),
    "profile": (bool,),
    "global_mem_size": (int, None),
    "slice_instructions": (int, None),
    "repeat": (int,),
}


def _check_field_type(index, name, value):
    accepted = _ENTRY_FIELDS[name]
    if value is None:
        ok = None in accepted
    elif isinstance(value, bool):
        # JSON true/false are not numbers, although Python bools are ints.
        ok = bool in accepted
    else:
        ok = isinstance(value, tuple(t for t in accepted if t is not None))
    if not ok:
        raise AdmissionError(
            "job entry {}: field {!r} must be {}, got {!r}".format(
                index, name,
                " or ".join("null" if t is None else t.__name__
                            for t in accepted),
                value))


def suite_jobs(config="trimmed", verify=True, names=None):
    """Jobs for the paper's standard evaluation suite (Section 4).

    One job per benchmark of ``EVAL_CONFIGS`` at the standard scaled
    sizes -- the default workload of ``python -m repro serve``.
    Verifying runs execute every workgroup (sampling would leave the
    unexecuted part of the output unfilled); timing-only runs keep the
    suite's workgroup-sampling caps.
    """
    from ..kernels.suite import EVAL_CONFIGS

    jobs = []
    for name, (params, max_groups) in EVAL_CONFIGS.items():
        if names is not None and name not in names:
            continue
        jobs.append(Job(benchmark=name, params=dict(params), config=config,
                        max_groups=None if verify else max_groups,
                        verify=verify))
    return jobs
