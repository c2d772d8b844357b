"""The service half of ``repro bench``: deterministic counts from a
fixed job mix.

Submits a repeated-job workload (the pattern the content-addressed
artifact cache accelerates) through a one-worker inline
:class:`~repro.service.KernelService` and reports how much of it the
caches served: ``cache_hit_rate`` and ``warm_board_rate``.  Inline mode
runs the jobs in submission order on one board, so both rates are
exact.  How fast the host runs jobs is perfbench's to measure (its
``sdk_serve`` workload).

The ``preemption`` block runs a round of sliced long jobs with one
in-flight slot and counts the slice boundaries they yield at.  That a
short job lands between those slices is a scheduling claim, tested in
``tests/service/test_service.py``.
"""

from __future__ import annotations

#: Baseline file at the repo root (see docs/benchmarking.md).
SERVICE_BASELINE_FILE = "BENCH_service.json"

#: Repeated-submission workload: each benchmark appears
#: ``SERVICE_ROUNDS`` times, so all but the first submission of each
#: hits the caches.
SERVICE_BENCHMARKS = ("scan_large_arrays", "prefix_sum", "binary_search")
SERVICE_ROUNDS = 4

#: Preemption round: long jobs sliced every ``PREEMPT_SLICE_INSTRUCTIONS``
#: instructions.  The board is kept small (1 MiB) so checkpoint capture,
#: which images all of global memory, stays cheap.
PREEMPT_LONG_JOBS = 3
PREEMPT_LONG_N = 256
PREEMPT_SLICE_INSTRUCTIONS = 4000
PREEMPT_MEM = 1 << 20


def _run_inline(jobs, what, **service_args):
    """Run ``jobs`` through a one-worker inline service; returns its
    final snapshot.  Any failed job fails the bench."""
    from ..service import KernelService

    with KernelService(workers=1, mode="inline", **service_args) as service:
        service.submit_many(jobs)
        results = service.drain()
        snapshot = service.snapshot()
    failed = [r for r in results if not r.ok]
    if failed:
        raise RuntimeError("{} bench had {} failed job(s); first: {}".format(
            what, len(failed), failed[0].error))
    return snapshot


def bench_preemption(log=None):
    """One sliced round of the long jobs; returns the ``preemption``
    sub-payload."""
    from ..service import Job

    log = log or (lambda message: None)
    log("preemption bench: {} long jobs, slice={}".format(
        PREEMPT_LONG_JOBS, PREEMPT_SLICE_INSTRUCTIONS))
    jobs = [Job("matrix_add_i32", {"n": PREEMPT_LONG_N}, config="baseline",
                verify=False, global_mem_size=PREEMPT_MEM,
                slice_instructions=PREEMPT_SLICE_INSTRUCTIONS)
            for _ in range(PREEMPT_LONG_JOBS)]
    snapshot = _run_inline(jobs, "preemption", max_inflight=1)
    return {
        "long_jobs": PREEMPT_LONG_JOBS,
        "slice_instructions": PREEMPT_SLICE_INSTRUCTIONS,
        "preemptions": snapshot["preemptions"],
    }


def bench_service(log=None):
    """Run the service workload; returns the ``BENCH_service`` payload.

    ``cache_hit_rate`` counts the run's own service's artifact cache,
    so it does not depend on what ran earlier in the process.
    """
    from ..service import Job

    log = log or (lambda message: None)
    jobs = [Job(benchmark=name, config="baseline", verify=False)
            for _ in range(SERVICE_ROUNDS) for name in SERVICE_BENCHMARKS]
    log("service bench: {} jobs ({} benchmarks x {} rounds), "
        "1 inline worker".format(len(jobs), len(SERVICE_BENCHMARKS),
                                 SERVICE_ROUNDS))
    snapshot = _run_inline(jobs, "service")
    return {
        "schema": 2,
        "jobs": len(jobs),
        "benchmarks": list(SERVICE_BENCHMARKS),
        "cache_hit_rate": snapshot["cache"]["hit_rate"],
        "warm_board_rate": snapshot["warm_board_rate"],
        "preemption": bench_preemption(log=log),
    }


def render_service(payload):
    """Human-readable summary of one ``bench_service`` payload."""
    return ("service: {jobs} jobs, cache hit rate {cache_hit_rate:.0%}, "
            "warm boards {warm_board_rate:.0%}\n"
            "preemption: {long_jobs} long jobs, {preemptions} preemptions "
            "at slice={slice_instructions}".format(
                **payload, **payload["preemption"]))
