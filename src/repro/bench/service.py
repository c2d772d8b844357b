"""Service-level throughput and latency benchmarks.

Submits a repeated-job workload (the pattern the content-addressed
artifact cache accelerates) through a threaded
:class:`~repro.service.KernelService` and reports wall-clock job
throughput, latency percentiles and the cache hit rate.  Thread mode
keeps the measurement about the service itself -- process-pool spawn
cost is a platform property, not a regression signal.
"""

from __future__ import annotations

#: Baseline file at the repo root (see docs/benchmarking.md).
SERVICE_BASELINE_FILE = "BENCH_service.json"

#: Repeated-submission workload: each benchmark appears ``rounds``
#: times, so all but the first submission of each hits the caches.
SERVICE_BENCHMARKS = ("scan_large_arrays", "prefix_sum", "binary_search")

#: Preemption scenario knobs: a single-worker service with a backlog
#: of long jobs, then urgent short jobs submitted behind them.  The
#: board is kept small (1 MiB) so checkpoint capture -- which images
#: all of global memory -- stays a measurement of scheduling, not of
#: hashing 16 MiB per slice.
PREEMPT_LONG_JOBS = 3
PREEMPT_SHORT_JOBS = 6
PREEMPT_LONG_N = 256
PREEMPT_SLICE_INSTRUCTIONS = 4000
PREEMPT_MEM = 1 << 20


def _preemption_round(slice_instructions):
    """One single-worker run of the backlog scenario.

    Returns (short-job latencies, service snapshot).  With
    ``slice_instructions=None`` the long jobs run to completion and the
    short jobs wait behind them -- the control; with a budget, long
    jobs yield at slice boundaries and the priority queue lets the
    short jobs jump in between slices.
    """
    import time

    from ..service import Job, KernelService

    long_jobs = [Job("matrix_add_i32", {"n": PREEMPT_LONG_N},
                     config="baseline", verify=False, priority=5,
                     global_mem_size=PREEMPT_MEM,
                     slice_instructions=slice_instructions)
                 for _ in range(PREEMPT_LONG_JOBS)]
    short_jobs = [Job("matrix_add_i32", {"n": 16}, config="baseline",
                      verify=False, priority=-5,
                      global_mem_size=PREEMPT_MEM)
                  for _ in range(PREEMPT_SHORT_JOBS)]
    with KernelService(workers=1, mode="thread",
                       max_inflight=1) as service:
        service.submit_many(long_jobs)
        # The scenario is "urgent work arrives *while* a long job is
        # running" -- wait for the dispatcher to pull the first long
        # job off the queue, or the priority queue would simply run
        # the short jobs first and measure nothing.
        deadline = time.monotonic() + 5.0
        while (len(service.queue) >= len(long_jobs)
               and time.monotonic() < deadline):
            time.sleep(0.001)
        time.sleep(0.02)
        service.submit_many(short_jobs)
        results = service.drain()
        snapshot = service.snapshot()
    failed = [r for r in results if not r.ok]
    if failed:
        raise RuntimeError(
            "preemption bench had {} failed job(s); first: {}".format(
                len(failed), failed[0].error))
    short_latencies = [r.latency_s for r in results[len(long_jobs):]]
    return short_latencies, snapshot


def bench_preemption(log=None):
    """Short-job latency under a long-job backlog, with and without
    time slicing; returns the ``preemption`` sub-payload."""
    from .harness import percentile

    log = log or (lambda message: None)
    log("preemption bench: {} long + {} short jobs, 1 worker, "
        "control (no slicing) then slice={}".format(
            PREEMPT_LONG_JOBS, PREEMPT_SHORT_JOBS,
            PREEMPT_SLICE_INSTRUCTIONS))
    plain_lat, plain_snap = _preemption_round(None)
    sliced_lat, sliced_snap = _preemption_round(
        PREEMPT_SLICE_INSTRUCTIONS)
    p95_plain = percentile(plain_lat, 95)
    p95_sliced = percentile(sliced_lat, 95)
    return {
        "long_jobs": PREEMPT_LONG_JOBS,
        "short_jobs": PREEMPT_SHORT_JOBS,
        "slice_instructions": PREEMPT_SLICE_INSTRUCTIONS,
        "preemptions": sliced_snap["preemptions"],
        #: Short-job p95 with slicing on -- the SLO the scenario buys.
        "latency_p95_s": p95_sliced,
        "short_p95_plain_s": p95_plain,
        "short_latency_speedup": (p95_plain / p95_sliced
                                  if p95_sliced > 0 else 0.0),
        #: Whole-scenario throughput with slicing on, to keep the
        #: latency win honest about its checkpoint overhead.
        "jobs_per_second": sliced_snap["jobs_per_second"],
        "jobs_per_second_plain": plain_snap["jobs_per_second"],
    }


def bench_service(benchmarks=None, rounds=4, workers=2, log=None,
                  preemption=True):
    """Run the service workload; returns the ``BENCH_service`` payload.

    ``cache_hit_rate`` counts the run's own service's artifact cache,
    so it does not depend on what ran earlier in the process.
    """
    from ..service import Job, KernelService

    log = log or (lambda message: None)
    benchmarks = tuple(benchmarks or SERVICE_BENCHMARKS)
    jobs = [Job(benchmark=name, config="baseline", verify=False)
            for _ in range(rounds) for name in benchmarks]
    log("service bench: {} jobs ({} benchmarks x {} rounds), "
        "{} thread workers".format(len(jobs), len(benchmarks), rounds,
                                   workers))
    with KernelService(workers=workers, mode="thread") as service:
        service.submit_many(jobs)
        results = service.drain()
        snapshot = service.snapshot()
    failed = [r for r in results if not r.ok]
    if failed:
        raise RuntimeError(
            "service bench had {} failed job(s); first: {}".format(
                len(failed), failed[0].error))
    payload = {
        "schema": 1,
        "jobs": len(jobs),
        "rounds": rounds,
        "workers": workers,
        "benchmarks": list(benchmarks),
        "jobs_per_second": snapshot["jobs_per_second"],
        "latency_p50_s": snapshot["latency_p50_s"],
        "latency_p95_s": snapshot["latency_p95_s"],
        "cache_hit_rate": snapshot["cache"]["hit_rate"],
        "warm_board_rate": snapshot["warm_board_rate"],
    }
    if preemption:
        payload["preemption"] = bench_preemption(log=log)
    return payload


def render_service(payload):
    """Human-readable summary of one ``bench_service`` payload."""
    text = ("service: {jobs} jobs, {jobs_per_second:.2f} jobs/s, "
            "p50 {latency_p50_s:.3f}s p95 {latency_p95_s:.3f}s, "
            "cache hit rate {cache_hit_rate:.0%}, "
            "warm boards {warm_board_rate:.0%}".format(**payload))
    preempt = payload.get("preemption")
    if preempt:
        text += ("\npreemption: short-job p95 {latency_p95_s:.3f}s "
                 "sliced vs {short_p95_plain_s:.3f}s plain "
                 "({short_latency_speedup:.1f}x), {preemptions} "
                 "preemptions, {jobs_per_second:.2f} jobs/s".format(
                     **preempt))
    return text
