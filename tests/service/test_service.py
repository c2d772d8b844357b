"""End-to-end KernelService behaviour.

The load-bearing test is `test_service_matches_direct_execution`: jobs
routed through the admission queue, cache and worker pool must produce
*bit-identical* outputs and identical simulated timings to a plain
``SoftGpu`` run of the same benchmark on the same architecture.
"""

import hashlib

import pytest

from repro.core.trimmer import TrimmingTool
from repro.errors import AdmissionError, ServiceError, SimulationError
from repro.kernels import KERNELS
from repro.kernels.base import Benchmark
from repro.runtime.device import SoftGpu
from repro.service import Job, JobStatus, KernelService, WorkerPool
from repro.service.pool import JobPayload

SMALL_JOBS = [
    Job("matrix_add_i32", {"n": 32}, config="trimmed"),
    Job("matrix_add_f32", {"n": 32}, config="trimmed"),
    Job("matrix_mul_i32", {"n": 8}, config="multicore"),
    Job("bitonic_sort_i32", {"n": 256}, config="baseline"),
]


def direct_run(job):
    """Reference execution: the same job without the service."""
    bench = KERNELS[job.benchmark](**job.params)
    if job.config in ("original", "dcd", "baseline"):
        from repro.core.config import ArchConfig
        arch = getattr(ArchConfig, job.config)()
    else:
        trim = TrimmingTool().trim(bench.programs(),
                                   datapath_bits=bench.datapath_bits)
        arch = trim.config
        if job.config != "trimmed":
            from repro.core.parallelize import plan
            arch = plan(trim.config, job.config)
    device = SoftGpu(arch, max_groups=job.max_groups)
    ctx = bench.run_on(device, verify=True)
    digests = {
        name: hashlib.sha256(
            device.read(ctx[name], dtype="u1").tobytes()).hexdigest()
        for name in bench.reference(ctx)
    }
    return device.elapsed_seconds, device.instructions, digests


class TestCorrectness:
    def test_service_matches_direct_execution(self):
        with KernelService(workers=2, mode="thread") as svc:
            results = svc.run(SMALL_JOBS, timeout=300)
        assert all(r.status is JobStatus.DONE for r in results)
        for job, result in zip(SMALL_JOBS, results):
            seconds, instructions, digests = direct_run(job)
            assert result.metrics.seconds == seconds
            assert result.metrics.instructions == instructions
            assert result.digests == digests

    def test_repeated_jobs_identical_and_cached(self):
        job = Job("matrix_add_i32", {"n": 32}, config="trimmed")
        with KernelService(workers=1, mode="thread") as svc:
            results = svc.run([job] * 4, timeout=300)
            snapshot = svc.snapshot()
        assert len({r.metrics.seconds for r in results}) == 1
        assert len({tuple(sorted(r.digests.items()))
                    for r in results}) == 1
        # Static flow ran once; three submissions were pure cache hits.
        assert snapshot["cache"]["misses"]["trim"] == 1
        assert snapshot["cache"]["hits"]["trim"] == 3
        # One worker: every job after the first reused the warm board.
        assert sum(r.warm_board for r in results) == 3

    def test_inline_mode(self):
        with KernelService(workers=1, mode="inline") as svc:
            (result,) = svc.run(
                [Job("matrix_add_i32", {"n": 32})], timeout=300)
        assert result.ok
        assert result.metrics.ipj > 0

    def test_profiled_job_returns_counters(self):
        plain = Job("matrix_add_i32", {"n": 32}, config="baseline")
        profiled = Job("matrix_add_i32", {"n": 32}, config="baseline",
                       profile=True)
        with KernelService(workers=1, mode="thread") as svc:
            plain_res, prof_res = svc.run([plain, profiled], timeout=300)
        assert plain_res.counters is None
        counters = prof_res.counters
        assert counters is not None
        assert counters["issue"]["total"] \
            == prof_res.metrics.instructions
        stall_total = sum(counters["stall"].values())
        assert counters["cycles"]["active"] + stall_total \
            == pytest.approx(counters["cycles"]["total"])
        assert "counters" in prof_res.to_dict()
        # Profiling one job must not slow or change the other: the
        # observer is detached before the board goes back on the shelf.
        assert plain_res.metrics.seconds == prof_res.metrics.seconds


class TestProcessPool:
    def test_process_workers_execute_and_reuse_boards(self):
        jobs = [Job("matrix_add_i32", {"n": 32}, config="trimmed")
                for _ in range(4)]
        with KernelService(workers=2, mode="process") as svc:
            results = svc.run(jobs, timeout=300)
        assert all(r.ok for r in results)
        assert len({r.metrics.seconds for r in results}) == 1
        assert any(r.warm_board for r in results)
        workers = {r.worker for r in results}
        assert len(workers) >= 1  # pids from the pool, not the parent
        import os
        assert os.getpid() not in workers


class TestAdmission:
    def test_unknown_benchmark_rejected(self):
        with KernelService(workers=1, mode="inline") as svc:
            with pytest.raises(AdmissionError, match="unknown benchmark"):
                svc.submit(Job("does_not_exist"))
            assert svc.snapshot()["rejected"] == 1

    def test_submit_after_close_rejected(self):
        svc = KernelService(workers=1, mode="inline")
        svc.close()
        with pytest.raises(AdmissionError):
            svc.submit(Job("matrix_add_i32", {"n": 32}))

    def test_unknown_job_id(self):
        with KernelService(workers=1, mode="inline") as svc:
            with pytest.raises(ServiceError, match="unknown job"):
                svc.result(10**9)

    def test_priority_orders_dispatch(self):
        """With one worker, lower priority values run first."""
        with KernelService(workers=1, mode="thread",
                           max_inflight=1) as svc:
            jobs = [
                Job("matrix_add_i32", {"n": 32}, priority=5, tag="slow-lane"),
                Job("matrix_add_i32", {"n": 32}, priority=-5, tag="urgent"),
            ]
            results = svc.run(jobs, timeout=300)
        assert all(r.ok for r in results)


class _ExplodingBench(Benchmark):
    """Test-only benchmark that always fails in the worker."""

    name = "exploding_bench"
    defaults = {"n": 8}

    def programs(self):
        return KERNELS["matrix_add_i32"](n=self.n).programs()

    def prepare(self, device):
        raise SimulationError("boom")


@pytest.fixture
def exploding_bench():
    KERNELS[_ExplodingBench.name] = _ExplodingBench
    try:
        yield
    finally:
        del KERNELS[_ExplodingBench.name]


class TestFailurePolicy:
    def test_failure_reported_with_retries(self, exploding_bench):
        with KernelService(workers=1, mode="thread") as svc:
            (result,) = svc.run(
                [Job("exploding_bench", retries=2)], timeout=300)
        assert result.status is JobStatus.FAILED
        assert result.attempts == 3
        assert "boom" in result.error
        assert "SimulationError" in result.error

    def test_retry_accounting(self, exploding_bench):
        with KernelService(workers=1, mode="thread") as svc:
            svc.run([Job("exploding_bench", retries=1)], timeout=300)
            assert svc.snapshot()["retries"] == 1

    def test_timeout_marks_job(self):
        with KernelService(workers=1, mode="thread") as svc:
            (result,) = svc.run(
                [Job("matrix_mul_i32", {"n": 32}, timeout_s=1e-4)],
                timeout=300)
        assert result.status is JobStatus.TIMEOUT
        assert "timeout" in result.error

    def test_verify_failure_fails_job(self, monkeypatch):
        """A wrong-output job must fail loudly, not return garbage."""
        real_reference = KERNELS["matrix_add_i32"].reference

        def bad_reference(self, ctx):
            refs = real_reference(self, ctx)
            return {k: v + 1 for k, v in refs.items()}

        monkeypatch.setattr(KERNELS["matrix_add_i32"], "reference",
                            bad_reference)
        with KernelService(workers=1, mode="thread") as svc:
            (result,) = svc.run(
                [Job("matrix_add_i32", {"n": 32}, verify=True)],
                timeout=300)
        assert result.status is JobStatus.FAILED
        assert "mismatch" in result.error


class TestStats:
    def test_snapshot_shape(self):
        with KernelService(workers=2, mode="thread") as svc:
            svc.run([Job("matrix_add_i32", {"n": 32})] * 3, timeout=300)
            snap = svc.snapshot()
        assert snap["submitted"] == 3
        assert snap["completed"] == 3
        assert snap["jobs_per_second"] > 0
        assert snap["cycles_per_second"] > 0
        assert snap["latency_p95_s"] >= snap["latency_p50_s"] >= 0
        assert 0 <= snap["cache"]["hit_rate"] <= 1
        assert snap["queue_depth"] == 0
        assert snap["queue_depth_highwater"] >= 1


class TestPoolUnit:
    def test_bad_mode_rejected(self):
        with pytest.raises(ServiceError, match="mode"):
            WorkerPool(1, mode="quantum")
        with pytest.raises(ServiceError, match="worker"):
            WorkerPool(0, mode="inline")

    def test_inline_payload_roundtrip(self):
        from repro.core.config import ArchConfig
        from repro.service.cache import config_key
        arch = ArchConfig.baseline()
        with WorkerPool(1, mode="inline") as pool:
            payload = JobPayload(
                job_id=1, benchmark="matrix_add_i32", params={"n": 32},
                arch=arch, config_key=config_key(arch))
            outcome = pool.submit(payload).result()
        assert outcome["ok"]
        assert outcome["seconds"] > 0
        assert set(outcome["digests"]) == {"out"}


class TestEnginePlumbing:
    def test_job_engine_reaches_the_launch(self):
        jobs = [Job("matrix_add_i32", {"n": 32}, config="baseline",
                    engine=engine)
                for engine in ("reference", "superblock")]
        with KernelService(workers=1, mode="thread") as svc:
            ref_res, sb_res = svc.run(jobs, timeout=300)
        assert ref_res.engine == "reference"
        assert sb_res.engine == "superblock"
        assert ref_res.to_dict()["engine"] == "reference"
        # Engine choice never changes simulated results.
        assert ref_res.metrics.seconds == sb_res.metrics.seconds
        assert ref_res.digests == sb_res.digests

    def test_engine_validated_at_admission(self):
        with pytest.raises(AdmissionError, match="launch engine"):
            Job("matrix_add_i32", engine="warp")

    def test_engines_share_one_warm_board(self):
        """Pinning different engines must not fragment the board pool:
        the engine is per-lease, not part of the board key."""
        jobs = [Job("matrix_add_i32", {"n": 32}, config="baseline",
                    engine=engine)
                for engine in ("reference", "superblock", "reference")]
        with KernelService(workers=1, mode="thread") as svc:
            results = svc.run(jobs, timeout=300)
        assert [r.warm_board for r in results] == [False, True, True]


class TestPreemption:
    def test_sliced_job_matches_plain_run(self):
        """A time-sliced job yields at slice boundaries, resumes from
        its checkpoint, and still produces the unsliced result --
        identical simulated time, instruction count and digests."""
        plain = Job("matrix_add_i32", {"n": 128}, config="baseline",
                    verify=False)
        sliced = Job("matrix_add_i32", {"n": 128}, config="baseline",
                     verify=False, slice_instructions=400)
        with KernelService(workers=1, mode="thread") as svc:
            plain_res, sliced_res = svc.run([plain, sliced], timeout=300)
            snap = svc.snapshot()
        assert plain_res.ok and sliced_res.ok
        assert plain_res.preemptions == 0
        assert sliced_res.preemptions >= 1
        assert sliced_res.metrics.seconds == plain_res.metrics.seconds
        assert sliced_res.metrics.instructions \
            == plain_res.metrics.instructions
        # Sliced runs digest every heap buffer (a superset of the
        # benchmark's declared outputs).
        for name, digest in plain_res.digests.items():
            assert sliced_res.digests[name] == digest
        assert snap["preemptions"] == sliced_res.preemptions
        assert "preemptions" in sliced_res.to_dict()

    def test_preemption_is_not_a_retry(self):
        """Slices are progress, not failures: a job preempted many
        times still reports a single attempt."""
        job = Job("matrix_add_i32", {"n": 128}, config="baseline",
                  verify=False, slice_instructions=400)
        with KernelService(workers=1, mode="thread") as svc:
            (result,) = svc.run([job], timeout=300)
            assert svc.snapshot()["retries"] == 0
        assert result.preemptions >= 2
        assert result.attempts == 1

    def test_short_job_lands_between_slices(self):
        """The point of preemption: with one worker and one in-flight
        slot, a short urgent job submitted behind a long sliced job
        completes while the long job is still being time-sliced."""
        long_job = Job("matrix_add_i32", {"n": 128}, config="baseline",
                       verify=False, slice_instructions=400, priority=5)
        short_job = Job("matrix_add_i32", {"n": 16}, config="baseline",
                        verify=False, priority=-5)
        with KernelService(workers=1, mode="thread",
                           max_inflight=1) as svc:
            long_id = svc.submit(long_job)
            short_id = svc.submit(short_job)
            short_res = svc.result(short_id, timeout=300)
            long_res = svc.result(long_id, timeout=300)
        assert short_res.ok and long_res.ok
        assert long_res.preemptions >= 1

    def test_multi_kernel_application_rejected(self):
        """A checkpoint resumes a launch, not host choreography, so
        slicing multi-kernel applications is refused at admission."""
        with KernelService(workers=1, mode="inline") as svc:
            with pytest.raises(AdmissionError, match="single-kernel"):
                svc.submit(Job("cnn_i32", config="baseline",
                               slice_instructions=100))

    def test_requeue_after_close_cancels(self):
        """A slice that lands after shutdown settles as CANCELLED
        instead of deadlocking on the closed queue."""
        from repro.service.queue import BoundedJobQueue

        queue = BoundedJobQueue(2)
        queue.close()
        assert queue.requeue(object()) is False


class TestMemorySizePlumbing:
    def test_job_memory_size_reaches_the_board(self):
        """A job with a big working set gets a board sized for it; the
        default-size board must not be reused (different content key)."""
        small = Job("matrix_add_i32", {"n": 32}, config="baseline")
        big = Job("matrix_add_i32", {"n": 32}, config="baseline",
                  global_mem_size=1 << 25)
        with KernelService(workers=1, mode="thread") as svc:
            results = svc.run([small, big, big], timeout=300)
        assert all(r.ok for r in results)
        # Same arch, different memory size: the second job is cold,
        # the third reuses the big board.
        assert [r.warm_board for r in results] == [False, False, True]
        # Board sizing never changes simulated results.
        assert results[0].metrics.seconds == results[1].metrics.seconds
        assert results[0].digests == results[1].digests

    def test_memory_size_validated_at_admission(self):
        with pytest.raises(AdmissionError, match="global_mem_size"):
            Job("matrix_add_i32", global_mem_size=16)
