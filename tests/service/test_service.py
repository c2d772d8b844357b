"""End-to-end KernelService behaviour.

The load-bearing test is `test_service_matches_direct_execution`: jobs
routed through the admission queue, cache and worker pool must produce
*bit-identical* outputs and identical simulated timings to a plain
``SoftGpu`` run of the same benchmark on the same architecture.
"""

import hashlib

import pytest

from repro.core.flow import ScratchFlow
from repro.errors import AdmissionError, ServiceError, SimulationError
from repro.kernels import KERNELS
from repro.kernels.base import Benchmark
from repro.runtime.device import SoftGpu
from repro.service import Job, JobStatus, KernelService, WorkerPool, load_jobs
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
    arch = ScratchFlow(bench).arch(job.config)
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
            == counters["cycles"]["total"]
        assert "counters" in prof_res.to_dict()
        # Profiled jobs count from run aggregates; no loop provenance.
        assert "engine" not in prof_res.to_dict()
        # Profiling one job must not slow or change the other.
        assert plain_res.metrics.seconds == prof_res.metrics.seconds


    def test_sliced_profiled_job_reports_whole_job_counters(self):
        """A time-sliced profiled job merges every slice's counters:
        exactly the unsliced job's, peak occupancy included."""
        base = dict(config="baseline", verify=False, profile=True)
        whole = Job("matrix_add_i32", {"n": 128}, **base)
        sliced = Job("matrix_add_i32", {"n": 128},
                     slice_instructions=400, **base)
        with KernelService(workers=1, mode="inline") as svc:
            whole_res, sliced_res = svc.run([whole, sliced], timeout=300)
        assert sliced_res.preemptions >= 2
        assert sliced_res.counters["issue"]["total"] == 4352
        assert sliced_res.counters == whole_res.counters
        assert sliced_res.metrics.instructions == 4352

    def test_parallelism_plan_memoized_at_admission(self):
        jobs = [Job("matrix_add_i32", {"n": 32}, config=mode, verify=False)
                for mode in ("multithread", "multithread", "multicore")]
        with KernelService(workers=1, mode="inline") as svc:
            results = svc.run(jobs, timeout=300)
            stats = svc.cache.stats
        assert all(r.ok for r in results)
        assert stats.hits["plan"] == 1
        assert stats.misses["plan"] == 2


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

    def test_killed_worker_fails_its_job_and_the_next_job_completes(self):
        import os
        import signal
        import time

        with KernelService(workers=1, mode="process") as svc:
            doomed = svc.submit(Job("matrix_mul_i32", {"n": 64},
                                    config="baseline"))
            deadline = time.monotonic() + 60
            while not svc.pool._executor._processes:
                assert time.monotonic() < deadline, "worker never started"
                time.sleep(0.005)
            for pid in list(svc.pool._executor._processes):
                os.kill(pid, signal.SIGKILL)
            failed = svc.result(doomed, timeout=60)
            assert failed.status is JobStatus.FAILED
            assert failed.error.startswith("ServiceError: worker process died")
            after = svc.submit(Job("matrix_add_i32", {"n": 32},
                                   config="trimmed"))
            result = svc.result(after, timeout=120)
        assert result.status is JobStatus.DONE, result.error


class TestAdmission:
    def test_unknown_benchmark_rejected(self):
        with KernelService(workers=1, mode="inline") as svc:
            with pytest.raises(AdmissionError, match="unknown benchmark"):
                svc.submit(Job("does_not_exist"))
            assert svc.snapshot()["rejected"] == 1

    @pytest.mark.parametrize("params,message", [
        ({"bogus": 1}, "unknown parameters"),
        ({"n": "x"}, "parameter 'n' must be int, got str"),
    ])
    def test_bad_params_rejected(self, params, message):
        with KernelService(workers=1, mode="inline") as svc:
            with pytest.raises(AdmissionError, match=message):
                svc.submit(Job("matrix_add_i32", params))
            assert svc.snapshot()["rejected"] == 1

    @pytest.mark.parametrize("name,params,message", [
        ("matrix_add_i32", {"n": -4}, "'n' must be non-negative, got -4"),
        ("matrix_mul_i32", {"seed": -1},
         "'seed' must be non-negative, got -1"),
        ("cnn_i32", {"channels": [1, -4]},
         "'channels' items must be non-negative, got -4"),
    ])
    def test_negative_integer_params_rejected(self, name, params, message):
        """Refused at admission with a typed error, not failed in the
        worker with a raw ``ValueError``; a job file entry likewise."""
        (loaded,) = load_jobs([{"benchmark": name, "params": params}])
        with KernelService(workers=1, mode="inline") as svc:
            for job in (Job(name, params), loaded):
                with pytest.raises(AdmissionError, match=message):
                    svc.submit(job)
            assert svc.snapshot()["rejected"] == 2

    def test_submit_after_close_rejected(self):
        svc = KernelService(workers=1, mode="inline")
        svc.close()
        with pytest.raises(AdmissionError):
            svc.submit(Job("matrix_add_i32", {"n": 32}))

    def test_unknown_job_id(self):
        with KernelService(workers=1, mode="inline") as svc:
            with pytest.raises(ServiceError, match="unknown job"):
                svc.result(10**9)

    def test_collected_tickets_are_released(self):
        """A long-lived service keeps no ticket for a collected job."""
        job = Job("matrix_add_i32", {"n": 16}, config="baseline",
                  verify=False)
        with KernelService(workers=1, mode="inline") as svc:
            for _ in range(50):
                job_id = svc.submit(job)
                assert svc.result(job_id).ok
            assert len(svc._tickets) == 0
            with pytest.raises(ServiceError, match="unknown job id"):
                svc.result(job_id)

    def test_drain_returns_uncollected_jobs(self):
        job = Job("matrix_add_i32", {"n": 16}, config="baseline",
                  verify=False)
        with KernelService(workers=1, mode="inline") as svc:
            ids = [svc.submit(job) for _ in range(3)]
            assert svc.result(ids[1]).ok
            assert [r.job_id for r in svc.drain()] == [ids[0], ids[2]]
            assert svc.drain() == []

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

    def test_timeout_of_a_queued_job_logs_no_error(self, caplog):
        """A job timing out while queued behind a long one is cancelled
        and settles TIMEOUT; the cancelled future's completion callback
        must not raise (concurrent.futures would log it as an ERROR)."""
        import logging

        long_job = Job("matrix_mul_i32", {"n": 64}, config="baseline")
        short_job = Job("matrix_add_i32", {"n": 16}, config="baseline",
                        timeout_s=0.05)
        with caplog.at_level(logging.ERROR):
            with KernelService(workers=1, mode="thread",
                               max_inflight=2) as svc:
                long_res, short_res = svc.run([long_job, short_job],
                                              timeout=300)
        assert long_res.ok
        assert short_res.status is JobStatus.TIMEOUT
        assert [r for r in caplog.records
                if r.levelno >= logging.ERROR] == []

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


    def test_latency_includes_admission(self, monkeypatch):
        # A clock that only moves inside admission: the whole latency
        # is the time ``_resolve`` took.
        now = [0.0]
        with KernelService(workers=1, mode="inline",
                           clock=lambda: now[0]) as svc:
            resolve = svc._resolve

            def slow_resolve(job):
                now[0] += 100.0
                return resolve(job)

            monkeypatch.setattr(svc, "_resolve", slow_resolve)
            (result,) = svc.run([Job("matrix_add_i32", {"n": 32})],
                                timeout=300)
            snapshot = svc.snapshot()
        assert result.ok
        assert result.latency_s == 100.0
        assert snapshot["latency_p50_s"] == 100.0


class TestPoolUnit:
    def test_bad_mode_rejected(self):
        with pytest.raises(ServiceError, match="mode"):
            WorkerPool(1, mode="quantum")
        with pytest.raises(ServiceError, match="worker"):
            WorkerPool(0, mode="inline")

    def test_inline_payload_roundtrip(self):
        from repro.core.config import ArchConfig
        with WorkerPool(1, mode="inline") as pool:
            payload = JobPayload(
                job_id=1, benchmark="matrix_add_i32", params={"n": 32},
                arch=ArchConfig.baseline())
            outcome = pool.submit(payload).result()
        assert outcome["ok"]
        assert outcome["seconds"] > 0
        assert set(outcome["digests"]) == {"out"}


class TestEnginePlumbing:
    """There is one issue loop and no engine field: a job attaches no
    observer -- profiling counts from run aggregates -- and its result
    names no loop."""

    def test_profiled_and_plain_jobs_agree(self):
        jobs = [Job("matrix_add_i32", {"n": 32}, config="baseline",
                    profile=profile)
                for profile in (True, False)]
        with KernelService(workers=1, mode="thread") as svc:
            prof_res, sb_res = svc.run(jobs, timeout=300)
        assert "engine" not in prof_res.to_dict()
        assert "engine" not in sb_res.to_dict()
        # Profiling never changes simulated results.
        assert prof_res.metrics.seconds == sb_res.metrics.seconds
        assert prof_res.digests == sb_res.digests

    def test_engine_validated_at_admission(self):
        from repro.service import load_jobs

        with pytest.raises(TypeError, match="engine"):
            Job("matrix_add_i32", engine="superblock")
        with pytest.raises(AdmissionError,
                           match="entry 0: unknown fields.*'engine'"):
            load_jobs([{"benchmark": "matrix_add_i32",
                        "engine": "superblock"}])

    def test_engines_share_one_warm_board(self):
        """Profiled and plain jobs must not fragment the board pool:
        profiling is per-request, not part of the board key."""
        jobs = [Job("matrix_add_i32", {"n": 32}, config="baseline",
                    profile=profile)
                for profile in (True, False, True)]
        with KernelService(workers=1, mode="thread") as svc:
            results = svc.run(jobs, timeout=300)
        assert [r.warm_board for r in results] == [False, True, True]


class TestPreemption:
    def test_sliced_job_matches_plain_run(self):
        """A time-sliced job yields at slice boundaries, resumes from
        its checkpoint, and still produces the unsliced result --
        every result field but identity and slicing, digests included
        (same output names, same hashes)."""
        from dataclasses import fields

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
        assert sliced_res.digests == plain_res.digests
        # Only identity, slicing itself and dispatch provenance differ.
        unsliced = ("job_id", "job", "preemptions", "latency_s", "worker",
                    "warm_board")
        for f in fields(plain_res):
            if f.name not in unsliced:
                assert getattr(sliced_res, f.name) \
                    == getattr(plain_res, f.name), f.name
        assert snap["preemptions"] == sliced_res.preemptions
        assert "preemptions" in sliced_res.to_dict()

    def test_sliced_job_is_verified_once(self, monkeypatch):
        """A sliced job with ``verify=True`` checks its outputs against
        the benchmark reference exactly once -- on the slice that
        finishes the launch."""
        bench_cls = KERNELS["matrix_add_i32"]
        real_verify = bench_cls.verify
        calls = []

        def counting_verify(self, device, ctx):
            calls.append(self.name)
            return real_verify(self, device, ctx)

        monkeypatch.setattr(bench_cls, "verify", counting_verify)
        with KernelService(workers=1, mode="inline") as svc:
            (result,) = svc.run(
                [Job("matrix_add_i32", {"n": 128}, config="baseline",
                     verify=True, slice_instructions=400)], timeout=300)
        assert result.ok and result.preemptions >= 1
        assert calls == ["matrix_add_i32"]

    def test_sliced_job_with_wrong_output_fails(self, monkeypatch):
        """A wrong output fails a sliced job exactly as it fails the
        straight one, with the same mismatch error."""
        real_reference = KERNELS["matrix_add_i32"].reference

        def bad_reference(self, ctx):
            return {k: v + 1 for k, v in real_reference(self, ctx).items()}

        monkeypatch.setattr(KERNELS["matrix_add_i32"], "reference",
                            bad_reference)
        job = dict(benchmark="matrix_add_i32", params={"n": 128},
                   config="baseline", verify=True)
        with KernelService(workers=1, mode="inline") as svc:
            plain_res, sliced_res = svc.run(
                [Job(**job), Job(slice_instructions=400, **job)],
                timeout=300)
        assert plain_res.status is JobStatus.FAILED
        assert sliced_res.status is JobStatus.FAILED
        assert sliced_res.preemptions >= 1
        assert "mismatch" in plain_res.error
        assert sliced_res.error == plain_res.error

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
        slot, a short urgent job submitted while a long sliced job runs
        completes between its slices, before the long job settles."""
        import time

        long_job = Job("matrix_add_i32", {"n": 256}, config="baseline",
                       verify=False, slice_instructions=400, priority=5,
                       global_mem_size=1 << 20)
        short_job = Job("matrix_add_i32", {"n": 16}, config="baseline",
                        verify=False, priority=-5,
                        global_mem_size=1 << 20)
        with KernelService(workers=1, mode="thread",
                           max_inflight=1) as svc:
            long_id = svc.submit(long_job)
            long_ticket = svc._tickets[long_id]
            # Submitted together, the priority queue would simply run
            # the short job first: wait until the long one is running.
            deadline = time.monotonic() + 60
            while len(svc.queue) and time.monotonic() < deadline:
                time.sleep(0.001)
            assert not len(svc.queue)
            short_id = svc.submit(short_job)
            short_res = svc.result(short_id, timeout=300)
            assert not long_ticket.settled
            assert long_ticket.preemptions >= 1
            long_res = svc.result(long_id, timeout=300)
        assert short_res.ok and long_res.ok
        assert short_res.preemptions == 0

    def test_settled_tickets_drop_the_checkpoint(self, monkeypatch):
        """A settled ticket stays until its result is collected, so it
        must not keep its last checkpoint (a whole memory image) or its
        worker future -- whether the job finished or failed
        mid-slicing."""
        from repro.service import pool as pool_mod

        def job():
            return Job("matrix_add_i32", {"n": 256}, config="baseline",
                       verify=False, slice_instructions=4000,
                       global_mem_size=1 << 20)

        real_run = pool_mod._run_payload

        def fail_resumes(executor, payload):
            if payload.resume is not None:
                return {"ok": False, "job_id": payload.job_id,
                        "error": "resume refused", "error_type": "Error"}
            return real_run(executor, payload)

        with KernelService(workers=1, mode="thread") as svc:
            done_id = svc.submit(job())
            tickets = [svc._tickets[done_id]]
            done = svc.result(done_id, timeout=300)
            monkeypatch.setattr(pool_mod, "_run_payload", fail_resumes)
            failed_id = svc.submit(job())
            tickets.append(svc._tickets[failed_id])
            failed = svc.result(failed_id, timeout=300)
        assert done.status is JobStatus.DONE and done.preemptions >= 1
        assert failed.status is JobStatus.FAILED
        assert failed.preemptions == 1
        for ticket in tickets:
            assert ticket.resume_envelope is None
            assert ticket.future is None

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
