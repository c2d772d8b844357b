"""The request -> result envelope contract of the execution layer."""

import numpy as np
import pytest

from repro.asm.assembler import assemble
from repro.core.config import ArchConfig
from repro.errors import LaunchError
from repro.exec import (BenchmarkWorkload, ExecutionRequest, Executor,
                        ProgramWorkload, default_executor, execute)
from repro.kernels import KERNELS

STORE_LANE = """
.kernel store_lane
.arg out buffer
  s_buffer_load_dword s19, s[8:11], 3
  s_buffer_load_dword s20, s[12:15], 0
  s_waitcnt lgkmcnt(0)
  s_mul_i32 s1, s16, s19
  v_add_i32 v1, vcc, s1, v0
  v_lshlrev_b32 v2, 2, v1
  v_add_i32 v2, vcc, s20, v2
  tbuffer_store_format_x v1, v2, s[4:7], 0 offen
  s_endpgm
"""


class TestRequestValidation:
    def test_exactly_one_workload_source(self):
        with pytest.raises(LaunchError):
            ExecutionRequest()
        with pytest.raises(LaunchError):
            ExecutionRequest(
                benchmark="matrix_add_i32",
                workload=BenchmarkWorkload(name="matrix_add_i32"))

    def test_unknown_engine_rejected(self):
        # There is one issue loop; a request has no engine input.
        with pytest.raises(TypeError, match="engine"):
            ExecutionRequest(benchmark="matrix_add_i32", engine="reference")

    def test_undersized_memory_rejected(self):
        with pytest.raises(LaunchError):
            ExecutionRequest(benchmark="matrix_add_i32", global_mem_size=64)

    def test_unknown_benchmark_fails_at_execute(self):
        with pytest.raises(LaunchError, match="unknown benchmark"):
            execute(ExecutionRequest(benchmark="no_such_bench"))


class TestEngineRegistry:
    """The engine-name registry is gone from every surface."""

    def test_names(self):
        import repro.exec
        import repro.exec.request
        import repro.service.jobs

        for module in (repro.exec, repro.exec.request, repro.service.jobs):
            for name in ("ENGINE_NAMES", "ENGINE_SPECS", "validate_engine"):
                assert not hasattr(module, name), (module.__name__, name)

    def test_service_uses_the_same_registry(self):
        # Both surfaces drop the field: the service job mirrors the
        # request, so neither carries an engine to forward.
        from repro.service.jobs import Job

        from repro.exec import ExecutionResult
        from repro.service.jobs import JobResult

        assert "engine" not in ExecutionRequest.__dataclass_fields__
        assert "engine" not in Job.__dataclass_fields__
        assert "engine" not in ExecutionResult.__dataclass_fields__
        assert "engine" not in JobResult.__dataclass_fields__


class TestEnvelope:
    def test_benchmark_by_name(self):
        result = Executor().execute(ExecutionRequest(
            benchmark="matrix_add_i32", params={"n": 16}, digests=True))
        assert result.metrics.seconds > 0
        assert result.instructions > 0
        assert result.cu_cycles > 0
        assert result.warm_board is False
        assert result.board_key
        assert "engine" not in result.to_dict()
        assert len(result.launches) >= 1
        assert result.digests  # verified outputs were digested
        assert result.label.startswith("matrix_add_i32@")

    def test_observation_leaves_the_result_unchanged(self):
        from repro.obs import Observer

        executor = Executor()
        observed = executor.execute(ExecutionRequest(
            benchmark="matrix_add_i32", params={"n": 16}, digests=True,
            observers=(Observer(),)))
        unobserved = executor.execute(ExecutionRequest(
            benchmark="matrix_add_i32", params={"n": 16}, digests=True))
        assert observed.cu_cycles == unobserved.cu_cycles
        assert observed.digests == unobserved.digests
        assert observed.launches[-1].stats == unobserved.launches[-1].stats

    def test_profile_attaches_counters(self):
        from repro.obs import STALL_CAUSES, PerfCounters

        executor = Executor()
        result = executor.execute(ExecutionRequest(
            benchmark="matrix_add_i32", params={"n": 16}, profile=True))
        c = result.counters.counters
        assert c.get("cycles.total") > 0
        # Profiling attaches no observer: the counters come from the
        # run aggregates ...
        assert c.get("cycles.active") + sum(
            c.get("stall." + cause) for cause in STALL_CAUSES) \
            == c.get("cycles.total")
        assert c.get("issue.total") == result.instructions
        # ... and equal what the event-driven observer counts.
        perf = PerfCounters()
        observed = executor.execute(ExecutionRequest(
            benchmark="matrix_add_i32", params={"n": 16}, profile=True,
            observers=(perf,)))
        assert c == perf.counters == observed.counters.counters

    def test_trace_records_events(self):
        result = Executor().execute(ExecutionRequest(
            benchmark="matrix_add_i32", params={"n": 16}, trace=True))
        assert result.trace is not None
        assert len(result.trace) > 0

    def test_observers_detached_after_run(self):
        executor = Executor()
        request = ExecutionRequest(benchmark="matrix_add_i32",
                                   params={"n": 16}, profile=True)
        executor.execute(request)
        with executor.pool.lease(ArchConfig.baseline()) as lease:
            assert not lease.board.observers

    def test_warm_reuse_within_executor(self):
        executor = Executor()
        request = ExecutionRequest(benchmark="matrix_add_i32",
                                   params={"n": 16})
        assert executor.execute(request).warm_board is False
        assert executor.execute(request).warm_board is True

    def test_max_groups_sampling(self):
        executor = Executor()
        full = executor.execute(ExecutionRequest(
            benchmark="matrix_add_i32", params={"n": 32}, verify=False))
        sampled = executor.execute(ExecutionRequest(
            benchmark="matrix_add_i32", params={"n": 32}, verify=False,
            max_groups=1))
        assert sampled.launches[-1].executed_groups < \
            full.launches[-1].executed_groups

    def test_report_override_prices_power(self):
        from repro.fpga.synthesis import Synthesizer

        arch = ArchConfig.baseline()
        report = Synthesizer().synthesize(arch)
        result = Executor().execute(ExecutionRequest(
            benchmark="matrix_add_i32", params={"n": 16}, arch=arch,
            report=report))
        assert result.metrics.power is report.power


class TestOneReferencePerRun:
    """verify and the digests share one reference; a request that asks
    for neither computes none."""

    @pytest.fixture
    def calls(self, monkeypatch):
        cls = KERNELS["matrix_add_i32"]
        real_reference = cls.reference
        calls = []

        def counted(self, ctx):
            calls.append(self.name)
            return real_reference(self, ctx)

        monkeypatch.setattr(cls, "reference", counted)
        return calls

    @pytest.mark.parametrize("verify,digests,count", [
        (True, True, 1), (True, False, 1), (False, True, 1),
        (False, False, 0)])
    def test_reference_calls_per_request(self, calls, verify, digests,
                                         count):
        result = Executor().execute(ExecutionRequest(
            benchmark="matrix_add_i32", params={"n": 16}, verify=verify,
            digests=digests))
        assert len(calls) == count
        assert set(result.digests) == ({"out"} if digests else set())

    def test_one_reference_per_service_job(self, calls):
        from repro.service import Job, KernelService

        with KernelService(workers=1, mode="inline") as svc:
            result = svc.result(svc.submit(
                Job("matrix_add_i32", {"n": 16})))
        assert result.ok
        assert set(result.digests) == {"out"}
        assert calls == ["matrix_add_i32"]


class TestProgramWorkload:
    def test_raw_kernel_run(self):
        program = assemble(STORE_LANE)
        result = Executor().execute(ExecutionRequest(
            workload=ProgramWorkload(
                program=program, global_size=(64,), local_size=(64,),
                outputs=(("out", 64 * 4),)),
            capture_memory=True, digests=True, verify=False))
        assert set(result.digests) == {"out"}
        assert result.memory_image is not None
        # The kernel stored lane ids; find them in the captured image.
        image = np.frombuffer(result.memory_image, np.uint32)
        lanes = np.arange(64, dtype=np.uint32)
        windows = np.lib.stride_tricks.sliding_window_view(image, 64)
        assert (windows == lanes).all(axis=1).any()

    def test_custom_memory_size(self):
        program = assemble(STORE_LANE)
        result = Executor().execute(ExecutionRequest(
            workload=ProgramWorkload(
                program=program, global_size=(64,), local_size=(64,),
                outputs=(("out", 64 * 4),)),
            global_mem_size=1 << 16, capture_memory=True, verify=False))
        assert len(result.memory_image) == 1 << 16


class TestDefaultExecutor:
    def test_singleton(self):
        assert default_executor() is default_executor()

    def test_module_execute_uses_it(self):
        result = execute(ExecutionRequest(benchmark="matrix_add_i32",
                                          params={"n": 16}))
        assert result.metrics.instructions > 0
