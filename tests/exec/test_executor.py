"""The request -> result envelope contract of the execution layer."""

import numpy as np
import pytest

from repro.asm.assembler import assemble
from repro.core.config import ArchConfig
from repro.errors import LaunchError
from repro.exec import (BenchmarkWorkload, ExecutionRequest, Executor,
                        ProgramWorkload, default_executor, execute)

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
        with pytest.raises(LaunchError):
            ExecutionRequest(benchmark="matrix_add_i32", engine="warp")

    def test_undersized_memory_rejected(self):
        with pytest.raises(LaunchError):
            ExecutionRequest(benchmark="matrix_add_i32", global_mem_size=64)

    def test_unknown_benchmark_fails_at_execute(self):
        with pytest.raises(LaunchError, match="unknown benchmark"):
            execute(ExecutionRequest(benchmark="no_such_bench"))


class TestEngineRegistry:
    """One registry for every engine-accepting surface."""

    def test_names(self):
        from repro.exec import ENGINE_NAMES
        from repro.soc.gpu import ENGINES

        assert ENGINE_NAMES == ("auto",) + ENGINES
        assert "superblock" in ENGINE_NAMES
        assert "fast" not in ENGINE_NAMES
        assert "parallel" not in ENGINE_NAMES

    def test_service_uses_the_same_registry(self):
        from repro.exec import ENGINE_NAMES
        from repro.service.jobs import ENGINE_SPECS

        assert ENGINE_SPECS is ENGINE_NAMES

    def test_validate_engine(self):
        from repro.errors import AdmissionError
        from repro.exec import validate_engine

        assert validate_engine("superblock") == "superblock"
        assert validate_engine(None) is None
        for removed in ("fast", "parallel"):
            with pytest.raises(LaunchError,
                               match="'{}' was removed.*superblock".format(
                                   removed)):
                validate_engine(removed)
            with pytest.raises(AdmissionError, match="superblock"):
                validate_engine(removed, error=AdmissionError)
        with pytest.raises(LaunchError, match="warp"):
            validate_engine("warp")
        with pytest.raises(AdmissionError, match="required"):
            validate_engine(None, none_ok=False, error=AdmissionError)


class TestEnvelope:
    def test_benchmark_by_name(self):
        result = Executor().execute(ExecutionRequest(
            benchmark="matrix_add_i32", params={"n": 16}, digests=True))
        assert result.metrics.seconds > 0
        assert result.instructions > 0
        assert result.cu_cycles > 0
        assert result.warm_board is False
        assert result.board_key
        assert result.engine in ("reference", "superblock")
        assert len(result.launches) >= 1
        assert result.digests  # verified outputs were digested
        assert result.label.startswith("matrix_add_i32@")

    def test_engine_pinning_and_provenance(self):
        executor = Executor()
        request = ExecutionRequest(benchmark="matrix_add_i32",
                                   params={"n": 16}, engine="reference")
        assert executor.execute(request).engine == "reference"
        compiled = ExecutionRequest(benchmark="matrix_add_i32",
                                    params={"n": 16}, engine="superblock")
        assert executor.execute(compiled).engine == "superblock"
        for removed in ("fast", "parallel"):
            with pytest.raises(LaunchError, match="superblock"):
                ExecutionRequest(benchmark="matrix_add_i32", engine=removed)

    def test_profile_attaches_counters(self):
        result = Executor().execute(ExecutionRequest(
            benchmark="matrix_add_i32", params={"n": 16}, profile=True))
        assert result.counters is not None
        assert result.counters.counters.get("cycles.total") > 0
        # Observed runs resolve to the reference engine.
        assert result.engine == "reference"

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
