"""Benchmark base-class machinery and the suite configuration."""

import numpy as np
import pytest

from repro.core.config import ArchConfig
from repro.errors import SimulationError
from repro.kernels import KERNELS, get
from repro.kernels.base import Benchmark, build
from repro.kernels.suite import EVAL_CONFIGS, evaluation_benchmarks
from repro.runtime import SoftGpu


class TestParams:
    def test_defaults_applied(self):
        bench = KERNELS["matrix_add_i32"]()
        assert bench.n == 64 and bench.params["n"] == 64

    def test_overrides(self):
        bench = KERNELS["matrix_add_i32"](n=16, seed=3)
        assert bench.n == 16 and bench.seed == 3

    def test_unknown_param_rejected(self):
        with pytest.raises(SimulationError, match="unknown parameters"):
            KERNELS["matrix_add_i32"](bogus=1)

    @pytest.mark.parametrize("name,params,message", [
        ("matrix_add_i32", {"n": "x"}, "'n' must be int, got str"),
        ("matrix_add_i32", {"n": True}, "'n' must be int, got bool"),
        ("matrix_add_i32", {"n": 16.0}, "'n' must be int, got float"),
        ("black_scholes", {"r": "0.1"}, "'r' must be float, got str"),
        ("black_scholes", {"sigma": False}, "'sigma' must be float"),
        ("cnn_i32", {"channels": 4}, "'channels' must be tuple"),
        ("cnn_i32", {"channels": [1, "4"]}, "'channels' items must be int"),
        ("matrix_add_i32", {"n": -4}, "'n' must be non-negative, got -4"),
        ("matrix_mul_i32", {"seed": -1}, "'seed' must be non-negative"),
        ("cnn_i32", {"channels": (1, -4)},
         "'channels' items must be non-negative"),
    ])
    def test_wrong_param_type_rejected(self, name, params, message):
        with pytest.raises(SimulationError, match=message):
            KERNELS[name](**params)

    def test_param_types_accepted(self):
        assert KERNELS["black_scholes"](r=1).r == 1   # int for a float
        assert KERNELS["matrix_add_i32"](seed=np.int64(5)).seed == 5
        assert KERNELS["cnn_i32"](channels=[1, 4]).channels == [1, 4]

    def test_describe_lists_params(self):
        text = KERNELS["conv2d_i32"](n=16, k=3).describe()
        assert "conv2d_i32" in text and "k=3" in text

    def test_get_helper(self):
        bench = get("matrix_transpose_i32", n=32)
        assert bench.n == 32


class TestBuildCache:
    def test_same_source_shares_program(self):
        src = "s_nop\ns_endpgm"
        assert build(src) is build(src)

    def test_programs_stable_across_instances(self):
        a = KERNELS["matrix_add_i32"](n=16).programs()[0]
        b = KERNELS["matrix_add_i32"](n=64).programs()[0]
        assert a is b  # parameters live in CB1, not in the binary


class TestVerification:
    def test_verify_catches_corruption(self):
        bench = KERNELS["matrix_add_i32"](n=16)
        device = SoftGpu(ArchConfig.baseline())
        ctx = bench.prepare(device)
        device.preload_all()
        bench.execute(device, ctx)
        # Corrupt one output word, then expect the check to fire.
        device.gpu.memory.global_mem.write_u32(
            0x1000 + ctx["out"].offset, 0xBAD)
        with pytest.raises(SimulationError, match="mismatches reference"):
            bench.verify(device, ctx)

    def test_verify_returns_the_reference(self):
        bench = KERNELS["matrix_add_i32"](n=16)
        device = SoftGpu(ArchConfig.baseline())
        ctx = bench.run_on(device, verify=False)
        expected = bench.verify(device, ctx)
        assert list(expected) == ["out"]
        assert np.array_equal(expected["out"], bench.reference(ctx)["out"])

    def test_float_outputs_checked_within_class_tolerance(self):
        """A former ``verify`` override is now just a ``tolerance``: the
        shared check accepts an output inside it and names the output
        outside it."""
        bench = KERNELS["black_scholes"](n=64)
        assert bench.tolerance == (2e-3, 2e-3) != Benchmark.tolerance
        rtol, atol = bench.tolerance
        device = SoftGpu(ArchConfig.baseline())
        ctx = bench.prepare(device)
        want = bench.reference(ctx)["call"]
        slack = (atol + rtol * np.abs(want)).astype(np.float32)
        device.write(ctx["call"], want + np.float32(0.9) * slack)
        bench.verify(device, ctx)
        beyond = want.copy()
        beyond[5] += 2 * slack[5]
        device.write(ctx["call"], beyond)
        with pytest.raises(SimulationError,
                           match="output 'call' mismatches reference at 1 "
                                 r"positions \(first: index \[5\]"):
            bench.verify(device, ctx)

    def test_run_on_returns_context(self):
        bench = KERNELS["max_pooling_i32"](n=16)
        device = SoftGpu(ArchConfig.baseline())
        ctx = bench.run_on(device)
        assert "out" in ctx


class TestSuiteConfig:
    def test_every_config_names_a_kernel(self):
        for name in EVAL_CONFIGS:
            assert name in KERNELS, name

    def test_every_evaluation_kernel_has_a_config(self):
        from repro.kernels import EVALUATION_SUITE
        for cls in EVALUATION_SUITE:
            assert cls.name in EVAL_CONFIGS, cls.name

    def test_iterator_instantiates(self):
        pairs = list(evaluation_benchmarks())
        assert len(pairs) == len(EVAL_CONFIGS)
        for bench, max_groups in pairs:
            assert isinstance(bench, Benchmark)
            assert max_groups is None or max_groups > 0

    def test_name_filter(self):
        only = list(evaluation_benchmarks(names={"cnn_i32"}))
        assert len(only) == 1 and only[0][0].name == "cnn_i32"
