"""ArchConfig invariants and the end-to-end ScratchFlow."""

import pytest

from repro.core.config import ARCH_LABELS, FIXED_LABELS, ArchConfig, Generation
from repro.core.flow import ScratchFlow
from repro.errors import TrimError
from repro.kernels import MatrixAddI32, MatrixMulF32
from repro.mem.params import DCD_PM_TIMING, ORIGINAL_TIMING


class TestArchConfig:
    def test_canonical_configs(self):
        assert ArchConfig.original().generation is Generation.ORIGINAL
        assert ArchConfig.dcd().generation is Generation.DCD
        assert ArchConfig.baseline().generation is Generation.DCD_PM

    @pytest.mark.parametrize("label,generation", zip(FIXED_LABELS, [
        Generation.ORIGINAL, Generation.DCD, Generation.DCD_PM]))
    def test_named_fixed_generation(self, label, generation):
        assert ArchConfig.named(label) == ArchConfig(generation=generation,
                                                     label=label)

    @pytest.mark.parametrize("label", ["trimmed", "multicore", "dcd+pm", ""])
    def test_named_rejects_other_labels(self, label):
        with pytest.raises(TrimError, match="no fixed generation"):
            ArchConfig.named(label)

    def test_memory_timing_derivation(self):
        assert ArchConfig.original().memory_timing == ORIGINAL_TIMING
        assert ArchConfig.baseline().memory_timing == DCD_PM_TIMING
        assert ArchConfig.baseline().has_prefetch
        assert not ArchConfig.dcd().has_prefetch

    def test_clock_ratio(self):
        assert Generation.ORIGINAL.clock_ratio == 1
        assert Generation.DCD.clock_ratio == 4

    def test_validation(self):
        with pytest.raises(TrimError):
            ArchConfig(num_cus=0)
        with pytest.raises(TrimError):
            ArchConfig(num_simd=0, num_simf=0)
        with pytest.raises(TrimError):
            ArchConfig(datapath_bits=13)

    def test_supports_full_isa(self):
        config = ArchConfig.baseline()
        assert config.supports("v_add_f32")
        assert not config.supports("v_add_f64")  # superset only
        assert config.instruction_count == 156

    def test_supports_trimmed(self):
        config = ArchConfig(supported=frozenset({"s_endpgm"}))
        assert config.supports("s_endpgm")
        assert not config.supports("v_add_f32")
        assert config.instruction_count == 1

    def test_with_parallelism(self):
        config = ArchConfig.baseline().with_parallelism(num_cus=3)
        assert config.num_cus == 3
        assert config.generation is Generation.DCD_PM

    def test_describe(self):
        assert "full ISA" in ArchConfig.baseline().describe()


class TestScratchFlow:
    def test_trim_is_cached(self):
        flow = ScratchFlow(MatrixAddI32(n=16))
        assert flow.trim() is flow.trim()

    def test_run_on_trimmed_architecture_verifies(self):
        flow = ScratchFlow(MatrixAddI32(n=16))
        metrics = flow.run()  # trimmed config, verify=True
        assert metrics.seconds > 0
        assert metrics.instructions > 0

    def test_evaluate_produces_all_labels(self):
        flow = ScratchFlow(MatrixAddI32(n=16))
        results = flow.evaluate()
        assert tuple(results) == ARCH_LABELS

    def test_arch_resolves_every_label(self):
        baseline = ArchConfig.baseline().with_parallelism(num_simd=2)
        flow = ScratchFlow(MatrixAddI32(n=16), baseline=baseline)
        assert flow.arch("baseline") is baseline
        assert flow.arch("original") == ArchConfig.original()
        assert flow.arch("trimmed") is flow.trim().config
        assert flow.arch("multicore") == flow.plan("multicore")
        assert flow.arch("multithread") == flow.plan("multithread")

    def test_arch_rejects_unknown_label(self):
        with pytest.raises(TrimError, match="unknown architecture label"):
            ScratchFlow(MatrixAddI32(n=16)).arch("superscalar")

    def test_evaluate_orderings(self):
        """The paper's fundamental orderings must hold on any input."""
        flow = ScratchFlow(MatrixMulF32(n=16))
        res = flow.evaluate()
        # DCD no slower than original; baseline much faster than DCD.
        assert res["dcd"].seconds <= res["original"].seconds
        assert res["baseline"].seconds < res["dcd"].seconds / 2
        # Trimming never changes runtime (Section 3.2) ...
        assert res["trimmed"].seconds == pytest.approx(
            res["baseline"].seconds, rel=1e-9)
        # ... but strictly improves energy efficiency.
        assert res["trimmed"].ipj > res["baseline"].ipj
        # Parallel configs are no slower than the trimmed single CU.
        assert res["multicore"].seconds <= res["trimmed"].seconds * 1.001
        assert res["multithread"].seconds <= res["trimmed"].seconds * 1.001

    def test_for_kernel_helper(self):
        flow = ScratchFlow.for_kernel(MatrixAddI32, n=16)
        assert flow.benchmark.n == 16
