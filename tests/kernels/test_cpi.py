"""The per-instruction-class CPI microbenchmark suite."""

import pytest

from repro.core.config import ArchConfig
from repro.kernels import KERNELS
from repro.kernels.cpi import CPI_SUITE
from repro.runtime.device import SoftGpu


def _launch(cls, **params):
    bench = cls(**params)
    device = SoftGpu(ArchConfig.baseline())
    bench.run_on(device, verify=True)
    return device.gpu.launches[-1]


class TestSuiteRegistration:
    def test_all_cpi_kernels_registered(self):
        for cls in CPI_SUITE:
            assert KERNELS[cls.name] is cls

    def test_not_in_evaluation_suite(self):
        from repro.kernels import EVALUATION_SUITE

        assert not set(CPI_SUITE) & set(EVALUATION_SUITE)


class TestKernelsVerify:
    @pytest.mark.parametrize("cls", CPI_SUITE, ids=lambda c: c.name)
    def test_verifies_and_iterates(self, cls):
        result = _launch(cls)
        # The unrolled payload dominates the dynamic instruction count.
        bench = cls()
        payload = bench.unroll * bench.iters
        assert result.instructions > payload

    @pytest.mark.parametrize("cls", CPI_SUITE, ids=lambda c: c.name)
    def test_iters_parameter_scales_work(self, cls):
        small = _launch(cls, iters=8)
        large = _launch(cls, iters=16)
        assert large.instructions > small.instructions
        assert large.cu_cycles > small.cu_cycles


class TestCpiTable:
    def test_table_covers_suite_and_is_deterministic(self):
        from repro.bench.simulator import cpi_table

        first = cpi_table()
        second = cpi_table()
        assert first == second
        assert set(first) == {cls.name for cls in CPI_SUITE}
        for entry in first.values():
            assert entry["instructions"] > 0
            assert entry["cpi"] == entry["cu_cycles"] / entry["instructions"]
            assert entry["cpi"] > 1.0

    def test_classes_separate(self):
        """The table discriminates instruction classes: vector ALU ops
        cost more than scalar ones (4 SIMD passes), and a soft-DSP
        multiply costs more than an add."""
        from repro.bench.simulator import cpi_table

        table = {name: entry["cpi"] for name, entry in cpi_table().items()}
        assert table["cpi_v_add"] > table["cpi_s_add"]
        assert table["cpi_v_mul"] > table["cpi_v_add"]
        assert table["cpi_s_mul"] == pytest.approx(table["cpi_s_add"],
                                                   rel=0.01)

    def test_exact_comparison_trips_on_any_change(self):
        from repro.bench.baselines import check_exact
        from repro.bench.simulator import cpi_table

        table = cpi_table()
        baseline = {"cpi": table}
        assert check_exact(baseline, {"cpi": table}) == []
        skewed = {name: dict(entry) for name, entry in table.items()}
        first = sorted(skewed)[0]
        skewed[first]["cu_cycles"] += 1.0
        problems = check_exact(baseline, {"cpi": skewed})
        assert len(problems) == 1
        assert first in problems[0]
