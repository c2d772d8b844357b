"""Percentiles, baseline files and the regression comparisons."""

import pytest

from repro.bench import (
    REGRESSION_THRESHOLD,
    check_exact,
    compare_reports,
    load_baseline,
    percentile,
    write_baseline,
)


class TestPercentile:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_single_value(self):
        assert percentile([4.2], 95) == 4.2

    def test_median_odd_and_even(self):
        assert percentile([3, 1, 2], 50) == 2
        assert percentile([1, 2, 3, 4], 50) == 2.5

    def test_linear_interpolation(self):
        assert percentile([0, 10], 25) == 2.5
        assert percentile([0.0, 1.0, 2.0, 3.0], 95) == pytest.approx(2.85)

    def test_endpoints(self):
        values = [5, 1, 9, 3]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 9


class TestCompareReports:
    def test_no_regression_within_threshold(self):
        baseline = {"service": {"cache_hit_rate": 0.9}}
        current = {"service": {"cache_hit_rate": 0.8}}
        assert compare_reports(baseline, current) == []

    def test_ratio_regression_is_enforced(self):
        baseline = {"service": {"cache_hit_rate": 0.8}}
        current = {"service": {"cache_hit_rate": 0.4}}
        regressions = compare_reports(baseline, current)
        assert len(regressions) == 1
        r = regressions[0]
        assert r.path == "service.cache_hit_rate"
        assert r.enforced
        assert r.change == pytest.approx(0.5)
        assert "ENFORCED" in str(r)

    def test_wall_regression_is_report_only(self):
        baseline = {"preemption": {"latency_p95_s": 1.0}}
        current = {"preemption": {"latency_p95_s": 2.0}}
        regressions = compare_reports(baseline, current)
        assert len(regressions) == 1
        assert not regressions[0].enforced
        assert "report-only" in str(regressions[0])

    def test_lower_is_better_direction(self):
        # Latency dropping is an improvement, never a regression.
        baseline = {"latency_p95_s": 2.0}
        current = {"latency_p95_s": 0.5}
        assert compare_reports(baseline, current) == []

    def test_improvement_not_reported(self):
        baseline = {"service": {"cache_hit_rate": 0.3}}
        current = {"service": {"cache_hit_rate": 0.9}}
        assert compare_reports(baseline, current) == []

    def test_missing_keys_tolerated(self):
        # A section added since the baseline was recorded is skipped.
        baseline = {"old": {"cache_hit_rate": 0.8},
                    "gone": {"cache_hit_rate": 0.8}}
        current = {"old": {"cache_hit_rate": 0.75},
                   "new": {"cache_hit_rate": 0.01}}
        assert compare_reports(baseline, current) == []

    def test_custom_threshold(self):
        baseline = {"cache_hit_rate": 1.0}
        current = {"cache_hit_rate": 0.9}
        assert compare_reports(baseline, current) == []
        assert len(compare_reports(baseline, current, threshold=0.05)) == 1

    def test_worst_first_ordering(self):
        baseline = {"a": {"cache_hit_rate": 0.8},
                    "b": {"cache_hit_rate": 0.8}}
        current = {"a": {"cache_hit_rate": 0.6},
                   "b": {"cache_hit_rate": 0.2}}
        regressions = compare_reports(baseline, current)
        assert [r.path for r in regressions] == \
            ["b.cache_hit_rate", "a.cache_hit_rate"]

    def test_zero_and_non_numeric_baselines_skipped(self):
        baseline = {"cache_hit_rate": 0.0, "jobs_per_second": "n/a"}
        current = {"cache_hit_rate": 0.0, "jobs_per_second": 1.0}
        assert compare_reports(baseline, current) == []

    def test_default_threshold_is_20_percent(self):
        assert REGRESSION_THRESHOLD == 0.20


class TestCheckExact:
    BASELINE = {
        "schema": 6,
        "kernels": {"k": {"instructions": 116, "sim_seconds": 9.34e-06}},
        "cpi": {"c": {"instructions": 618, "cu_cycles": 1333.0,
                      "cpi": 1333.0 / 618}},
    }

    def _copy(self):
        return {table: {name: dict(row) for name, row in rows.items()}
                if isinstance(rows, dict) else rows
                for table, rows in self.BASELINE.items()}

    def test_equal_tables_pass(self):
        assert check_exact(self.BASELINE, self._copy()) == []

    @pytest.mark.parametrize("table, row, field", [
        ("kernels", "k", "instructions"),
        ("kernels", "k", "sim_seconds"),
        ("cpi", "c", "instructions"),
        ("cpi", "c", "cu_cycles"),
        ("cpi", "c", "cpi"),
    ])
    def test_every_field_compared_exactly(self, table, row, field):
        current = self._copy()
        current[table][row][field] *= 1 + 1e-12
        problems = check_exact(self.BASELINE, current)
        assert len(problems) == 1
        assert problems[0].startswith("{}.{}.{}: ".format(table, row, field))

    def test_row_on_one_side_is_a_mismatch(self):
        current = self._copy()
        current["kernels"]["extra"] = {"instructions": 1, "sim_seconds": 0.0}
        del current["cpi"]["c"]
        problems = check_exact(self.BASELINE, current)
        assert "kernels.extra.instructions: missing -> 1" in problems
        assert "cpi.c.cu_cycles: 1333.0 -> missing" in problems
        assert len(problems) == 5

    def test_table_missing_entirely(self):
        problems = check_exact({"schema": 5}, self._copy())
        assert len(problems) == 5

    def test_memory_plan_not_emitted_is_a_mismatch(self):
        row = {"plans": 9, "alu_emitted": 4, "alu_generic": 0,
               "memory": 3, "memory_emitted": 2}
        baseline = dict(self._copy(), coverage={"k": dict(row)})
        current = dict(self._copy(), coverage={"k": dict(row)})
        assert check_exact(baseline, current) == [
            "coverage.k: 2 of 3 memory plans emitted"]


class TestBaselineFiles:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "BENCH_simulator.json")
        payload = {"schema": 6, "kernels": {"k": {"instructions": 116}}}
        write_baseline(path, payload)
        assert load_baseline(path) == payload

    def test_missing_file_is_none(self, tmp_path):
        assert load_baseline(str(tmp_path / "nope.json")) is None

    def test_stable_formatting(self, tmp_path):
        path = str(tmp_path / "b.json")
        write_baseline(path, {"b": 1, "a": 2})
        text = open(path).read()
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")
