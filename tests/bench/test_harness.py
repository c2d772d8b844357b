"""Timing primitives and baseline regression comparison."""

import pytest

from repro.bench import (
    REGRESSION_THRESHOLD,
    compare_reports,
    load_baseline,
    measure,
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


class TestMeasure:
    def test_warmup_excluded_from_samples(self):
        calls = []
        measurement = measure(lambda: calls.append(len(calls)),
                              repeat=3, warmup=2)
        assert len(calls) == 5
        assert len(measurement.samples) == 3
        assert len(measurement.warmup_samples) == 2

    def test_zero_warmup(self):
        measurement = measure(lambda: None, repeat=2, warmup=0)
        assert measurement.warmup_samples == []
        assert len(measurement.samples) == 2

    def test_repeat_must_be_positive(self):
        with pytest.raises(ValueError):
            measure(lambda: None, repeat=0)

    def test_median_best_worst(self):
        measurement = measure(lambda: None, repeat=5)
        measurement.samples = [0.3, 0.1, 0.2, 0.5, 0.4]
        assert measurement.median == 0.3
        assert measurement.best == 0.1
        assert measurement.worst == 0.5

    def test_to_dict_round_numbers(self):
        measurement = measure(lambda: None, repeat=2, warmup=1)
        payload = measurement.to_dict()
        assert set(payload) == {"median_s", "best_s", "worst_s",
                                "samples_s", "warmup_s"}
        assert payload["samples_s"] == measurement.samples


class TestCompareReports:
    def test_no_regression_within_threshold(self):
        baseline = {"kernels": {"k": {"speedup_superblock_vs_reference": 2.0}}}
        current = {"kernels": {"k": {"speedup_superblock_vs_reference": 1.7}}}
        assert compare_reports(baseline, current) == []

    def test_ratio_regression_is_enforced(self):
        baseline = {"kernels": {"k": {"speedup_superblock_vs_reference": 2.0}}}
        current = {"kernels": {"k": {"speedup_superblock_vs_reference": 1.0}}}
        regressions = compare_reports(baseline, current)
        assert len(regressions) == 1
        r = regressions[0]
        assert r.path == "kernels.k.speedup_superblock_vs_reference"
        assert r.enforced
        assert r.change == pytest.approx(0.5)
        assert "ENFORCED" in str(r)

    def test_wall_regression_is_report_only(self):
        baseline = {"kernels": {"k": {"wall_superblock_s": 1.0}}}
        current = {"kernels": {"k": {"wall_superblock_s": 2.0}}}
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
        baseline = {"kernels": {"k": {"speedup_superblock_vs_reference": 1.0}}}
        current = {"kernels": {"k": {"speedup_superblock_vs_reference": 3.0}}}
        assert compare_reports(baseline, current) == []

    def test_missing_keys_tolerated(self):
        # A kernel added since the baseline was recorded is skipped.
        baseline = {"kernels": {"old": {"speedup_superblock_vs_reference": 2.0},
                                "gone": {"speedup_superblock_vs_reference": 2.0}}}
        current = {"kernels": {"old": {"speedup_superblock_vs_reference": 1.9},
                               "new": {"speedup_superblock_vs_reference": 0.1}}}
        assert compare_reports(baseline, current) == []

    def test_custom_threshold(self):
        baseline = {"cache_hit_rate": 1.0}
        current = {"cache_hit_rate": 0.9}
        assert compare_reports(baseline, current) == []
        assert len(compare_reports(baseline, current, threshold=0.05)) == 1

    def test_worst_first_ordering(self):
        baseline = {"a": {"speedup_superblock_vs_reference": 2.0},
                    "b": {"speedup_superblock_vs_reference": 2.0}}
        current = {"a": {"speedup_superblock_vs_reference": 1.5},
                   "b": {"speedup_superblock_vs_reference": 0.5}}
        regressions = compare_reports(baseline, current)
        assert [r.path for r in regressions] == \
            ["b.speedup_superblock_vs_reference",
             "a.speedup_superblock_vs_reference"]

    def test_zero_and_non_numeric_baselines_skipped(self):
        baseline = {"cache_hit_rate": 0.0, "jobs_per_second": "n/a"}
        current = {"cache_hit_rate": 0.0, "jobs_per_second": 1.0}
        assert compare_reports(baseline, current) == []

    def test_default_threshold_is_20_percent(self):
        assert REGRESSION_THRESHOLD == 0.20


class TestBaselineFiles:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "BENCH_simulator.json")
        payload = {"schema": 1, "kernels": {"k": {"inst_per_s_superblock": 1e6}}}
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
