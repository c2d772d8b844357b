"""Percentiles, baseline files and the exact comparison."""

import pytest

from repro.bench import check_exact, load_baseline, percentile, write_baseline


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
        problems = check_exact({"schema": 6}, self._copy())
        assert len(problems) == 5

    def test_any_payload_compared_leaf_by_leaf(self):
        baseline = {"store_hit_rate": 1.0, "benchmarks": ["a", "b"],
                    "preemption": {"preemptions": 12}}
        current = {"store_hit_rate": 0.875, "benchmarks": ["a"],
                   "preemption": 12}
        assert check_exact(baseline, current) == [
            "benchmarks: ['a', 'b'] -> ['a']",
            "preemption: {'preemptions': 12} -> 12",
            "store_hit_rate: 1.0 -> 0.875"]

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
