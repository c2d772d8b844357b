"""``repro bench`` and ``repro run --repeat`` end to end.

Most invocations skip the service benchmark (~2 s) and the DSE sweep;
the threshold-check tests keep the DSE sweep, the cheapest payload
with both an enforced and a report-only metric.
"""

import json
from pathlib import Path

import pytest

from repro.bench import (
    BENCH_KERNELS,
    DSE_BASELINE_FILE,
    SERVICE_BASELINE_FILE,
    SIMULATOR_BASELINE_FILE,
    bench_simulator,
    check_exact,
    load_baseline,
)
from repro.cli import main
from repro.kernels import KERNELS
from repro.kernels.cpi import CPI_SUITE

SIM_ONLY = ["--skip-service", "--skip-dse"]

#: The checked-in simulated tables at the repo root.
CHECKED_IN = Path(__file__).resolve().parents[2] / SIMULATOR_BASELINE_FILE


@pytest.fixture(scope="module")
def fresh():
    """One fresh ``bench_simulator`` payload, as JSON stores it."""
    return json.loads(json.dumps(bench_simulator()))


class TestCheckedInTable:
    """The tripwire: a fresh run reproduces every simulated field of
    the checked-in ``BENCH_simulator.json`` exactly."""

    def test_fresh_run_matches_field_by_field(self, fresh):
        baseline = load_baseline(str(CHECKED_IN))
        assert check_exact(baseline, fresh) == []
        assert fresh == baseline

    def test_table_covers_the_bench_and_cpi_sets(self, fresh):
        assert fresh["schema"] == 7
        assert tuple(fresh["kernels"]) == BENCH_KERNELS
        assert tuple(fresh["coverage"]) == BENCH_KERNELS
        assert set(BENCH_KERNELS) <= set(KERNELS)
        assert set(fresh["cpi"]) == {cls.name for cls in CPI_SUITE}

    @pytest.mark.parametrize("table, field", [
        ("cpi", "cu_cycles"),
        ("cpi", "instructions"),
        ("kernels", "instructions"),
        ("coverage", "alu_generic"),
    ])
    def test_one_unit_skew_trips(self, fresh, table, field):
        baseline = load_baseline(str(CHECKED_IN))
        name = sorted(baseline[table])[0]
        baseline[table][name][field] += 1
        problems = check_exact(baseline, fresh)
        assert len(problems) == 1
        assert problems[0].startswith("{}.{}.{}: ".format(table, name, field))


    def test_every_memory_plan_is_emitted(self, fresh):
        for row in fresh["coverage"].values():
            assert row["memory"] and row["memory_emitted"] == row["memory"]
            assert row["alu_emitted"] + row["memory"] <= row["plans"]


class TestBenchCommand:
    def test_table_output(self, tmp_path, capsys):
        assert main(["bench", *SIM_ONLY, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "prefix_sum" in out and "cpi_v_mul" in out
        # No --json/--update: nothing is written.
        assert not (tmp_path / SIMULATOR_BASELINE_FILE).exists()

    def test_json_writes_both_baselines(self, tmp_path, capsys):
        assert main(["bench", "--skip-dse", "--json",
                     "--out", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        sim = payload["simulator"]
        assert sim == load_baseline(str(CHECKED_IN))
        assert payload["service"]["jobs_per_second"] > 0
        assert 0 <= payload["service"]["cache_hit_rate"] <= 1
        sim_file = tmp_path / SIMULATOR_BASELINE_FILE
        svc_file = tmp_path / SERVICE_BASELINE_FILE
        assert json.loads(sim_file.read_text()) == sim
        assert json.loads(svc_file.read_text()) == payload["service"]

    def test_check_against_checked_in_table_passes(self, capsys):
        out = str(CHECKED_IN.parent)
        assert main(["bench", *SIM_ONLY, "--check", "--out", out]) == 0
        assert "mismatch" not in capsys.readouterr().out

    @pytest.mark.parametrize("report_only", [False, True])
    def test_table_mismatch_fails_even_report_only(self, tmp_path, capsys,
                                                   report_only):
        baseline = load_baseline(str(CHECKED_IN))
        baseline["cpi"]["cpi_lds"]["cu_cycles"] += 1
        (tmp_path / SIMULATOR_BASELINE_FILE).write_text(
            json.dumps(baseline))
        flags = ["--report-only"] if report_only else []
        assert main(["bench", *SIM_ONLY, "--check", *flags,
                     "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "1 simulated-table mismatch" in out
        assert "cpi.cpi_lds.cu_cycles: 2238.0 -> 2237.0" in out

    def test_check_fails_on_enforced_regression(self, tmp_path, capsys):
        (tmp_path / DSE_BASELINE_FILE).write_text(
            json.dumps({"store_hit_rate": 1000.0}))
        assert main(["bench", "--skip-service", "--check",
                     "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "regression" in out and "ENFORCED" in out

    def test_report_only_exits_zero(self, tmp_path, capsys):
        (tmp_path / DSE_BASELINE_FILE).write_text(
            json.dumps({"store_hit_rate": 1000.0}))
        assert main(["bench", "--skip-service", "--check",
                     "--report-only", "--out", str(tmp_path)]) == 0
        assert "regression" in capsys.readouterr().out

    def test_missing_out_dir_fails_before_any_benchmark(
            self, tmp_path, capsys, monkeypatch):
        import repro.bench

        def ran(*args, **kwargs):
            raise AssertionError("a benchmark ran before --out was checked")

        for name in ("bench_simulator", "bench_service", "bench_dse"):
            monkeypatch.setattr(repro.bench, name, ran)
        missing = tmp_path / "missing"
        assert main(["bench", "--json", "--out", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err == "error: bench --out: no such directory: {}\n".format(
            missing)

    def test_check_without_baseline_skips(self, tmp_path, capsys):
        assert main(["bench", *SIM_ONLY, "--check",
                     "--out", str(tmp_path)]) == 0
        assert "skipping check" in capsys.readouterr().err

    def test_wall_regressions_are_report_only(self, tmp_path, capsys):
        # An absurdly fast wall-clock baseline trips only the
        # machine-dependent metrics, which never fail the build.
        (tmp_path / DSE_BASELINE_FILE).write_text(
            json.dumps({"points_per_second": 1e12}))
        assert main(["bench", "--skip-service", "--check",
                     "--out", str(tmp_path)]) == 0
        assert "report-only" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--kernels", "--smoke", "--repeat"])
    def test_wall_timing_flags_are_gone(self, capsys, flag):
        with pytest.raises(SystemExit) as info:
            main(["bench", flag])
        assert info.value.code == 2


class TestRunRepeat:
    def test_repeat_reports_wall_seconds(self, capsys):
        assert main(["run", "matrix_add_i32", "--configs", "baseline",
                     "--repeat", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["repeat"] == 2
        assert payload["configs"]["baseline"]["wall_s"] > 0

    def test_repeat_must_be_positive(self, capsys):
        assert main(["run", "matrix_add_i32", "--repeat", "0"]) == 2
        assert "--repeat" in capsys.readouterr().err

    def test_deterministic_metrics_across_repeats(self, capsys):
        results = []
        for _ in range(2):
            assert main(["run", "matrix_add_i32", "--configs", "baseline",
                         "--repeat", "2", "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            entry = dict(payload["configs"]["baseline"])
            entry.pop("wall_s")  # the only machine-dependent field
            results.append(entry)
        assert results[0] == results[1]
