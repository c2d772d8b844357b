"""``repro bench`` and ``repro run --repeat`` end to end.

All invocations restrict the kernel set to ``prefix_sum`` (the
fastest) at ``--repeat 1`` so the suite stays quick; coverage of
the full kernel set lives in the CI bench job.
"""

import json

from repro.bench import SERVICE_BASELINE_FILE, SIMULATOR_BASELINE_FILE
from repro.cli import main

FAST = ["--kernels", "prefix_sum", "--repeat", "1"]


class TestBenchCommand:
    def test_table_output(self, tmp_path, capsys):
        assert main(["bench", *FAST, "--skip-service",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "prefix_sum" in out and "speedup" in out
        # No --json/--update: nothing is written.
        assert not (tmp_path / SIMULATOR_BASELINE_FILE).exists()

    def test_json_writes_both_baselines(self, tmp_path, capsys):
        assert main(["bench", *FAST, "--json", "--out", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        sim = payload["simulator"]
        entry = sim["kernels"]["prefix_sum"]
        assert entry["speedup_superblock_vs_reference"] > 0
        assert entry["inst_per_s_superblock"] > 0
        assert entry["wall_superblock_s"] > 0
        assert payload["service"]["jobs_per_second"] > 0
        assert 0 <= payload["service"]["cache_hit_rate"] <= 1
        sim_file = tmp_path / SIMULATOR_BASELINE_FILE
        svc_file = tmp_path / SERVICE_BASELINE_FILE
        assert json.loads(sim_file.read_text()) == sim
        assert json.loads(svc_file.read_text()) == payload["service"]

    def test_check_fails_on_enforced_regression(self, tmp_path, capsys):
        baseline = {"kernels": {"prefix_sum":
                                {"speedup_superblock_vs_reference": 1000.0}}}
        (tmp_path / SIMULATOR_BASELINE_FILE).write_text(
            json.dumps(baseline))
        assert main(["bench", *FAST, "--skip-service", "--check",
                     "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "regression" in out and "ENFORCED" in out

    def test_report_only_exits_zero(self, tmp_path, capsys):
        baseline = {"kernels": {"prefix_sum":
                                {"speedup_superblock_vs_reference": 1000.0}}}
        (tmp_path / SIMULATOR_BASELINE_FILE).write_text(
            json.dumps(baseline))
        assert main(["bench", *FAST, "--skip-service", "--check",
                     "--report-only", "--out", str(tmp_path)]) == 0
        assert "regression" in capsys.readouterr().out

    def test_check_without_baseline_skips(self, tmp_path, capsys):
        assert main(["bench", *FAST, "--skip-service", "--check",
                     "--out", str(tmp_path)]) == 0
        assert "skipping check" in capsys.readouterr().err

    def test_wall_regressions_are_report_only(self, tmp_path, capsys):
        # An absurdly fast wall-clock baseline trips only the
        # machine-dependent metrics, which never fail the build.
        baseline = {"kernels": {"prefix_sum": {"wall_superblock_s": 1e-9}}}
        (tmp_path / SIMULATOR_BASELINE_FILE).write_text(
            json.dumps(baseline))
        assert main(["bench", *FAST, "--skip-service", "--check",
                     "--out", str(tmp_path)]) == 0
        assert "report-only" in capsys.readouterr().err


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


class TestSmokeSet:
    def test_smoke_kernels_are_a_subset(self):
        from repro.bench import BENCH_KERNELS, SMOKE_KERNELS
        from repro.kernels import KERNELS

        assert set(SMOKE_KERNELS) <= set(KERNELS)
        assert set(BENCH_KERNELS) <= set(KERNELS)
        assert len(SMOKE_KERNELS) == 2

    def test_unknown_kernel_rejected(self, capsys):
        assert main(["bench", "--kernels", "no_such_kernel",
                     "--skip-service"]) == 2
        assert "unknown benchmark kernel" in capsys.readouterr().err
