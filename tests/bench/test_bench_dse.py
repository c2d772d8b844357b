"""The DSE sweep benchmark and its ``repro bench`` wiring."""

import json

from repro.bench import DSE_BASELINE_FILE, bench_dse, compare_reports
from repro.bench.dse import render_dse
from repro.cli import main

FAST = ["--skip-service"]


class TestBenchDse:
    def test_payload_shape(self):
        payload = bench_dse(workers=2)
        assert payload["points"] == 8
        assert payload["ok_points"] == 8
        assert payload["store_hit_rate"] == 1.0
        assert payload["points_per_second"] > 0
        assert payload["resume_speedup"] > 0
        assert "store hit rate 100%" in render_dse(payload)

    def test_store_hit_rate_is_enforced_metric(self):
        baseline = {"store_hit_rate": 1.0, "points_per_second": 1e9}
        current = {"store_hit_rate": 0.0, "points_per_second": 1.0}
        regressions = compare_reports(baseline, current)
        by_path = {r.path: r for r in regressions}
        assert by_path["store_hit_rate"].enforced
        assert not by_path["points_per_second"].enforced


class TestBenchCommandWiring:
    def test_skip_dse_flag(self, tmp_path, capsys):
        assert main(["bench", *FAST, "--skip-dse", "--json",
                     "--out", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dse"] is None
        assert not (tmp_path / DSE_BASELINE_FILE).exists()

    def test_dse_baseline_written(self, tmp_path, capsys):
        assert main(["bench", *FAST, "--json",
                     "--out", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dse"]["store_hit_rate"] == 1.0
        written = json.loads((tmp_path / DSE_BASELINE_FILE).read_text())
        assert written == payload["dse"]
