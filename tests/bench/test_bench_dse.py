"""The DSE sweep benchmark and its ``repro bench`` wiring."""

import json

from repro.bench import DSE_BASELINE_FILE, bench_dse
from repro.bench.dse import render_dse
from repro.cli import main

FAST = ["--skip-service"]


class TestBenchDse:
    def test_payload_shape(self):
        payload = bench_dse()
        assert payload == {"schema": 2, "space": "paper-smoke", "points": 8,
                           "ok_points": 8, "pareto_points": 5,
                           "store_hit_rate": 1.0}
        assert "store hit rate 100%" in render_dse(payload)


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
