"""``repro bench`` and ``repro run --repeat`` end to end.

Most invocations skip the service benchmark and the DSE sweep; a
check of one of those halves skips the other.
"""

import json
from pathlib import Path

import pytest

from repro.bench import (
    BENCH_KERNELS,
    DSE_BASELINE_FILE,
    SERVICE_BASELINE_FILE,
    SIMULATOR_BASELINE_FILE,
    bench_dse,
    bench_service,
    bench_simulator,
    check_exact,
    load_baseline,
)
from repro.cli import main
from repro.kernels import KERNELS
from repro.kernels.cpi import CPI_SUITE

SIM_ONLY = ["--skip-service", "--skip-dse"]

#: The repo root, where the checked-in payloads live.
ROOT = Path(__file__).resolve().parents[2]
CHECKED_IN = ROOT / SIMULATOR_BASELINE_FILE
BASELINE_FILES = (SIMULATOR_BASELINE_FILE, SERVICE_BASELINE_FILE,
                  DSE_BASELINE_FILE)
#: The flags that run one payload's half alone (the simulator always runs).
ONLY = {SIMULATOR_BASELINE_FILE: SIM_ONLY,
        SERVICE_BASELINE_FILE: ["--skip-dse"],
        DSE_BASELINE_FILE: ["--skip-service"]}


def _numeric_leaves(tree, path=()):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _numeric_leaves(value, path + (key,))
        elif isinstance(value, (int, float)):
            yield path + (key,)


def _skewed(name, path, delta):
    """The checked-in payload ``name`` with the leaf at ``path`` moved
    by ``delta``; returns (payload, old value)."""
    payload = load_baseline(str(ROOT / name))
    node = payload
    for key in path[:-1]:
        node = node[key]
    old = node[path[-1]]
    node[path[-1]] = old + delta
    return payload, old


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

    def test_every_memory_plan_is_emitted(self, fresh):
        for row in fresh["coverage"].values():
            assert row["memory"] and row["memory_emitted"] == row["memory"]
            assert row["alu_emitted"] + row["memory"] <= row["plans"]


class TestCheckedInCounts:
    """The service and DSE payloads reproduce their checked-in files
    exactly too, and every numeric leaf of all three is checked."""

    @pytest.mark.parametrize("name, bench", [
        (SERVICE_BASELINE_FILE, bench_service),
        (DSE_BASELINE_FILE, bench_dse),
    ])
    def test_fresh_run_matches(self, name, bench):
        baseline = load_baseline(str(ROOT / name))
        fresh = json.loads(json.dumps(bench()))
        assert check_exact(baseline, fresh) == []
        assert fresh == baseline

    @pytest.mark.parametrize("name", BASELINE_FILES)
    def test_every_leaf_skew_trips(self, name):
        current = load_baseline(str(ROOT / name))
        leaves = list(_numeric_leaves(current))
        assert len(leaves) >= 4
        for path in leaves:
            for delta in (1, -1):
                baseline, old = _skewed(name, path, delta)
                assert check_exact(baseline, current) == [
                    "{}: {!r} -> {!r}".format(".".join(path), old + delta,
                                              old)]


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
        for name, half in ((SIMULATOR_BASELINE_FILE, "simulator"),
                           (SERVICE_BASELINE_FILE, "service")):
            assert payload[half] == load_baseline(str(ROOT / name))
            assert load_baseline(str(tmp_path / name)) == payload[half]

    def test_check_against_checked_in_payloads_passes(self, capsys):
        assert main(["bench", "--check", "--out", str(ROOT)]) == 0
        assert "mismatch" not in capsys.readouterr().out

    @pytest.mark.parametrize("delta", [1, -1])
    @pytest.mark.parametrize("name, path", [
        (SIMULATOR_BASELINE_FILE, "cpi.cpi_lds.cu_cycles"),
        (SERVICE_BASELINE_FILE, "warm_board_rate"),
        (SERVICE_BASELINE_FILE, "preemption.preemptions"),
        (DSE_BASELINE_FILE, "store_hit_rate"),
    ])
    def test_one_leaf_skew_fails_check(self, tmp_path, capsys, name, path,
                                       delta):
        baseline, old = _skewed(name, tuple(path.split(".")), delta)
        (tmp_path / name).write_text(json.dumps(baseline))
        assert main(["bench", *ONLY[name], "--check",
                     "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "{}: 1 mismatch(es)".format(tmp_path / name) in out
        assert [line.strip() for line in out.splitlines()
                if " -> " in line] == [
            "{}: {!r} -> {!r}".format(path, old + delta, old)]

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

    @pytest.mark.parametrize("flag", ["--kernels", "--smoke", "--repeat",
                                      "--report-only"])
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
