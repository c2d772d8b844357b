"""Sweep-engine acceptance: evaluation, budget, resume, determinism."""

import json

import pytest

from repro.dse import (
    DesignPoint,
    DesignSpace,
    SweepRunner,
    SweepSpec,
    build_report,
    preset,
    write_report,
)
from repro.errors import AreaBudgetError, DseError, ReproError

ADD = "matrix_add_i32"


def _space(*points):
    return DesignSpace(name="test", points=points)


def _smoke_spec(**kwargs):
    return SweepSpec(space=preset("paper", smoke=True), **kwargs)


class TestEvaluate:
    def test_point_joins_cycles_area_energy(self):
        point = DesignPoint(kernels=(ADD,), config="trimmed")
        runner = SweepRunner(SweepSpec(space=_space(point)))
        result = runner.evaluate(point)
        assert result.ok
        assert result.cu_cycles > 0
        assert result.area["lut"] > 0
        assert result.power_w > 0
        assert result.energy_j > 0
        assert result.kernels[ADD]["instructions"] > 0
        assert result.budget["headroom_lut"] > 0
        # the trimmed arch carries the point's identity in its label
        assert point.name in result.arch.label

    def test_area_budget_violation_raises_named_repro_error(self):
        # an untrimmed baseline duplicated to 3 CUs cannot fit the
        # device: re-investment without trimming must be rejected
        point = DesignPoint(kernels=(ADD,), config="baseline", num_cus=3)
        runner = SweepRunner(SweepSpec(space=_space(point)))
        with pytest.raises(AreaBudgetError) as excinfo:
            runner.evaluate(point)
        assert isinstance(excinfo.value, ReproError)
        assert point.name in str(excinfo.value)

    def test_unknown_benchmark_fails_resolution(self):
        point = DesignPoint(kernels=("no_such_kernel",))
        runner = SweepRunner(SweepSpec(space=_space(point)))
        with pytest.raises(DseError):
            runner.evaluate(point)


class TestSweep:
    def test_paper_smoke_grid(self):
        report = SweepRunner(_smoke_spec()).sweep()
        assert len(report.results) == 8
        assert len(report.ok_results) == 8
        assert not report.infeasible and not report.failed
        # the frontier is a strict, non-empty subset
        front = report.frontier_results()
        assert 0 < len(front) <= 8
        payload = report.to_dict()
        assert payload["totals"]["ok"] == 8
        for entry in payload["points"]:
            assert entry["status"] == "ok"
            assert entry["area"]["lut"] > 0
            assert entry["totals"]["cu_cycles"] > 0
            assert entry["totals"]["energy_j"] > 0

    def test_infeasible_points_recorded_not_fatal(self):
        bad = DesignPoint(kernels=(ADD,), config="baseline", num_cus=3)
        good = DesignPoint(kernels=(ADD,), config="trimmed")
        report = SweepRunner(SweepSpec(space=_space(bad, good))).sweep()
        assert len(report.infeasible) == 1
        assert report.infeasible[0].point == bad
        assert bad.name in report.infeasible[0].error
        assert len(report.ok_results) == 1

    def test_spec_validation(self):
        space = _space(DesignPoint(kernels=(ADD,)))
        with pytest.raises(DseError):
            SweepSpec(space=space, workers=0)
        with pytest.raises(DseError):
            SweepSpec(space=space, budget_margin=5.0)


class TestResume:
    def test_interrupted_sweep_resumes_from_store(self, tmp_path):
        store = str(tmp_path / "store")
        full = preset("paper", smoke=True)
        # first run dies after half the grid: sweep only a prefix
        partial = DesignSpace(name=full.name, points=full.points[:4])
        first = SweepRunner(
            SweepSpec(space=partial, store_dir=store)).sweep()
        assert first.reused == 0

        # the re-run picks the finished half up from the store
        resumed = SweepRunner(
            SweepSpec(space=full, store_dir=store)).sweep()
        assert resumed.reused == 4
        assert len(resumed.ok_results) == 8

        # and a third run is entirely store-served
        third = SweepRunner(
            SweepSpec(space=full, store_dir=store)).sweep()
        assert third.reused == 8

        # stored results carry the same numbers as fresh ones
        fresh = SweepRunner(SweepSpec(space=full)).sweep()
        for a, b in zip(third.results, fresh.results):
            assert a.point == b.point
            assert a.kernels == b.kernels
            assert a.area == b.area

    def test_policy_change_misses_the_store(self, tmp_path):
        store = str(tmp_path / "store")
        space = _space(DesignPoint(kernels=(ADD,), config="trimmed"))
        SweepRunner(SweepSpec(space=space, store_dir=store)).sweep()
        changed = SweepRunner(SweepSpec(space=space, store_dir=store,
                                        budget_margin=0.9)).sweep()
        assert changed.reused == 0


class TestDeterminism:
    def test_same_grid_writes_byte_identical_reports(self, tmp_path):
        files = []
        for run in ("a", "b"):
            sweep = SweepRunner(_smoke_spec(workers=3)).sweep()
            report = build_report(sweep.to_dict())
            paths = write_report(report, str(tmp_path / run))
            files.append(paths)
        for suffix in ("json", "csv", "md"):
            a = open(files[0][suffix], "rb").read()
            b = open(files[1][suffix], "rb").read()
            assert a == b, "{} rendering is not deterministic".format(suffix)
        payload = json.loads(open(files[0]["json"]).read())
        assert payload["totals"]["ok"] == 8
