"""Job model + JSON job lists."""

import json

import pytest

from repro.core.config import ArchConfig
from repro.errors import AdmissionError
from repro.service.jobs import (MAX_REPEAT, Job, JobStatus, load_jobs,
                                suite_jobs)


class TestJob:
    def test_defaults(self):
        job = Job("matrix_add_i32", {"n": 64})
        assert job.config == "trimmed"
        assert job.priority == 0
        assert job.verify
        assert not job.profile
        assert job.global_mem_size is None

    def test_unknown_config_rejected(self):
        with pytest.raises(AdmissionError, match="config spec"):
            Job("matrix_add_i32", config="superscalar")

    def test_bad_budgets_rejected(self):
        with pytest.raises(AdmissionError):
            Job("x", retries=-1)
        with pytest.raises(AdmissionError):
            Job("x", timeout_s=0)

    def test_bad_engine_rejected(self):
        # Observation picks the issue loop; a job has no engine field,
        # so a job file naming one is refused like any unknown field.
        with pytest.raises(TypeError, match="engine"):
            Job("x", engine="superblock")
        for value in ("auto", "reference", "superblock", "fast"):
            with pytest.raises(AdmissionError,
                               match="entry 0: unknown fields.*'engine'"):
                load_jobs([{"benchmark": "x", "engine": value}])

    def test_bad_memory_size_rejected(self):
        with pytest.raises(AdmissionError, match="global_mem_size"):
            Job("x", global_mem_size=0x100)

    def test_bad_slice_rejected(self):
        with pytest.raises(AdmissionError, match="slice_instructions"):
            Job("x", slice_instructions=0)
        with pytest.raises(AdmissionError, match="slice_instructions"):
            Job("x", slice_instructions=-5)

    def test_describe(self):
        job = Job("conv2d_i32", {"n": 64, "k": 5}, config="multicore")
        assert "conv2d_i32" in job.describe()
        assert "multicore" in job.describe()


class TestLoadJobs:
    def test_load_with_repeat(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps({"jobs": [
            {"benchmark": "matrix_add_i32", "params": {"n": 32},
             "repeat": 3},
            {"benchmark": "conv2d_i32", "config": "baseline",
             "priority": -5},
        ]}))
        jobs = load_jobs(str(path))
        assert len(jobs) == 4
        assert jobs[0].benchmark == "matrix_add_i32"
        assert jobs[3].priority == -5

    def test_bare_list_accepted(self):
        jobs = load_jobs([{"benchmark": "matrix_add_i32"}])
        assert len(jobs) == 1

    def test_memory_field_accepted(self):
        (job,) = load_jobs([{"benchmark": "matrix_add_i32",
                             "global_mem_size": 1 << 25}])
        assert job.global_mem_size == 1 << 25

    def test_slice_instructions_field_accepted(self):
        (job,) = load_jobs([{"benchmark": "matrix_add_i32",
                             "slice_instructions": 500}])
        assert job.slice_instructions == 500

    def test_unknown_field_rejected(self):
        with pytest.raises(AdmissionError, match="unknown fields"):
            load_jobs([{"benchmark": "x", "gpu_count": 9}])

    def test_arch_field_rejected(self):
        # An architecture is named by ``config`` alone: a job file
        # carrying an ``arch`` payload is refused like any unknown field.
        for value in ("baseline", ArchConfig.baseline().to_dict()):
            with pytest.raises(AdmissionError,
                               match=r"entry 0: unknown fields \['arch'\]"):
                load_jobs([{"benchmark": "matrix_add_i32", "arch": value}])

    def test_missing_benchmark_rejected(self):
        with pytest.raises(AdmissionError, match="benchmark"):
            load_jobs([{"params": {}}])

    def test_non_list_rejected(self):
        with pytest.raises(AdmissionError):
            load_jobs({"jobs": "all of them"})

    @pytest.mark.parametrize("field,value", [
        ("retries", "x"),
        ("timeout_s", "a"),
        ("slice_instructions", [1]),
        ("repeat", "x"),
        ("repeat", 2.5),
        ("priority", None),
        ("max_groups", True),
        ("verify", 1),
        ("params", [1, 2]),
        ("config", 3),
        ("benchmark", 7),
        ("global_mem_size", 1e6),
    ])
    def test_wrong_field_type_rejected(self, field, value):
        entry = {"benchmark": "matrix_add_i32", field: value}
        with pytest.raises(AdmissionError,
                           match="entry 1: field '{}' must be".format(field)):
            load_jobs([{"benchmark": "matrix_add_i32"}, entry])

    @pytest.mark.parametrize("field,value", [
        ("timeout_s", 5), ("timeout_s", 0.5), ("timeout_s", None),
        ("max_groups", None), ("slice_instructions", None),
        ("priority", -3), ("repeat", 2),
    ])
    def test_field_types_accepted(self, field, value):
        jobs = load_jobs([{"benchmark": "matrix_add_i32", field: value}])
        assert len(jobs) == (value if field == "repeat" else 1)

    @pytest.mark.parametrize("repeat", [0, -1, MAX_REPEAT + 1, 2 ** 70])
    def test_repeat_out_of_range_rejected(self, repeat):
        # Refused from the entry alone: 2**70 copies of a job would
        # overflow the list that holds them.
        entry = {"benchmark": "matrix_add_i32", "repeat": repeat}
        with pytest.raises(AdmissionError,
                           match="entry 1: repeat must be in 1..{}".format(
                               MAX_REPEAT)):
            load_jobs([{"benchmark": "matrix_add_i32"}, entry])

    def test_repeat_at_the_cap_accepted(self):
        jobs = load_jobs([{"benchmark": "matrix_add_i32",
                           "repeat": MAX_REPEAT}])
        assert len(jobs) == MAX_REPEAT

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "garbled.json"
        path.write_text("not json{{")
        with pytest.raises(AdmissionError, match="not valid JSON"):
            load_jobs(str(path))


class TestSuiteJobs:
    def test_full_suite(self):
        jobs = suite_jobs()
        assert len(jobs) == 18  # 17 applications + the INT8 NIN variant
        assert all(j.config == "trimmed" for j in jobs)

    def test_name_filter(self):
        jobs = suite_jobs(names={"kmeans_f32"}, config="multicore")
        assert len(jobs) == 1
        assert jobs[0].config == "multicore"

    def test_verifying_suite_never_samples_workgroups(self):
        """Sampling leaves part of the output unwritten, so it is only
        legal for timing-only (verify=False) runs."""
        assert all(j.max_groups is None for j in suite_jobs(verify=True))
        assert any(j.max_groups is not None
                   for j in suite_jobs(verify=False))


def test_status_values():
    assert JobStatus("done") is JobStatus.DONE
    assert JobStatus("timeout") is JobStatus.TIMEOUT
