"""The command-line toolchain, end to end."""

import json

import pytest

from repro.cli import main

KERNEL = """
.kernel cli_demo
  s_buffer_load_dword s20, s[12:15], 0
  s_waitcnt lgkmcnt(0)
  v_add_i32 v3, vcc, s20, v0
  v_lshlrev_b32 v3, 2, v3
  tbuffer_store_format_x v3, v3, s[4:7], 0 offen
  s_endpgm
"""


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "kernel.s"
    path.write_text(KERNEL)
    return str(path)


class TestAsmDisasm:
    def test_asm_to_stdout(self, kernel_file, capsys):
        assert main(["asm", kernel_file]) == 0
        out = capsys.readouterr().out
        assert all(len(tok) == 8 for tok in out.split())

    def test_asm_to_file_and_disasm(self, kernel_file, tmp_path, capsys):
        binary = str(tmp_path / "kernel.bin")
        assert main(["asm", kernel_file, "-o", binary]) == 0
        capsys.readouterr()
        assert main(["disasm", binary]) == 0
        out = capsys.readouterr().out
        assert "v_add_i32" in out and "s_endpgm" in out

    def test_disasm_of_source_file(self, kernel_file, capsys):
        assert main(["disasm", kernel_file]) == 0
        assert "tbuffer_store_format_x" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["asm", "/nonexistent/file.s"]) == 2
        assert "error" in capsys.readouterr().err

    def test_assembly_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.s"
        bad.write_text("v_bogus v0, v1\n")
        assert main(["asm", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "unknown mnemonic" in err
        assert "Traceback" not in err

    def test_user_errors_exit_2_uniformly(self, capsys):
        """Every subcommand maps ReproError to status 2, one line."""
        assert main(["trim", "/nonexistent/file.s"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


class TestTrim:
    def test_text_report(self, kernel_file, capsys):
        assert main(["trim", kernel_file]) == 0
        out = capsys.readouterr().out
        assert "kept" in out and "saved" in out

    def test_json_report(self, kernel_file, capsys):
        assert main(["trim", kernel_file, "--json", "--multicore"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["instructions_kept"] == 6
        assert payload["removed_units"] == ["simf"]
        assert payload["parallel"]["cus"] >= 2
        assert 0 < payload["savings"]["ff"] < 1

    def test_multithread_flag(self, kernel_file, capsys):
        assert main(["trim", kernel_file, "--multithread"]) == 0
        assert "multithread re-investment" in capsys.readouterr().out

    def test_multiple_kernels(self, kernel_file, tmp_path, capsys):
        second = tmp_path / "fp.s"
        second.write_text(".kernel fp\n  v_add_f32 v1, v0, v0\n  s_endpgm\n")
        assert main(["trim", kernel_file, str(second), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["removed_units"] == []  # union needs the SIMF


class TestSynthAndCharacterize:
    def test_synth(self, capsys):
        assert main(["synth", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "fits device: True" in out

    def test_synth_parallel_shape(self, capsys):
        assert main(["synth", "baseline", "--cus", "4"]) == 0
        assert "fits device: False" in capsys.readouterr().out

    def test_characterize(self, kernel_file, capsys):
        assert main(["characterize", kernel_file]) == 0
        out = capsys.readouterr().out
        assert "Memory operations" in out


class TestValidateAndRun:
    def test_validate_subset(self, capsys):
        assert main(["validate", "v_add_f32", "s_mul_i32"]) == 0
        assert "2 passed" in capsys.readouterr().out

    def test_run_unknown_benchmark(self, capsys):
        assert main(["run", "no_such_bench"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_run_json_metrics(self, capsys):
        assert main(["run", "matrix_add_i32", "--configs", "baseline",
                     "trimmed", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["benchmark"] == "matrix_add_i32"
        for label in ("baseline", "trimmed"):
            entry = payload["configs"][label]
            assert entry["seconds"] > 0
            assert entry["energy_joules"] == pytest.approx(
                entry["seconds"] * entry["power_w"]["total"])
            assert entry["edp"] == pytest.approx(
                entry["energy_joules"] * entry["seconds"])
            assert entry["ipj"] == pytest.approx(
                entry["instructions"] / entry["energy_joules"])
        assert payload["configs"]["baseline"]["speedup_vs_baseline"] == 1.0

    @pytest.mark.parametrize("engine", ["fast", "parallel"])
    @pytest.mark.parametrize("command", [["run", "matrix_add_i32"],
                                         ["serve"]])
    def test_removed_engine_rejected(self, command, engine, capsys):
        # Observation picks the issue loop: neither command has an
        # --engine flag any more, so any value is a usage error.
        with pytest.raises(SystemExit) as exc:
            main(command + ["--engine", engine])
        assert exc.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err


class TestProfile:
    def test_table_output(self, capsys):
        assert main(["profile", "matrix_add_i32", "--no-verify"]) == 0
        out = capsys.readouterr().out
        assert "cycle attribution" in out
        assert "stall: operand-dep" in out
        assert "issue mix" in out
        assert "prefetch hit rate" in out

    def test_json_output(self, capsys):
        assert main(["profile", "matrix_add_i32", "--no-verify",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["benchmark"] == "matrix_add_i32"
        counters = payload["counters"]
        stall_total = sum(counters["stall"].values())
        assert counters["cycles"]["active"] + stall_total \
            == pytest.approx(counters["cycles"]["total"])
        assert counters["derived"]["prefetch_hit_rate"] == 1.0
        assert payload["metrics"]["seconds"] > 0

    def test_trace_file_is_valid_chrome_trace(self, tmp_path, capsys):
        from repro.obs import validate_chrome_trace

        out_path = tmp_path / "trace.json"
        assert main(["profile", "matrix_add_i32", "--no-verify",
                     "--trace", str(out_path)]) == 0
        assert "trace:" in capsys.readouterr().err
        payload = json.loads(out_path.read_text())
        assert validate_chrome_trace(payload) > 0

    def test_trimmed_config(self, capsys):
        assert main(["profile", "matrix_add_i32", "--config", "trimmed",
                     "--no-verify"]) == 0
        assert "trim" in capsys.readouterr().out

    def test_unknown_benchmark(self, capsys):
        assert main(["profile", "no_such_bench"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err


class TestServe:
    def test_serve_jobs_file(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps({"jobs": [
            {"benchmark": "matrix_add_i32", "params": {"n": 32},
             "config": "trimmed", "repeat": 2},
            {"benchmark": "matrix_mul_i32", "params": {"n": 8},
             "config": "baseline"},
        ]}))
        assert main(["serve", "--workers", "2", "--mode", "thread",
                     "--jobs", str(jobs), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["results"]) == 3
        assert all(r["status"] == "done" for r in payload["results"])
        assert payload["stats"]["completed"] == 3
        assert payload["stats"]["cache"]["hit_rate"] > 0

    def test_serve_bad_jobs_file(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps({"jobs": [{"benchmark": "nope"}]}))
        assert main(["serve", "--mode", "inline", "--jobs",
                     str(jobs)]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["x", True, 2.5])
    def test_serve_wrong_param_type_exits_2(self, tmp_path, capsys, value):
        # Rejected at admission, like an unknown parameter name -- not
        # in the worker as a raw numpy error.
        jobs = tmp_path / "bad.json"
        jobs.write_text(json.dumps({"jobs": [
            {"benchmark": "matrix_add_i32", "params": {"n": value}}]}))
        assert main(["serve", "--mode", "inline", "--jobs",
                     str(jobs)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert lines == ["error: matrix_add_i32: parameter 'n' must be "
                         "int, got {} {!r}".format(type(value).__name__,
                                                   value)]

    @pytest.mark.parametrize("entry,field", [
        ({"benchmark": "matrix_add_i32", "retries": "x"}, "retries"),
        ({"benchmark": "matrix_add_i32", "engine": "superblock"}, "engine"),
    ])
    def test_serve_wrong_field_exits_2(self, tmp_path, capsys, entry, field):
        jobs = tmp_path / "bad.json"
        jobs.write_text(json.dumps({"jobs": [entry]}))
        assert main(["serve", "--mode", "inline", "--jobs",
                     str(jobs)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: job entry 0")
        assert repr(field) in lines[0]
