"""The counters oracle: profiled runs count from run aggregates exactly
what the event-driven observer counts on the spec loop."""

import glob
import os

import pytest

from repro.cu import pipeline
from repro.verify.fuzz import run_corpus_file
from repro.verify.generator import generate_case
from repro.verify.oracles import ORACLE_NAMES, check_case

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")


def test_oracle_registered():
    assert "counters" in ORACLE_NAMES


@pytest.mark.parametrize("path", sorted(
    glob.glob(os.path.join(CORPUS, "*.s"))),
    ids=lambda p: os.path.basename(p))
def test_corpus_passes_counters_oracle(path):
    _, failures = run_corpus_file(path, oracles=("counters",))
    assert failures == [], "\n".join(str(f) for f in failures)


@pytest.mark.parametrize("seed", range(8))
def test_generated_cases_pass(seed):
    failures = check_case(generate_case(seed), oracles=("counters",))
    assert failures == [], "\n".join(str(f) for f in failures)


class TestOracleCatchesDivergence:
    def test_wrong_compiled_stall_split_detected(self, monkeypatch):
        """Move a quarter cycle of the compiled loop's operand-dep idle
        time to fu-busy: the cycle total still adds up, but the
        compiled counters no longer match the observer's."""
        real = pipeline.ComputeUnit._run_compiled

        def skewed(self, workgroup, start_time, wavefronts):
            end_time, stats = real(self, workgroup, start_time, wavefronts)
            stalls = stats.stalls
            if stalls.get("operand-dep", 0) >= 0.25:
                stalls["operand-dep"] -= 0.25
                stalls["fu-busy"] = stalls.get("fu-busy", 0) + 0.25
            return end_time, stats

        monkeypatch.setattr(pipeline.ComputeUnit, "_run_compiled", skewed)
        case = generate_case(1)
        failures = check_case(case, oracles=("counters",))
        assert failures, "oracle missed a skewed compiled stall split"
        assert all(f.oracle == "counters" for f in failures)
        assert any("compiled" in f.detail and "stall.fu-busy" in f.detail
                   for f in failures)

    def test_lost_drain_tail_detected(self, monkeypatch):
        """Drop the drain tail from the aggregates of both loops: the
        oracle reports the compiled and the spec side."""
        real = pipeline.CuRunStats._close

        def no_drain(self, cu_index, wavefronts, start_time, decode_free,
                     end_time, stalls):
            real(self, cu_index, wavefronts, start_time, end_time,
                 end_time, stalls)

        monkeypatch.setattr(pipeline.CuRunStats, "_close", no_drain)
        failures = check_case(generate_case(0), oracles=("counters",))
        details = [f.detail for f in failures]
        assert any("compiled" in d and "stall.drain" in d for d in details)
        assert any("spec" in d and "stall.drain" in d for d in details)
