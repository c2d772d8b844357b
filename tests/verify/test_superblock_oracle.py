"""The superblock oracle: unobserved (compiled) runs match observed
(reference) runs bit for bit."""

import glob
import os

import pytest

from repro.cu import prepared, superblock
from repro.cu.prepared import clear_prepared_cache
from repro.verify.fuzz import run_corpus_file
from repro.verify.generator import generate_case
from repro.verify.oracles import ORACLE_NAMES, check_case

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_prepared_cache()
    yield
    clear_prepared_cache()


class TestOracleWiring:
    def test_oracle_registered(self):
        assert "superblock" in ORACLE_NAMES

    def test_unknown_subset_rejected(self):
        case = generate_case(0)
        with pytest.raises(ValueError, match="unknown oracles"):
            check_case(case, oracles=("warp-speed",))

    def test_subset_runs_only_requested(self):
        case = generate_case(3)
        assert check_case(case, oracles=("superblock",)) == []


class TestEngineEquivalenceOnCorpus:
    @pytest.mark.parametrize("path", sorted(
        glob.glob(os.path.join(CORPUS, "*.s"))),
        ids=lambda p: os.path.basename(p))
    def test_corpus_passes_superblock_oracle(self, path):
        _, failures = run_corpus_file(path, oracles=("superblock",))
        assert failures == [], "\n".join(str(f) for f in failures)

    def test_handwritten_reproducers_present(self):
        names = {os.path.basename(p)
                 for p in glob.glob(os.path.join(CORPUS, "*.s"))}
        assert {"case_seed9001.s", "case_seed9002.s"} <= names


class TestOracleCatchesDivergence:
    def test_wrong_plan_semantics_detected(self, monkeypatch):
        """Corrupt one per-instruction plan executor -- code the
        compiled loop runs at every issue of that instruction -- and
        check the oracle reports it."""
        real_build = superblock.build_superblocks

        def skewed(ps):
            source = real_build(ps)
            for plan in ps.plans:
                if plan.name == "v_mul_i32_i24":
                    def wrong(wf, _real=plan.exec_fn):
                        _real(wf)
                        # Corrupt one architectural bit after the real
                        # op; no later instruction writes SCC, so the
                        # flip survives to the final register snapshot.
                        wf.scc = (wf.scc or 0) ^ 1
                    plan.exec_fn = wrong
            return source

        monkeypatch.setattr(prepared, "build_superblocks", skewed)
        # Seed 2's case issues one v_mul_i32_i24.
        case = generate_case(2)
        failures = check_case(case, oracles=("superblock",))
        assert failures, "oracle missed an injected plan bug"
        assert all(f.oracle == "superblock" for f in failures)

    def test_observation_cost_detected(self, monkeypatch):
        """The zero-cost-observation claim (folded into this oracle's
        baseline leg): if observing a run changed its cycle count, the
        oracle must report it."""
        from repro.cu.pipeline import ComputeUnit

        real = ComputeUnit._run_reference

        def slower(self, workgroup, start_time, wavefronts):
            end, stats = real(self, workgroup, start_time, wavefronts)
            return end + 1.0, stats

        monkeypatch.setattr(ComputeUnit, "_run_reference", slower)
        failures = check_case(generate_case(3), oracles=("superblock",))
        assert any(f.oracle == "superblock" and "cycle counts differ" in
                   f.detail and "baseline-superblock" in f.detail
                   for f in failures)
