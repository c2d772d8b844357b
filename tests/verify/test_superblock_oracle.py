"""The superblock engine-equivalence oracle."""

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
    def test_wrong_block_semantics_detected(self, monkeypatch):
        """Corrupt the compiled blocks (both execution regimes) and
        check the oracle reports it (the gate actually gates)."""
        real_compile = superblock._compile_block

        def skewed(run):
            blk = real_compile(run)
            real_sem_all, real_sem = blk.sem_all, blk.sem

            def wrong_sem_all(wf):
                real_sem_all(wf)
                wf.scc = (wf.scc or 0) ^ 1

            def wrong_sem(wf, k0, k1):
                real_sem(wf, k0, k1)
                wf.scc = (wf.scc or 0) ^ 1

            blk.sem_all, blk.sem = wrong_sem_all, wrong_sem
            return blk

        monkeypatch.setattr(superblock, "_compile_block", skewed)
        case = generate_case(0)
        failures = check_case(case, oracles=("superblock",))
        assert failures, "oracle missed an injected superblock bug"
        assert all(f.oracle == "superblock" for f in failures)

    def test_wrong_plan_semantics_detected(self, monkeypatch):
        """Corrupt one per-instruction plan executor -- code the
        superblock engine runs for every instruction outside a block --
        and check the oracle reports it."""
        real_build = prepared._build_vector

        def skewed(inst):
            fn = real_build(inst)
            if fn is None or inst.spec.name != "v_mul_i32_i24":
                return fn

            def wrong(wf):
                fn(wf)
                # Corrupt one architectural bit after the real op; no
                # later instruction writes SCC, so the flip survives to
                # the final register snapshot.
                wf.scc = (wf.scc or 0) ^ 1
            return wrong

        monkeypatch.setattr(prepared, "_build_vector", skewed)
        # Seed 2's case issues its one v_mul_i32_i24 alone between an
        # s_waitcnt and a branch -- too short a run for a block, so it
        # executes through its plan.
        case = generate_case(2)
        failures = check_case(case, oracles=("superblock",))
        assert failures, "oracle missed an injected plan bug"
        assert all(f.oracle == "superblock" for f in failures)
