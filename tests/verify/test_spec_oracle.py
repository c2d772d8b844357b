"""The spec oracle: the issue loop, observed and unobserved, matches the
verify spec loop bit for bit -- state, cycles, run stats and the
recorded event stream."""

import glob
import os

import pytest

from repro.cu import prepared, superblock
from repro.cu.pipeline import ComputeUnit
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
        assert "spec" in ORACLE_NAMES
        assert "superblock" not in ORACLE_NAMES

    def test_unknown_subset_rejected(self):
        case = generate_case(0)
        with pytest.raises(ValueError, match="unknown oracles"):
            check_case(case, oracles=("warp-speed",))

    def test_subset_runs_only_requested(self):
        case = generate_case(3)
        assert check_case(case, oracles=("spec",)) == []


class TestEngineEquivalenceOnCorpus:
    @pytest.mark.parametrize("path", sorted(
        glob.glob(os.path.join(CORPUS, "*.s"))),
        ids=lambda p: os.path.basename(p))
    def test_corpus_passes_spec_oracle(self, path):
        _, failures = run_corpus_file(path, oracles=("spec",))
        assert failures == [], "\n".join(str(f) for f in failures)

    def test_handwritten_reproducers_present(self):
        names = {os.path.basename(p)
                 for p in glob.glob(os.path.join(CORPUS, "*.s"))}
        assert {"case_seed9001.s", "case_seed9002.s"} <= names


def _observed_only(monkeypatch, wrap):
    """Patch the production issue loop so that observed runs go
    through ``wrap(real, cu, workgroup, start_time, wavefronts)``; the
    spec loop and unobserved runs are untouched."""
    real = ComputeUnit._run_compiled

    def patched(self, workgroup, start_time, wavefronts):
        if self.obs is None:
            return real(self, workgroup, start_time, wavefronts)
        return wrap(real, self, workgroup, start_time, wavefronts)

    monkeypatch.setattr(ComputeUnit, "_run_compiled", patched)


class _FilteringHub:
    """Stands in for a CU's hub and rewrites the stream it forwards:
    ``rewrite(emitter_name, event)`` returns the ``(emitter_name,
    event)`` pairs to deliver in its place."""

    def __init__(self, hub, rewrite):
        self.hub = hub
        self.rewrite = rewrite

    def __getattr__(self, name):
        def forward(event):
            for out_name, out in self.rewrite(name, event):
                getattr(self.hub, out_name)(out)
        return forward


def _rewriting(rewrite):
    def wrap(real, cu, workgroup, start_time, wavefronts):
        hub = cu.obs
        cu.obs = _FilteringHub(hub, rewrite)
        try:
            return real(cu, workgroup, start_time, wavefronts)
        finally:
            cu.obs = hub
    return wrap


class TestOracleCatchesDivergence:
    def test_wrong_plan_semantics_detected(self, monkeypatch):
        """Corrupt one per-instruction plan executor -- code the issue
        loop runs at every issue of that instruction -- and check the
        oracle reports it."""
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
        failures = check_case(case, oracles=("spec",))
        assert failures, "oracle missed an injected plan bug"
        assert all(f.oracle == "spec" for f in failures)
        assert any("register state differs" in f.detail for f in failures)

    def test_observation_cost_detected(self, monkeypatch):
        """The zero-cost-observation claim (folded into this oracle):
        if observing a run shifted its cycle count, the oracle must
        report it on the observed leg alone."""
        def slower(real, cu, workgroup, start_time, wavefronts):
            end, stats = real(cu, workgroup, start_time, wavefronts)
            return end + 1.0, stats

        _observed_only(monkeypatch, slower)
        failures = check_case(generate_case(3), oracles=("spec",))
        cycles = [f for f in failures if "cycle counts differ" in f.detail]
        assert cycles and all(f.oracle == "spec" for f in failures)
        assert any("baseline-observed" in f.detail for f in cycles)
        assert not any("unobserved" in f.detail for f in failures)

    def test_dropped_event_detected(self, monkeypatch):
        """An observed run that loses its workgroup spans keeps every
        bit of state and every cycle; only the event streams differ."""
        def drop_spans(name, event):
            return () if name == "emit_span" else ((name, event),)

        _observed_only(monkeypatch, _rewriting(drop_spans))
        failures = check_case(generate_case(3), oracles=("spec",))
        assert failures
        assert all(f.oracle == "spec" and "event streams differ" in f.detail
                   for f in failures)

    def test_reordered_event_detected(self, monkeypatch):
        """Deliver each issue after the event that follows it."""
        held = []

        def swap_issue(name, event):
            if name == "emit_issue":
                held.append((name, event))
                return ()
            out = [(name, event)] + held
            held.clear()
            return out

        _observed_only(monkeypatch, _rewriting(swap_issue))
        failures = check_case(generate_case(3), oracles=("spec",))
        assert failures
        assert all(f.oracle == "spec" and "event streams differ" in f.detail
                   for f in failures)
