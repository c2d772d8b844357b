"""The spec oracle: the issue loop, observed and unobserved, matches the
verify spec loop bit for bit -- state, cycles, run stats and the
recorded event stream."""

import contextlib
import glob
import os

import pytest

from repro.cu import prepared, superblock
from repro.cu.pipeline import ComputeUnit
from repro.cu.prepared import KIND_MEMORY, clear_prepared_cache
from repro.exec import ExecutionRequest, Executor
from repro.kernels import APPSDK_SUITE, EVALUATION_SUITE
from repro.verify.fuzz import run_corpus_file
from repro.verify.generator import generate_case
from repro.verify.oracles import ORACLE_NAMES, check_case
from repro.verify.spec import fact_free_memory, spec_execution

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
                        # op; no generated program writes s100, so the
                        # flip survives to the final register snapshot.
                        wf.sgprs[100] ^= 1
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

    @pytest.mark.parametrize("claim", ["uniform", "dead"])
    def test_wrong_program_fact_detected(self, monkeypatch, claim):
        """Claim every offen load lane-uniform, or every VCC write
        dead: the spec loop runs fact-free executors, so the oracle
        must see the difference."""
        real_facts = superblock.program_facts

        def wrong(plans, vgpr_rows):
            facts = real_facts(plans, vgpr_rows)
            if claim == "uniform":
                return facts._replace(uniform_loads=frozenset(
                    plan.index for plan in plans
                    if "load" in plan.name and plan.kind == KIND_MEMORY
                    and plan.inst.fields.get("offen")
                    and not plan.inst.fields.get("idxen")))
            return facts._replace(dead_vcc=frozenset(
                plan.index for plan in plans
                if plan.name in ("v_add_i32", "v_sub_i32", "v_subrev_i32")
                and plan.specialized))

        monkeypatch.setattr(superblock, "program_facts", wrong)
        failures = check_case(generate_case(3), oracles=("spec",))
        assert failures, "oracle missed a wrong {} fact".format(claim)
        assert any("register state differs" in f.detail
                   or "memory" in f.detail for f in failures)


class TestSuiteAgainstSpecLoop:
    """Every benchmark kernel, issue loop against spec loop: registers,
    memory and cycles.  Together the suites carry every uniform-address
    load and dead VCC write the program facts find in them."""

    @staticmethod
    def _run(name, spec):
        request = ExecutionRequest(benchmark=name, verify=False,
                                   collect_registers=True,
                                   capture_memory=True)
        with spec_execution() if spec else contextlib.nullcontext():
            result = Executor().execute(request)
        return {"registers": result.registers,
                "memory": result.memory_image,
                "cycles": [launch.cu_cycles for launch in result.launches],
                "instructions": result.instructions}

    @pytest.mark.parametrize("name", sorted(
        {cls.name for cls in list(EVALUATION_SUITE) + list(APPSDK_SUITE)}))
    def test_issue_loop_matches_spec_loop(self, name):
        want = self._run(name, spec=True)
        got = self._run(name, spec=False)
        for key in want:
            assert got[key] == want[key], "{}: {} differ".format(name, key)

    def test_spec_loop_memory_executors_are_fact_free(self):
        from repro.kernels import KERNELS
        program = KERNELS["kmeans_f32"]().programs()[0]
        ps = prepared.get_prepared(program)
        assert ps.facts.uniform_loads
        executors = fact_free_memory(ps)
        assert fact_free_memory(ps) is executors     # compiled once
        assert set(executors) == {plan.index for plan in ps.plans
                                  if plan.kind == KIND_MEMORY}
        for index in ps.facts.uniform_loads:
            # The row form reduces its lane addresses to a footprint;
            # the one-address form has no reductions.
            assert "_mn" in executors[index].__code__.co_names
            assert "_mn" not in ps.plans[index].mem_fn.__code__.co_names
