"""The differential-oracle matrix."""

import pytest

from repro.core.config import ArchConfig
from repro.verify import ORACLE_NAMES, check_case, generate_case, run_case
from repro.verify import oracles as oracles_mod


class TestRunCase:
    def test_snapshot_shape(self):
        case = generate_case(4)
        snap = run_case(case, ArchConfig.baseline(), label="x")
        assert snap.label == "x"
        assert len(snap.memory) == oracles_mod.FUZZ_MEM_SIZE
        assert snap.instructions > 0
        assert snap.cycles > 0
        # One register record per wavefront per workgroup.
        expected = case.groups * -(-case.local_size // 64)
        assert len(snap.registers) == expected

    def test_unobserved_captures_registers(self):
        # One register-capture path: the launch records final state
        # whether observed or not, so the unobserved snapshot carries
        # the same registers as the observed one.
        case = generate_case(4)
        observed = run_case(case, ArchConfig.baseline())
        unobserved = run_case(case, ArchConfig.baseline(), observed=False)
        assert unobserved.registers
        assert unobserved.registers == observed.registers

    def test_zero_cost_observation_direct(self):
        """The pinned claim: attach/detach changes nothing, bit-for-bit."""
        case = generate_case(6)
        observed = run_case(case, ArchConfig.baseline(),
                            check_invariants=True)
        unobserved = run_case(case, ArchConfig.baseline(), observed=False)
        assert observed.cycles == unobserved.cycles
        assert observed.instructions == unobserved.instructions
        assert observed.memory == unobserved.memory


class TestCheckCase:
    @pytest.mark.parametrize("seed", [0, 2, 5, 8])
    def test_generated_cases_pass_all_oracles(self, seed):
        assert check_case(generate_case(seed)) == []

    def test_oracle_names_are_stable(self):
        assert ORACLE_NAMES == ("roundtrip", "invariants", "trimmed",
                                "multi-cu", "prefetch-off", "spec",
                                "warm-lease", "checkpoint", "vector",
                                "counters")

    def test_warm_lease_oracle_runs_warm(self):
        """The warm-lease subset alone passes, and really leases warm:
        a private pool seeded by the cold run serves the second run."""
        case = generate_case(3)
        assert check_case(case, oracles=("warm-lease",)) == []

    def test_warm_lease_run_case_provenance(self):
        from repro.exec import BoardPool, Executor

        executor = Executor(pool=BoardPool(capacity=2))
        case = generate_case(3)
        cold = run_case(case, ArchConfig.baseline(), executor=executor)
        warm = run_case(case, ArchConfig.baseline(), executor=executor)
        assert cold.warm is False
        assert warm.warm is True
        assert warm.memory == cold.memory
        assert warm.cycles == cold.cycles
        assert warm.instructions == cold.instructions
        assert warm.registers == cold.registers

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_checkpoint_oracle_passes(self, seed):
        """The checkpoint subset alone passes: randomized slice points,
        JSON-tripped envelopes, every resume on a fresh board."""
        assert check_case(generate_case(seed),
                          oracles=("checkpoint",)) == []

    def test_checkpoint_oracle_slices(self):
        """The oracle really preempts (not a degenerate single slice)
        for a case whose run is long enough to cross its budget."""
        case = generate_case(0)
        ref = run_case(case, ArchConfig.baseline())
        budget = max(1, ref.instructions // 8)
        if case.groups > 1 and ref.instructions > budget:
            sliced, hops = oracles_mod._run_sliced(
                case, ArchConfig.baseline(), budget)
            assert hops >= 1
            assert sliced.memory == ref.memory
            assert sliced.cycles == ref.cycles
            assert sliced.instructions == ref.instructions

    def test_checkpoint_oracle_detects_divergence(self, monkeypatch):
        """Teeth check: skew the restored timeline by one cycle and the
        checkpoint oracle must fire (BoardCheckpoint.apply resolves
        restore_board_state from repro.soc.state at call time)."""
        import repro.soc.state as soc_state

        case = generate_case(0)
        if case.groups < 2:
            pytest.skip("single-workgroup case never preempts")
        real = soc_state.restore_board_state

        def skewed(gpu, state):
            state = dict(state)
            state["now"] = state["now"] + 1.0
            real(gpu, state)

        monkeypatch.setattr(soc_state, "restore_board_state", skewed)
        failures = check_case(case, oracles=("checkpoint",))
        assert any(f.oracle == "checkpoint" for f in failures)

    def test_checkpoint_oracle_detects_extra_digest(self, monkeypatch):
        """Teeth check: a resumed slice that digests a buffer the
        straight run does not (here the whole heap, input included)
        fails the checkpoint oracle even though memory agrees."""
        from repro.exec import ProgramWorkload

        case = generate_case(0)
        if case.groups < 2:
            pytest.skip("single-workgroup case never preempts")
        real_run = ProgramWorkload.run

        def whole_heap(self, board, request, resume=None):
            run = real_run(self, board, request, resume=resume)
            if resume is not None:
                run.outputs = {buf.name: buf for buf in board.heap}
            return run

        monkeypatch.setattr(ProgramWorkload, "run", whole_heap)
        failures = check_case(case, oracles=("checkpoint",))
        assert [f.oracle for f in failures] == ["checkpoint"]
        assert "output digests differ" in failures[0].detail
        assert "'inp'" in failures[0].detail

    def test_detects_config_divergence(self, monkeypatch):
        """Sanity that the matrix has teeth: substitute an architecture
        with different timing for the 'trimmed' config and the cycle
        oracle must fire."""

        class FakeTrim:
            config = ArchConfig.original()

        monkeypatch.setattr(oracles_mod.TrimmingTool, "trim",
                            lambda self, programs, **kw: FakeTrim())
        failures = check_case(generate_case(1))
        assert any(f.oracle == "trimmed" for f in failures)
        assert all(f.oracle == "trimmed" for f in failures)

    def test_detects_roundtrip_divergence(self, monkeypatch):
        monkeypatch.setattr(oracles_mod, "disassemble",
                            lambda program: "s_nop\ns_endpgm\n")
        failures = check_case(generate_case(1))
        assert [f.oracle for f in failures] == ["roundtrip"]
