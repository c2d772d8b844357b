"""BoardCheckpoint: capture, digest verification, restore, preemption.

The checkpoint contract this file pins down:

* ``to_dict``/``from_dict`` are lossless (the checkpoint *is* its
  JSON-ready payload) and any tampering trips the SHA-256 digest.
* Preempt + resume reproduces the run-to-completion final state
  bit-for-bit -- memory, digests, instruction count AND cycle count --
  including when every resume lands on a different board in a
  different pool (migration), on a fresh-leased reset board, on a
  board retargeted from another architecture, or on a board rebuilt
  after LRU eviction.
* Restore refuses a board whose content key differs.
"""

import json
from dataclasses import replace

import pytest

from repro.core.config import ArchConfig
from repro.errors import CheckpointError, LaunchError
from repro.exec import (STATUS_DONE, STATUS_PREEMPTED, BoardCheckpoint,
                        BoardPool, ExecutionRequest, Executor,
                        PreemptedResult)
from repro.exec.checkpoint import _digest_payload

MEM = 1 << 20


def _request(**overrides):
    base = dict(benchmark="matrix_add_i32", params={"n": 64},
                verify=False, digests=True, capture_memory=True,
                global_mem_size=MEM)
    base.update(overrides)
    return ExecutionRequest(**base)


def _fresh():
    return Executor(pool=BoardPool(capacity=2))


def _resume_until_done(result, slice_instructions=None, executor_factory=_fresh,
                       wire_trip=True):
    hops = 0
    while result.status == STATUS_PREEMPTED:
        hops += 1
        assert hops < 200, "sliced run made no progress"
        envelope = result.preempted
        if wire_trip:
            envelope = PreemptedResult.from_dict(
                json.loads(json.dumps(envelope.to_dict())))
        # A resume names the run's own workload plus its resume point.
        result = executor_factory().execute(replace(
            result.request, checkpoint=envelope.checkpoint,
            max_slice_instructions=slice_instructions))
    return result, hops


class TestRequestShape:
    def test_checkpoint_alone_is_not_a_workload(self):
        ref = _fresh().execute(_request(max_slice_instructions=64))
        with pytest.raises(LaunchError, match="exactly one"):
            ExecutionRequest(checkpoint=ref.preempted.checkpoint)
        with pytest.raises(LaunchError, match="exactly one"):
            ExecutionRequest(benchmark="matrix_add_i32",
                             workload=object())

    def test_slice_budget_must_be_positive(self):
        with pytest.raises(LaunchError):
            _request(max_slice_instructions=0)


class TestSerialization:
    def test_round_trip_is_lossless(self):
        result = _fresh().execute(_request(max_slice_instructions=64))
        assert result.status == STATUS_PREEMPTED
        cp = result.preempted.checkpoint
        back = BoardCheckpoint.from_dict(json.loads(json.dumps(cp.to_dict())))
        assert back.payload == cp.payload
        assert back.digest == cp.digest
        assert back.board_key() == cp.board_key()
        assert back.paused and back.watermark == cp.watermark

    def test_envelope_round_trip_is_lossless(self):
        result = _fresh().execute(_request(max_slice_instructions=64))
        env = result.preempted
        back = PreemptedResult.from_dict(
            json.loads(json.dumps(env.to_dict())))
        assert back == env

    def test_tampered_payload_raises(self):
        result = _fresh().execute(_request(max_slice_instructions=64))
        wire = result.preempted.checkpoint.to_dict()
        wire["now"] = wire["now"] + 1.0
        with pytest.raises(CheckpointError, match="digest"):
            BoardCheckpoint.from_dict(wire)

    def test_missing_digest_raises(self):
        result = _fresh().execute(_request(max_slice_instructions=64))
        wire = result.preempted.checkpoint.to_dict()
        del wire["digest"]
        with pytest.raises(CheckpointError, match="digest"):
            BoardCheckpoint.from_dict(wire)

    def test_wrong_version_raises(self):
        # 1 still carried ``prefetch.covered``; 2 named a launch engine
        # in the paused frame; 3 lacked the frame's stall aggregates; 4
        # carried the frame's issue-path split.
        result = _fresh().execute(_request(max_slice_instructions=64))
        for version in (999, 1, 2, 3, 4):
            wire = result.preempted.checkpoint.to_dict()
            wire["version"] = version
            with pytest.raises(CheckpointError, match="version"):
                BoardCheckpoint.from_dict(wire)

    @pytest.mark.parametrize("engine", ["fast", "parallel", "bogus"])
    def test_unresumable_frame_engine_raises(self, engine):
        # A digest-valid envelope whose paused frame still names an
        # engine, whatever its value, carries a field this version does
        # not write: refused at restore rather than silently ignored.
        result = _fresh().execute(_request(max_slice_instructions=64))
        wire = json.loads(json.dumps(result.preempted.to_dict()))
        payload = wire["checkpoint"]
        payload["frame"]["engine"] = engine
        del payload["digest"]
        payload["digest"] = _digest_payload(payload)
        envelope = PreemptedResult.from_dict(wire)
        with pytest.raises(CheckpointError, match="unknown fields.*'engine'"):
            _fresh().execute(_request(checkpoint=envelope.checkpoint))


class TestPreemptResume:
    def test_preempted_result_reports_progress(self):
        result = _fresh().execute(_request(max_slice_instructions=64))
        assert result.status == STATUS_PREEMPTED
        env = result.preempted
        assert env.kernel
        assert 0 < env.groups_executed < env.groups_total
        assert env.instructions >= 64
        assert "engine" not in result.to_dict()
        assert result.digests == {}

    def test_resume_completes_bit_identical(self):
        ref = _fresh().execute(_request())
        assert ref.status == STATUS_DONE
        sliced = _fresh().execute(_request(max_slice_instructions=100))
        final, hops = _resume_until_done(sliced, slice_instructions=100)
        assert hops >= 1
        assert final.status == STATUS_DONE
        assert final.instructions == ref.instructions
        assert final.cu_cycles == ref.cu_cycles
        assert final.memory_image == ref.memory_image
        for name, digest in ref.digests.items():
            assert final.digests[name] == digest

    def test_single_resume_without_budget_finishes(self):
        ref = _fresh().execute(_request())
        sliced = _fresh().execute(_request(max_slice_instructions=64))
        final, hops = _resume_until_done(sliced, slice_instructions=None)
        assert hops == 1
        assert final.cu_cycles == ref.cu_cycles
        assert final.memory_image == ref.memory_image

    def test_multi_cu_sliced_resume_bit_identical(self):
        arch = ArchConfig.baseline().with_parallelism(num_cus=2)
        result = _fresh().execute(_request(arch=arch,
                                           max_slice_instructions=64))
        assert result.status == STATUS_PREEMPTED
        ref = _fresh().execute(_request(arch=arch))
        final, _ = _resume_until_done(result, slice_instructions=64)
        assert final.memory_image == ref.memory_image
        assert final.instructions == ref.instructions
        assert final.cu_cycles == ref.cu_cycles


    def test_profiled_slices_count_their_own_work(self):
        """Each request of a sliced, checkpoint-resumed profiled run
        counts exactly the slices it ran -- what an observer attached
        to that request counted -- and the resumed launch's stats
        (carried through every checkpoint) match the straight run."""
        from repro.obs import PerfCounters

        def chain(observed):
            perfs, results = [], []
            request = _request(profile=True, max_slice_instructions=300)
            while request is not None:
                perf = PerfCounters()
                if observed:
                    request = replace(request, observers=(perf,))
                result = _fresh().execute(request)
                perfs.append(perf)
                results.append(result)
                request = None
                if result.status == STATUS_PREEMPTED:
                    envelope = PreemptedResult.from_dict(json.loads(
                        json.dumps(result.preempted.to_dict())))
                    request = _request(
                        checkpoint=envelope.checkpoint, profile=True,
                        max_slice_instructions=300)
            return results, perfs

        compiled, _ = chain(observed=False)
        observed, perfs = chain(observed=True)
        assert len(compiled) == len(observed) >= 3
        for result, seen, perf in zip(compiled, observed, perfs):
            assert result.counters.counters == perf.counters
            assert seen.counters.counters == perf.counters
        straight = _fresh().execute(_request(profile=True))
        assert sum(r.counters.counters.get("issue.total")
                   for r in compiled) == straight.instructions
        # Only the final request saw the kernel finish.
        assert [r.counters.counters.get("span.kernel.count")
                for r in compiled] == [0] * (len(compiled) - 1) + [1]
        assert compiled[-1].launches[-1].stats \
            == straight.launches[-1].stats


class TestCrossBoardRestore:
    def test_fresh_leased_reset_board_is_bit_identical(self):
        # One pool: the resume leases the very board the first slice
        # dirtied (scrubbed + reset), exercising the warm-restore path.
        ref = _fresh().execute(_request())
        executor = Executor(pool=BoardPool(capacity=2))
        sliced = executor.execute(_request(max_slice_instructions=100))
        final, hops = _resume_until_done(
            sliced, slice_instructions=100,
            executor_factory=lambda: executor)
        assert hops >= 1
        assert final.warm_board is True
        assert final.cu_cycles == ref.cu_cycles
        assert final.memory_image == ref.memory_image

    def test_evicted_then_recreated_board_is_bit_identical(self):
        # Capacity-1 pool: leasing a different-key board in between
        # evicts the original, so the resume rebuilds it cold.
        ref = _fresh().execute(_request())
        pool = BoardPool(capacity=1)
        executor = Executor(pool=pool)
        sliced = executor.execute(_request(max_slice_instructions=100))
        executor.execute(_request(global_mem_size=1 << 21))  # evicts
        final, hops = _resume_until_done(
            sliced, slice_instructions=None,
            executor_factory=lambda: executor)
        assert hops == 1
        assert final.warm_board is False
        assert final.cu_cycles == ref.cu_cycles
        assert final.memory_image == ref.memory_image

    def test_resume_on_board_retargeted_elsewhere_is_bit_identical(self):
        # The pool's only board last ran another architecture: the
        # resume retargets it back to the checkpoint's (a warm lease).
        arch = ArchConfig.dcd()
        ref = _fresh().execute(_request(arch=arch))
        pool = BoardPool(capacity=1)
        executor = Executor(pool=pool)
        sliced = executor.execute(_request(arch=arch,
                                           max_slice_instructions=100))
        other = executor.execute(_request(arch=ArchConfig.baseline()))
        assert other.warm_board is True
        assert len(pool) == 1
        final, hops = _resume_until_done(
            sliced, slice_instructions=None,
            executor_factory=lambda: executor)
        assert hops == 1
        assert final.warm_board is True
        assert pool.retargets == 2
        assert final.instructions == ref.instructions
        assert final.cu_cycles == ref.cu_cycles
        assert final.memory_image == ref.memory_image
        for name, digest in ref.digests.items():
            assert final.digests[name] == digest

    def test_resume_refuses_another_workloads_checkpoint(self, monkeypatch):
        # An n=64 checkpoint resumed as n=128: the host setup lays out
        # other buffers, so the resume stops before any instruction.
        from repro.soc.gpu import Gpu

        result = _fresh().execute(_request(max_slice_instructions=64))
        issued = []
        for name in ("launch", "resume_launch"):
            monkeypatch.setattr(Gpu, name, lambda *a, **k: issued.append(a))
        with pytest.raises(CheckpointError, match="not taken from this"):
            _fresh().execute(_request(params={"n": 128},
                                      checkpoint=result.preempted.checkpoint))
        assert issued == []

    def test_restore_refuses_other_arch_on_same_physical_board(self):
        result = _fresh().execute(_request(max_slice_instructions=64))
        cp = result.preempted.checkpoint
        pool = BoardPool(capacity=1)
        with pool.lease(ArchConfig.dcd(), global_mem_size=MEM) as lease:
            with pytest.raises(CheckpointError, match="board key"):
                lease.restore(cp)

    def test_restore_refuses_mismatched_board_key(self):
        result = _fresh().execute(_request(max_slice_instructions=64))
        cp = result.preempted.checkpoint
        pool = BoardPool(capacity=1)
        with pool.lease(ArchConfig.baseline(),
                        global_mem_size=1 << 21) as lease:
            with pytest.raises(CheckpointError, match="board key"):
                lease.restore(cp)


class TestLeaseCheckpointApi:
    def test_idle_board_round_trips(self):
        import numpy as np

        pool = BoardPool(capacity=2)
        with pool.lease(ArchConfig.baseline(), global_mem_size=MEM) as lease:
            lease.board.upload("x", np.arange(256, dtype=np.uint32))
            cp = lease.checkpoint()
        assert not cp.paused and cp.watermark == 0
        with pool.lease(ArchConfig.baseline(), global_mem_size=MEM) as lease:
            lease.restore(cp)
            data = lease.board.read(lease.board.heap.get("x"))
            assert list(data) == list(range(256))

    def test_checkpoint_records_lease_cap(self):
        pool = BoardPool(capacity=1)
        with pool.lease(ArchConfig.baseline(), global_mem_size=MEM,
                        max_instructions=50_000) as lease:
            cp = lease.checkpoint()
        assert cp.max_instructions == 50_000
        assert cp.board_key() == lease.key
