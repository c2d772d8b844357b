"""Metamorphic / differential oracles over generated programs.

One generated case is executed under a matrix of paired configurations
that the architecture claims are *functionally interchangeable*; any
bit of disagreement in final state is a simulator bug:

=================  ====================================================
``roundtrip``      assemble -> disassemble -> reassemble produces the
                   identical binary words.
``invariants``     the :class:`~repro.verify.invariants
                   .InvariantChecker` holds at every executed step of
                   the reference run.
``trimmed``        running on the architecture trimmed *for this
                   program* (Section 3.2's "trimming does not affect
                   execution") matches memory, registers, instruction
                   count and cycles.
``multi-cu``       distributing workgroups over multiple compute units
                   matches memory and registers.
``prefetch-off``   the DCD configuration (no prefetch memory) matches
                   memory and registers.
``superblock``     the unobserved run -- which takes the compiled
                   ``superblock`` loop (every instruction from its
                   prepared plan, ALU executors emitted by
                   :mod:`repro.cu.superblock`) -- matches the
                   observed reference interpreter bit-for-bit:
                   memory, registers, instruction count
                   **and cycle count**, on the baseline board (the
                   paper-level zero-cost-observation claim), on the
                   architecture trimmed for the case and on a multi-CU
                   board.
``warm-lease``     a warm board re-leased from the
                   :class:`~repro.exec.BoardPool` (after ``reset()``)
                   reproduces the cold-board run bit-for-bit: memory,
                   registers, instruction count **and cycle count**;
                   so does the same board retargeted
                   (``retarget()``) to the architecture trimmed for
                   the case, to a multi-CU board and back to the
                   baseline, each against a cold board of that
                   architecture.
``checkpoint``     running under a randomized (seed-derived) slice
                   budget -- preempting at workgroup boundaries, JSON
                   round-tripping each ``PREEMPTED`` envelope, and
                   resuming every slice on a **fresh board in a fresh
                   pool** (cross-board migration) -- matches the
                   run-to-completion bit-for-bit: memory, registers,
                   instruction count, **cycle count** and output
                   digests (same buffer names, same hashes).
``vector``         the reference run with the NumPy array VALU
                   semantics (:mod:`repro.cu.vector`) swapped for a
                   per-lane scalar golden model matches bit-for-bit:
                   memory, registers, instruction count **and cycle
                   count** -- the lane-vectorization equivalence claim.
``counters``       the performance counters of a ``profile=True`` run
                   -- built from run aggregates on the compiled loop,
                   with no observer attached -- equal the counters an
                   attached :class:`~repro.obs.PerfCounters` observer
                   collects on the reference loop, exactly (every key
                   and value), as do the reference run's own
                   aggregates; on the baseline board, the architecture
                   trimmed for the case and a multi-CU board.
=================  ====================================================

``run_case`` executes one configuration and captures an
:class:`ExecutionSnapshot`; ``check_case`` runs the whole matrix and
returns a (possibly empty) list of :class:`OracleFailure`.  Every
comparison also checks the output digests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import numpy as np

from ..asm.assembler import assemble
from ..asm.disassembler import disassemble
from ..core.config import ArchConfig
from ..core.trimmer import TrimmingTool
from ..errors import ReproError
from ..cu.vector import lanewise_execution
from ..exec import (STATUS_PREEMPTED, BoardPool, ExecutionRequest, Executor,
                    PreemptedResult, ProgramWorkload, default_executor)
from ..obs import Observer, PerfCounters
from ..soc.gpu import SUPERBLOCK
from .invariants import InvariantChecker, InvariantViolation

#: Global-memory size used for fuzz boards -- small enough that whole-
#: memory bit compares between runs stay cheap.
FUZZ_MEM_SIZE = 1 << 20

#: Per-CU instruction budget on fuzz boards.  Generated programs
#: execute at most a few thousand instructions per wavefront; shrinker
#: candidates, however, can turn a bounded loop into a runaway one
#: (e.g. by deleting the counter decrement), and the simulator's stock
#: 200M-instruction safety valve would take minutes to trip.
FUZZ_MAX_INSTRUCTIONS = 50_000

ORACLE_NAMES = ("roundtrip", "invariants", "trimmed", "multi-cu",
                "prefetch-off", "superblock", "warm-lease", "checkpoint",
                "vector", "counters")


@dataclass(frozen=True)
class OracleFailure:
    """One disagreement found by :func:`check_case`."""

    oracle: str   # one of ORACLE_NAMES
    detail: str

    @property
    def signature(self):
        """Stable identity used by the shrinker's failure predicate."""
        return self.oracle

    def __str__(self):
        return "[{}] {}".format(self.oracle, self.detail)


@dataclass
class ExecutionSnapshot:
    """Observable final state of one configuration's run."""

    label: str
    memory: bytes                    # full global-memory image
    cycles: float                    # launch makespan (cu_cycles)
    instructions: int
    registers: dict                  # (group_id, wf_id) -> state dict
    warm: Optional[bool] = None       # board provenance (lease pool)
    #: Output buffer name -> SHA-256, as the execution result reports.
    digests: Dict[str, str] = field(default_factory=dict)


def run_case(case, arch, label="run", observed=True, check_invariants=False,
             executor=None):
    """Execute ``case`` under ``arch`` and snapshot the final state.

    ``observed`` attaches observers -- the invariant checker with
    ``check_invariants``, else a no-op :class:`~repro.obs.Observer` --
    so the launch runs the reference loop; ``observed=False`` attaches
    none and runs the compiled loop.  Either way the snapshot carries
    every wavefront's final registers.  ``executor`` pins the run to a
    specific board pool (the warm-lease oracle needs that); the
    default shares the process-wide pool.
    """
    observers = ()
    if observed:
        observers = ((InvariantChecker(),) if check_invariants
                     else (Observer(),))
    request = ExecutionRequest(
        workload=_case_workload(case),
        arch=arch,
        global_mem_size=FUZZ_MEM_SIZE,
        max_instructions=FUZZ_MAX_INSTRUCTIONS,
        verify=False,
        observers=observers,
        collect_registers=True,
        capture_memory=True,
        digests=True,
        # Generated float ops hit NaN/inf/overflow freely; the
        # simulator's numpy semantics are deterministic either way.
        numpy_errstate="ignore",
        label=label,
    )
    return _snapshot(label, (executor or default_executor()).execute(request))


def _snapshot(label, result):
    launch = result.launches[-1]
    return ExecutionSnapshot(
        label=label, memory=result.memory_image, cycles=launch.cu_cycles,
        instructions=launch.stats.instructions,
        registers=launch.registers, warm=result.warm_board,
        digests=result.digests)


def _profiled(case, arch, observer=None):
    """One ``profile=True`` run of ``case``; with ``observer`` also
    attached (which puts it on the reference loop)."""
    return default_executor().execute(ExecutionRequest(
        workload=_case_workload(case),
        arch=arch,
        global_mem_size=FUZZ_MEM_SIZE,
        max_instructions=FUZZ_MAX_INSTRUCTIONS,
        verify=False,
        profile=True,
        observers=(observer,) if observer is not None else (),
        numpy_errstate="ignore",
        label="profiled",
    ))


def _counter_diff(expected, got, limit=4):
    """The first differing counters of two :class:`CounterSet` objects,
    or None when they are equal."""
    if got == expected:
        return None
    want, have = dict(expected.items()), dict(got.items())
    diffs = ["{}: {} vs {}".format(path, want.get(path, "absent"),
                                   have.get(path, "absent"))
             for path in sorted(set(want) | set(have))
             if want.get(path, None) != have.get(path, None)]
    return "; ".join(diffs[:limit])


def _case_workload(case):
    return ProgramWorkload(
        program=case.program,
        global_size=(case.global_size,),
        local_size=(case.local_size,),
        inputs=(("inp", case.input_data()),),
        outputs=(("out", 4 * case.global_size),),
    )


def _run_sliced(case, arch, budget, hop_cap=10_000):
    """Run ``case`` under a slice budget, resuming every ``PREEMPTED``
    envelope -- after a JSON round trip -- on a fresh board in a fresh
    pool (cross-board migration); returns the final snapshot plus the
    number of preemption hops."""
    import json

    def fresh_executor():
        return Executor(pool=BoardPool(capacity=1))

    request = ExecutionRequest(
        workload=_case_workload(case),
        arch=arch,
        global_mem_size=FUZZ_MEM_SIZE,
        max_instructions=FUZZ_MAX_INSTRUCTIONS,
        verify=False,
        collect_registers=True,
        capture_memory=True,
        digests=True,
        numpy_errstate="ignore",
        max_slice_instructions=budget,
        label="checkpoint-slice",
    )
    result = fresh_executor().execute(request)
    hops = 0
    while result.status == STATUS_PREEMPTED:
        hops += 1
        if hops > hop_cap:
            raise ReproError(
                "checkpoint oracle made no progress after {} slices "
                "(budget {})".format(hop_cap, budget))
        # The wire trip is part of the oracle: a lossy to_dict /
        # from_dict would surface here as a downstream state diff (or
        # a digest mismatch raising CheckpointError).
        envelope = PreemptedResult.from_dict(
            json.loads(json.dumps(result.preempted.to_dict())))
        result = fresh_executor().execute(replace(
            request, checkpoint=envelope.checkpoint,
            label="checkpoint-resume"))
    return _snapshot("checkpoint-sliced", result), hops


def _first_memory_diff(a, b):
    arr_a = np.frombuffer(a, dtype=np.uint8)
    arr_b = np.frombuffer(b, dtype=np.uint8)
    if arr_a.shape != arr_b.shape:
        return "memory sizes differ ({} vs {})".format(len(a), len(b))
    diff = np.flatnonzero(arr_a != arr_b)
    addr = int(diff[0])
    return "first diff at 0x{:x}: 0x{:02x} vs 0x{:02x} ({} bytes differ)".format(
        addr, int(arr_a[addr]), int(arr_b[addr]), diff.size)


def _compare_registers(ref, other):
    """First register-state difference between two snapshots, or None."""
    if set(ref) != set(other):
        return "wavefront sets differ: {} vs {}".format(
            sorted(ref), sorted(other))
    for key in sorted(ref):
        for field in ("vcc", "exec", "scc", "sgprs", "vgprs"):
            a, b = ref[key][field], other[key][field]
            if a == b:
                continue
            if field in ("sgprs", "vgprs"):
                arr_a = np.frombuffer(a, dtype=np.uint32)
                arr_b = np.frombuffer(b, dtype=np.uint32)
                idx = int(np.flatnonzero(arr_a != arr_b)[0])
                return ("wf {} {}[{}]: 0x{:08x} vs 0x{:08x}".format(
                    key, field, idx, int(arr_a[idx]), int(arr_b[idx])))
            return "wf {} {}: 0x{:x} vs 0x{:x}".format(key, field, a, b)
    return None


def _compare(oracle, ref, other, failures, cycles=False):
    if other.memory != ref.memory:
        failures.append(OracleFailure(
            oracle, "final memory differs ({} vs {}): {}".format(
                ref.label, other.label,
                _first_memory_diff(ref.memory, other.memory))))
    if other.instructions != ref.instructions:
        failures.append(OracleFailure(
            oracle, "instruction counts differ: {} ({}) vs {} ({})".format(
                ref.instructions, ref.label, other.instructions,
                other.label)))
    if cycles and other.cycles != ref.cycles:
        failures.append(OracleFailure(
            oracle, "cycle counts differ: {} ({}) vs {} ({})".format(
                ref.cycles, ref.label, other.cycles, other.label)))
    if other.digests != ref.digests:
        failures.append(OracleFailure(
            oracle, "output digests differ ({} vs {}): {}".format(
                ref.label, other.label, sorted(
                    set(ref.digests.items()) ^ set(other.digests.items())))))
    diff = _compare_registers(ref.registers, other.registers)
    if diff is not None:
        failures.append(OracleFailure(
            oracle, "register state differs ({} vs {}): {}".format(
                ref.label, other.label, diff)))


def check_case(case, multi_cus=2, oracles=None):
    """Run the oracle matrix over ``case``; returns a list of failures.

    ``oracles`` restricts the matrix to a subset of
    :data:`ORACLE_NAMES` (``None`` runs everything).  The reference run
    (whose death reports as an ``invariants`` failure) always executes
    -- every other oracle is a comparison against it.
    """
    if oracles is not None:
        unknown = set(oracles) - set(ORACLE_NAMES)
        if unknown:
            raise ValueError("unknown oracles: {}".format(sorted(unknown)))
        oracles = frozenset(oracles)

    def want(name):
        return oracles is None or name in oracles

    failures = []

    # Toolchain round trip -- purely static, runs even if execution dies.
    if want("roundtrip"):
        try:
            rebuilt = assemble(disassemble(case.program))
            if rebuilt.words != case.program.words:
                failures.append(OracleFailure(
                    "roundtrip",
                    "reassembled words differ at index {}".format(next(
                        i for i, (a, b) in enumerate(
                            zip(rebuilt.words, case.program.words)) if a != b)
                        if len(rebuilt.words) == len(case.program.words)
                        else "len {} vs {}".format(len(rebuilt.words),
                                                   len(case.program.words)))))
        except ReproError as exc:
            failures.append(OracleFailure("roundtrip", repr(exc)))

    baseline = ArchConfig.baseline()
    try:
        ref = run_case(case, baseline, label="baseline+observers",
                       observed=True,
                       check_invariants=want("invariants"))
    except InvariantViolation as exc:
        failures.append(OracleFailure("invariants", str(exc)))
        return failures
    except ReproError as exc:
        failures.append(OracleFailure("invariants",
                                      "reference run died: {!r}".format(exc)))
        return failures

    configs = []
    trimmed = None
    trim_users = ("trimmed", "superblock", "counters", "warm-lease")
    if any(want(oracle) for oracle in trim_users):
        try:
            trimmed = TrimmingTool().trim(case.program).config
        except ReproError as exc:
            for oracle in trim_users:
                if want(oracle):
                    failures.append(OracleFailure(
                        oracle, "trim failed: {!r}".format(exc)))
    if want("trimmed") and trimmed is not None:
        configs.append(("trimmed", trimmed, True))
    mc_config = baseline.with_parallelism(num_cus=multi_cus) \
        if multi_cus and multi_cus > 1 else None
    reference_runs = {"baseline": ref}  # config label -> observed run
    if want("multi-cu") and mc_config is not None:
        configs.append(("multi-cu", mc_config, False))
    if want("prefetch-off"):
        configs.append(("prefetch-off", ArchConfig.dcd(), False))

    for oracle, config, cycles in configs:
        try:
            snap = run_case(case, config, label=oracle, observed=True)
        except ReproError as exc:
            failures.append(OracleFailure(oracle, "run died: {!r}".format(exc)))
            continue
        reference_runs[oracle] = snap
        _compare(oracle, ref, snap, failures, cycles=cycles)

    # The compiled-loop equivalence claim: an unobserved run -- every
    # instruction from its prepared plan -- must not change
    # a single byte, register, instruction or cycle against the observed
    # reference run on the same board: the baseline (which makes this
    # the zero-cost-observation claim too), the architecture trimmed
    # for the case, and a multi-CU board (run serially, one workgroup
    # at a time, like every launch).
    if want("superblock"):
        boards = [("baseline", baseline)]
        if trimmed is not None:
            boards.append(("trimmed", trimmed))
        if mc_config is not None:
            boards.append(("multi-cu", mc_config))
        for name, arch in boards:
            label = "{}-superblock".format(name)
            try:
                expected = reference_runs.get(name) or run_case(
                    case, arch, label=name, observed=True)
            except ReproError as exc:
                failures.append(OracleFailure(
                    "superblock",
                    "{} reference run died: {!r}".format(name, exc)))
                continue
            try:
                snap = run_case(case, arch, label=label, observed=False)
                _compare("superblock", expected, snap, failures, cycles=True)
            except ReproError as exc:
                failures.append(OracleFailure(
                    "superblock", "{} run died: {!r}".format(label, exc)))

    # The aggregate-counters claim: profiling on the compiled loop, with
    # no observer, counts exactly what the event-driven PerfCounters
    # observer counts on the reference loop -- and the reference loop's
    # own aggregates agree with its events.  Compared as whole counter
    # sets (every key and value), never approximately.
    if want("counters"):
        boards = [("baseline", baseline)]
        if trimmed is not None:
            boards.append(("trimmed", trimmed))
        if mc_config is not None:
            boards.append(("multi-cu", mc_config))
        for name, arch in boards:
            perf = PerfCounters()
            try:
                compiled = _profiled(case, arch)
                reference = _profiled(case, arch, observer=perf)
            except ReproError as exc:
                failures.append(OracleFailure(
                    "counters", "{} profiled run died: {!r}".format(
                        name, exc)))
                continue
            if compiled.engine != SUPERBLOCK:
                failures.append(OracleFailure(
                    "counters", "{} profiled run took the {} loop".format(
                        name, compiled.engine)))
            for source, result in (("compiled", compiled),
                                   ("reference", reference)):
                diff = _counter_diff(perf.counters, result.counters.counters)
                if diff is not None:
                    failures.append(OracleFailure(
                        "counters",
                        "{} {} aggregates differ from the observer's "
                        "counters: {}".format(name, source, diff)))

    # The warm-lease claim: a board re-leased from the pool reproduces
    # a cold board bit-for-bit -- after reset() for the same
    # architecture, and after retarget() to the architecture trimmed
    # for the case, to a multi-CU board and back to the baseline.  A
    # private one-board pool guarantees the first run is cold and every
    # later lease takes the very board the previous run dirtied.  The
    # cross-config legs run the compiled loop, each against a cold
    # board of the same architecture.
    if want("warm-lease"):
        executor = Executor(pool=BoardPool(capacity=1))
        legs = [("baseline", baseline, True)]
        if trimmed is not None:
            legs.append(("trimmed", trimmed, False))
        if mc_config is not None:
            # Different timing from the rest: a stale design shows.
            legs.append(("multi-cu", mc_config, False))
        if len(legs) > 1:
            legs.append(("baseline", baseline, False))
        try:
            cold = run_case(case, baseline, label="warm-lease-cold",
                            observed=True, executor=executor)
            if cold.warm:
                failures.append(OracleFailure(
                    "warm-lease", "first lease of a new pool was warm"))
            for name, arch, observed in legs:
                label = "warm-lease-{}-{}".format(
                    name, "observed" if observed else "compiled")
                if observed:
                    expected = cold
                else:
                    expected = run_case(
                        case, arch, label="cold-{}".format(name),
                        observed=False,
                        executor=Executor(pool=BoardPool(capacity=1)))
                warm = run_case(case, arch, label=label,
                                observed=observed, executor=executor)
                if not warm.warm:
                    failures.append(OracleFailure(
                        "warm-lease", "{} lease was cold".format(label)))
                _compare("warm-lease", expected, warm, failures,
                         cycles=True)
        except ReproError as exc:
            failures.append(OracleFailure(
                "warm-lease", "run died: {!r}".format(exc)))

    # The lane-vectorization equivalence claim: every VALU opcode's
    # NumPy array semantics (:mod:`repro.cu.vector`) must match a
    # per-lane scalar golden model -- python-int arithmetic for the
    # integer ops, numpy float32 scalar arithmetic for the float ops
    # (same IEEE machinery, one lane at a time).  The observed run (on
    # the reference loop) repeats with the VALU dispatcher swapped;
    # memory, registers, instructions and cycles must all be
    # bit-identical.
    if want("vector"):
        try:
            with lanewise_execution():
                lanewise = run_case(case, baseline,
                                    label="baseline-lanewise",
                                    observed=True)
            _compare("vector", ref, lanewise, failures, cycles=True)
        except ReproError as exc:
            failures.append(OracleFailure(
                "vector", "lanewise run died: {!r}".format(exc)))

    # The checkpoint/restore claim: preempt at a randomized (seed-
    # derived) slice budget, ship every PREEMPTED envelope through a
    # JSON round trip, resume each slice on a brand-new board in a
    # brand-new pool -- and the final state must be bit-identical to
    # the straight-through reference run, cycles included.  (Cases
    # whose budget exceeds the run simply never preempt; the oracle
    # then degenerates to a superblock-vs-reference check.)
    if want("checkpoint"):
        import random

        rng = random.Random(case.seed)
        budget = rng.randint(1, max(1, ref.instructions // 2))
        try:
            sliced, _hops = _run_sliced(case, baseline, budget)
            _compare("checkpoint", ref, sliced, failures, cycles=True)
        except ReproError as exc:
            failures.append(OracleFailure(
                "checkpoint",
                "sliced run died (budget {}): {!r}".format(budget, exc)))
    return failures
