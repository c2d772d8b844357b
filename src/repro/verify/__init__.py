"""repro.verify: differential conformance testing and fuzzing.

The paper's central safety claim is that trimming "does not affect
execution" (Section 3.2).  The hand-written benchmark suite exercises
that claim on a handful of kernels; this subsystem checks it -- and a
family of stronger architectural equivalences -- on *arbitrary*
programs:

* :mod:`repro.verify.generator` -- a seeded, constrained random kernel
  generator that emits terminating Southern Islands programs over the
  implemented instruction set (scalar/vector ALU mixes, EXEC-mask
  divergence, LDS + global memory with in-bounds descriptors, barriers
  across wavefronts), assembled through :mod:`repro.asm`.
* :mod:`repro.verify.oracles` -- metamorphic/differential oracles that
  run one program under paired configurations which must agree
  bit-for-bit on final memory and per-wavefront register state:
  trimmed vs untrimmed, 1-CU vs multi-CU, prefetch on vs off, and the
  issue loop (observed and unobserved) vs the spec loop (also
  asserting identical cycles, run stats and event streams -- pinning
  the zero-cost-observation claim), plus an
  assemble/disassemble/reassemble round trip.
* :mod:`repro.verify.spec` -- the spec loop: the CU issue loop as a
  plain interpreter over ``operations.execute`` and memory executors
  emitted without program facts, reached only through
  :func:`~repro.verify.spec.spec_execution`.
* :mod:`repro.verify.invariants` -- an architectural-state invariant
  checker (EXEC/VCC confined to ``lane_count`` bits, SCC in {0,1},
  VGPR writes honouring lane masks) attachable as a normal
  :mod:`repro.obs` observer.
* :mod:`repro.verify.shrinker` -- a greedy program minimiser that
  reduces failing cases to small reproducers.
* :mod:`repro.verify.fuzz` -- the campaign driver behind
  ``repro fuzz --seed N --iterations K``, which shrinks failures into
  ``tests/verify/corpus/``.
"""

from .fuzz import FuzzCampaign, FuzzReport, run_corpus_file
from .generator import FuzzCase, KernelGenerator, generate_case
from .invariants import InvariantChecker, InvariantViolation
from .oracles import (ORACLE_NAMES, EventRecorder, ExecutionSnapshot,
                      OracleFailure, check_case, run_case)
from .shrinker import shrink_case
from .spec import spec_execution

__all__ = [
    "FuzzCampaign", "FuzzReport", "run_corpus_file",
    "FuzzCase", "KernelGenerator", "generate_case",
    "InvariantChecker", "InvariantViolation",
    "ORACLE_NAMES", "EventRecorder", "ExecutionSnapshot", "OracleFailure",
    "check_case", "run_case",
    "shrink_case", "spec_execution",
]
