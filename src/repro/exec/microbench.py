"""Single-wavefront microbenchmark execution (the validation harness).

The Section 2.3 validation flow runs one tiny program per instruction
on a bare compute unit with a primed wavefront -- no dispatcher, no
host choreography, deliberately below the :class:`SoftGpu` facade so
the oracle observes raw architectural state.  That bare-metal setup
is still *execution*, so it lives in the execution layer: callers get
:func:`run_microbench` and never build CU or memory models themselves.
"""

from __future__ import annotations

import numpy as np

from ..asm.assembler import assemble
from ..cu.lsu import make_buffer_descriptor
from ..cu.pipeline import ComputeUnit
from ..cu.wavefront import Wavefront
from ..cu.workgroup import Workgroup
from ..mem.params import DCD_PM_TIMING
from ..mem.system import MemorySystem

#: Memory size of the microbenchmark board.
MICROBENCH_MEM_SIZE = 1 << 16


def run_microbench(source, prime=None, lds=0, memory_image=None):
    """Assemble and run one microbenchmark; returns (wavefront, memory).

    ``source`` is the program body (``s_endpgm`` is appended); the
    64-lane wavefront starts with lane ids in ``v0`` and a buffer
    descriptor for ``0x1000+0x1000`` in ``s[4:7]``, exactly as the
    dispatcher ABI would leave them.  ``prime`` mutates the wavefront
    before execution; ``memory_image`` seeds global-memory words.

    Always runs the reference interpreter: validation must observe the
    live operations tables, not plan closures bound at prepare time.
    """
    text = (".vgprs 8\n" + (".lds {}\n".format(lds) if lds else "")
            + source + "\n  s_endpgm")
    program = assemble(text)
    memory = MemorySystem(params=DCD_PM_TIMING,
                          global_size=MICROBENCH_MEM_SIZE)
    memory.preload_all(0, MICROBENCH_MEM_SIZE)
    if memory_image:
        for addr, value in memory_image.items():
            memory.global_mem.write_u32(addr, value)
    cu = ComputeUnit(memory)
    wg = Workgroup((0, 0, 0), program, (64, 1, 1))
    wf = Wavefront(0, program, workgroup=wg)
    wf.vgprs[0] = np.arange(64, dtype=np.uint32)  # lane ids, like dispatch
    wf.sgprs[4:8] = make_buffer_descriptor(0x1000, 0x1000)
    if prime:
        prime(wf)
    wg.add_wavefront(wf)
    cu.run_workgroup(wg, compiled=False)
    return wf, memory
