"""Warm-board leasing: one pool of live :class:`SoftGpu` instances.

Building a board is the expensive part of a run: almost all of it is
the global-memory image (16 MB by default) and its first-touch page
faults, while the CU model, memory timing and dispatcher are cheap.
:meth:`SoftGpu.reset` returns an existing board to its power-on state,
and :meth:`SoftGpu.retarget` reconfigures it for another architecture
around the same memory image -- the simulator's partial
reconfiguration, as the SCRATCH flow re-trims one FPGA per
application.  The warm-lease and checkpoint oracles in
:mod:`repro.verify.oracles` pin the claim that a reset or retargeted
board is bit-identical to a fresh one.  This module makes that reuse a
first-class facility instead of a service-worker private: every
execution path that goes through :class:`repro.exec.Executor` -- CLI
repeats, bench sampling, fuzz oracle matrices, the profiler, service
jobs -- checks boards out of a :class:`BoardPool`.

Two keys, for two jobs:

* the **content key** (:func:`board_key`) is the architecture
  configuration's semantic hash, the global-memory size and any per-CU
  instruction cap.  It names a lease and a checkpoint, so a restore
  refuses a board of another architecture;
* the **physical key** is only what is costly to build or must never
  be shared: the global-memory size and the instruction cap.  The pool
  is keyed by it.  A job that needs a large memory is never handed an
  undersized warm board, and a capped board never serves an uncapped
  caller, but a board of any architecture can be retargeted to serve
  a lease of any other.
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass

from ..core.config import ArchConfig

#: Default global-memory size of a leased board (matches SoftGpu).
DEFAULT_GLOBAL_MEM = 1 << 24

#: Warm boards kept in a pool before least-recently-used eviction.
MAX_WARM_BOARDS = 4


def _sha(*chunks):
    digest = hashlib.sha256()
    for chunk in chunks:
        if isinstance(chunk, str):
            chunk = chunk.encode("utf-8")
        digest.update(chunk)
        digest.update(b"\x00")
    return digest.hexdigest()


def config_key(config: ArchConfig):
    """Content hash of an architecture configuration's semantics.

    The display ``label`` is excluded: two configs that synthesise and
    execute identically share a key (and therefore a warm board).
    """
    supported = ("*" if config.supported is None
                 else ",".join(sorted(config.supported)))
    return _sha(
        "cfg",
        config.generation.value,
        "{}x{}x{}".format(config.num_cus, config.num_simd, config.num_simf),
        supported,
        str(config.datapath_bits),
    )


def board_key(arch, global_mem_size=DEFAULT_GLOBAL_MEM, max_instructions=None):
    """Content hash of one board's identity as a run sees it.

    The architecture semantics, the global-memory size, and the per-CU
    instruction budget (fuzz boards cap it).  Leases and checkpoints
    carry it: a checkpoint restores only onto a lease with the same
    key.  The pool itself pools by the physical part alone (memory
    size and cap) and retargets a board to the leased architecture.
    """
    return _sha("board", config_key(arch), str(global_mem_size),
                str(max_instructions if max_instructions is not None else 0))


@dataclass
class BoardLease:
    """One checked-out board plus its provenance.

    ``warm`` records whether the board was reused from the pool (after
    :meth:`SoftGpu.reset` or :meth:`SoftGpu.retarget`) or constructed
    cold for this lease -- the board-provenance bit every
    :class:`~repro.exec.ExecutionResult` reports.  ``key`` is the
    content key (:func:`board_key`) of the leased architecture.
    """

    board: object
    key: str
    warm: bool

    def checkpoint(self):
        """Capture this board's state as a serializable, digest-
        verified :class:`~repro.exec.checkpoint.BoardCheckpoint` --
        including the paused launch frame when the board was preempted
        mid-launch."""
        from .checkpoint import BoardCheckpoint

        return BoardCheckpoint.capture(self.board)

    def restore(self, cp):
        """Restore a checkpoint onto this leased board.

        The checkpoint's board key must equal the lease's -- same
        architecture semantics, memory size and instruction cap -- but
        the *board* may be any instance leased under that key (fresh,
        reset, retargeted from another architecture or
        evicted-and-rebuilt): checkpoints are board-independent.
        Raises :class:`~repro.errors.CheckpointError` otherwise.
        """
        from ..errors import CheckpointError

        if cp.board_key() != self.key:
            raise CheckpointError(
                "checkpoint board key {}.. does not match the leased "
                "board {}.. (arch/memory/cap differ)".format(
                    cp.board_key()[:12], self.key[:12]))
        return cp.apply(self.board)


class BoardPool:
    """Bounded LRU pool of warm boards, keyed by physical identity.

    A lease takes an idle board of the same physical key (memory size,
    instruction cap).  It prefers one already configured for the
    leased architecture, which costs a plain :meth:`SoftGpu.reset`;
    otherwise it retargets the least-recently-used one
    (:meth:`SoftGpu.retarget`).  Only when no idle board of that
    physical key exists is a board built cold.

    Thread-safe by exclusive checkout: :meth:`lease` *removes* the
    board from the pool for the duration of the lease, so two threads
    leasing concurrently simply cost one extra cold build, never a
    shared board.
    """

    def __init__(self, capacity=MAX_WARM_BOARDS):
        self.capacity = capacity
        self._idle = []  # (physical key, config key, board), LRU first
        self._lock = threading.Lock()
        #: Lease provenance; ``warm`` includes retargeted leases,
        #: ``retargets`` counts those.
        self.leases = {"warm": 0, "cold": 0}
        self.retargets = 0

    def __len__(self):
        with self._lock:
            return len(self._idle)

    def _take(self, physical, wanted):
        """Pop the idle board to lease (caller holds the lock): the
        least-recently-used board of ``physical`` key configured for
        ``wanted``, else the least-recently-used of that key.  Returns
        ``(board, its config key)``, or ``(None, None)``."""
        chosen = None
        for index, (phys, ckey, _) in enumerate(self._idle):
            if phys != physical:
                continue
            if ckey == wanted:
                chosen = index
                break
            if chosen is None:
                chosen = index
        if chosen is None:
            return None, None
        _, ckey, board = self._idle.pop(chosen)
        return board, ckey

    @contextmanager
    def lease(self, arch, global_mem_size=DEFAULT_GLOBAL_MEM,
              max_instructions=None):
        """Check a board out; yields a :class:`BoardLease`.

        The board returns to the pool on exit -- even after an
        exception, since the next checkout resets or retargets it
        anyway -- with its per-lease settings (``max_groups``, slice
        budget, observers) scrubbed.
        """
        wanted = config_key(arch)
        physical = (global_mem_size, max_instructions)
        with self._lock:
            board, current = self._take(physical, wanted)
            warm = board is not None
            retarget = warm and current != wanted
            self.leases["warm" if warm else "cold"] += 1
            self.retargets += retarget
        if not warm:
            from ..runtime.device import SoftGpu

            board = SoftGpu(arch, global_mem_size=global_mem_size,
                            max_instructions=max_instructions)
        elif retarget:
            board.retarget(arch)
        else:
            board.reset()
        handle = BoardLease(board=board,
                            key=board_key(arch, global_mem_size,
                                          max_instructions),
                            warm=warm)
        try:
            yield handle
        finally:
            self._release(handle, physical)

    def _release(self, handle, physical):
        board = handle.board
        board.max_groups = None
        board.slice_instructions = None
        for observer in list(board.observers):
            board.detach(observer)
        entry = (physical, config_key(board.arch), board)
        with self._lock:
            self._idle.append(entry)
            while len(self._idle) > self.capacity:
                self._idle.pop(0)

    def clear(self):
        """Drop every pooled board (tests, shutdown)."""
        with self._lock:
            self._idle.clear()
