"""Warm-board leasing: one pool of live :class:`SoftGpu` instances.

Building a board is the expensive part of a run -- the CU model, the
memory system and the prefetch mirrors are all constructed eagerly --
while :meth:`SoftGpu.reset` returns an existing board to its power-on
state for a fraction of that cost (the warm-lease and checkpoint
oracles in :mod:`repro.verify.oracles` pin the claim that a
reset board is bit-identical to a fresh one).  This module makes that
reuse a first-class facility instead of a service-worker private:
every execution path that goes through :class:`repro.exec.Executor`
-- CLI repeats, bench sampling, fuzz oracle matrices, the profiler,
service jobs -- checks boards out of a :class:`BoardPool`.

Boards are keyed by **content**, not identity: the architecture
configuration's semantic hash, the global-memory size, and any per-CU
instruction cap.  A job that needs a large memory can therefore never
be handed an undersized warm board -- it simply has a different key
and gets a cold one.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
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
    """Content hash of one board's *physical* identity.

    Everything that is baked in at :class:`SoftGpu` construction time
    and survives :meth:`SoftGpu.reset` participates: the architecture
    semantics, the global-memory size, and the per-CU instruction
    budget (fuzz boards cap it; a capped board must never serve an
    uncapped caller).
    """
    return _sha("board", config_key(arch), str(global_mem_size),
                str(max_instructions if max_instructions is not None else 0))


@dataclass
class BoardLease:
    """One checked-out board plus its provenance.

    ``warm`` records whether the board was reused from the pool (after
    :meth:`SoftGpu.reset`) or constructed cold for this lease -- the
    board-provenance bit every :class:`~repro.exec.ExecutionResult`
    reports.  ``max_instructions`` is the per-CU cap the board was
    leased with (part of its content key; checkpoints record it).
    """

    board: object
    key: str
    warm: bool
    max_instructions: object = None

    def checkpoint(self):
        """Capture this board's state as a serializable, digest-
        verified :class:`~repro.exec.checkpoint.BoardCheckpoint` --
        including the paused launch frame when the board was preempted
        mid-launch."""
        from .checkpoint import BoardCheckpoint

        return BoardCheckpoint.capture(self.board,
                                       max_instructions=self.max_instructions)

    def restore(self, cp):
        """Restore a checkpoint onto this leased board.

        The checkpoint's board key must equal the lease's -- same
        architecture semantics, memory size and instruction cap -- but
        the *board* may be any instance with that key (fresh, reset or
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
    """Bounded LRU pool of warm boards, keyed by :func:`board_key`.

    Thread-safe by exclusive checkout: :meth:`lease` *removes* the
    board from the pool for the duration of the lease, so two threads
    leasing the same key concurrently simply cost one extra cold
    build, never a shared board.
    """

    def __init__(self, capacity=MAX_WARM_BOARDS):
        self.capacity = capacity
        self._boards = OrderedDict()
        self._lock = threading.Lock()
        self.leases = {"warm": 0, "cold": 0}

    def __len__(self):
        with self._lock:
            return len(self._boards)

    @contextmanager
    def lease(self, arch, global_mem_size=DEFAULT_GLOBAL_MEM,
              max_instructions=None):
        """Check a board out; yields a :class:`BoardLease`.

        The board returns to the pool on exit -- even after an
        exception, since the next checkout resets it anyway -- with
        its per-lease settings (``max_groups``, default engine,
        observers) scrubbed.
        """
        key = board_key(arch, global_mem_size, max_instructions)
        with self._lock:
            board = self._boards.pop(key, None)
        warm = board is not None
        if warm:
            board.reset()
        else:
            from ..runtime.device import SoftGpu

            board = SoftGpu(arch, global_mem_size=global_mem_size)
            if max_instructions is not None:
                for cu in board.gpu.cus:
                    cu.max_instructions = max_instructions
        with self._lock:
            self.leases["warm" if warm else "cold"] += 1
        handle = BoardLease(board=board, key=key, warm=warm,
                            max_instructions=max_instructions)
        try:
            yield handle
        finally:
            self._release(handle)

    def _release(self, handle):
        board = handle.board
        board.max_groups = None
        board.slice_instructions = None
        board.gpu.default_engine = None
        for observer in list(board.observers):
            board.detach(observer)
        with self._lock:
            self._boards[handle.key] = board
            while len(self._boards) > self.capacity:
                self._boards.popitem(last=False)

    def clear(self):
        """Drop every pooled board (tests, shutdown)."""
        with self._lock:
            self._boards.clear()
