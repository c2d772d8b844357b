"""The SoftGpu device facade: an OpenCL-shaped host API over the model.

This is the programming surface a downstream user touches::

    dev = SoftGpu(ArchConfig.baseline())
    a = dev.upload("a", np.arange(1024, dtype=np.uint32))
    b = dev.upload("b", np.arange(1024, dtype=np.uint32))
    out = dev.alloc("out", 1024 * 4)
    dev.preload_all()                       # fill the prefetch memory
    dev.run(program, (1024,), (256,), args=[a, b, out])
    result = dev.read(out)

It owns the buffer heap, writes kernel arguments into constant buffer
1 (buffers by heap-relative offset, scalars by value -- exactly the
IMM_CONST_BUFFER1 convention of Section 2.2.2), mirrors the MicroBlaze
host templates' prefetch preloading, and exposes the board timeline
for the metrics layer.

Toolchain code does not construct boards directly: it submits an
:class:`~repro.exec.ExecutionRequest` to :mod:`repro.exec`, whose
executor leases (warm) boards from a shared pool and returns them
scrubbed (``tests/test_layering.py`` enforces this).  The facade above
is for downstream users scripting a board by hand.
"""

from __future__ import annotations

import numpy as np

from ..core.config import ArchConfig
from ..errors import LaunchError, ReproError
from ..mem.global_memory import GlobalMemory
from ..soc.gpu import CB1_BASE, CB1_SIZE, HEAP_BASE, Gpu
from .buffers import Buffer, HeapAllocator


class SoftGpu:
    """One simulated board with a host-side runtime."""

    def __init__(self, arch=None, global_mem_size=1 << 24, max_groups=None,
                 max_instructions=None):
        self.arch = arch or ArchConfig.baseline()
        #: Per-CU instruction cap (``None``: the CU's stock safety
        #: valve).  Part of the board's physical identity: it survives
        #: :meth:`reset` and :meth:`retarget`.
        self.max_instructions = max_instructions
        self.gpu = self._build_gpu(GlobalMemory(global_mem_size))
        self.heap = HeapAllocator(global_mem_size - HEAP_BASE)
        self.max_groups = max_groups
        #: Preemption budget of :meth:`run`/:meth:`resume`
        #: (instructions per slice, ``None``: never yield); the
        #: executor sets it per lease.
        self.slice_instructions = None

    def _build_gpu(self, global_mem):
        gpu = Gpu(self.arch, global_mem=global_mem)
        if self.max_instructions is not None:
            for cu in gpu.cus:
                cu.max_instructions = self.max_instructions
        return gpu

    # -- memory ----------------------------------------------------------

    def alloc(self, name, nbytes, dtype=np.uint32):
        return self.heap.alloc(name, int(nbytes), dtype)

    def upload(self, name, array):
        """Allocate a buffer sized for ``array`` and copy it in."""
        array = np.ascontiguousarray(array)
        if array.size == 0:
            raise LaunchError(
                "upload of zero-length array to buffer {!r}".format(name))
        buf = self.heap.alloc(name, array.nbytes, array.dtype)
        self.write(buf, array)
        return buf

    def write(self, buf, array):
        array = np.ascontiguousarray(array)
        if array.size == 0:
            raise LaunchError(
                "write of zero-length array into buffer {!r}".format(buf.name))
        if np.dtype(array.dtype) != np.dtype(buf.dtype):
            raise LaunchError(
                "dtype mismatch writing buffer {!r}: array is {}, buffer "
                "holds {}".format(buf.name, np.dtype(array.dtype),
                                  np.dtype(buf.dtype)))
        if array.nbytes > buf.nbytes:
            raise LaunchError(
                "write of {} bytes into {}-byte buffer {!r}".format(
                    array.nbytes, buf.nbytes, buf.name))
        self.gpu.memory.global_mem.write_block(HEAP_BASE + buf.offset, array)

    def read(self, buf, dtype=None, count=None):
        dtype = np.dtype(dtype or buf.dtype)
        nbytes = buf.nbytes if count is None else count * dtype.itemsize
        return self.gpu.memory.global_mem.read_block(
            HEAP_BASE + buf.offset, nbytes, dtype)

    def fill(self, buf, byte=0):
        self.gpu.memory.global_mem.fill(HEAP_BASE + buf.offset, buf.nbytes, byte)

    def reset(self):
        """Return the board to its power-on state so it can be reused.

        Pooled workers keep warm :class:`SoftGpu` instances between
        jobs; this clears everything a previous job could leak into the
        next one -- heap allocations, global-memory contents (heap and
        constant-buffer regions), prefetch-buffer coverage, and the
        timeline -- without paying the cost of rebuilding the CU model.
        """
        mem = self.gpu.memory
        mem.global_mem.reset()
        self.heap.reset()
        for prefetch in mem.prefetch:
            prefetch.clear()
        if self.arch.has_prefetch:
            # Re-mirror the constant-buffer region, as at construction.
            mem.preload_all(0, HEAP_BASE)
        self.reset_timeline()
        return self

    def retarget(self, arch):
        """Reconfigure the board for ``arch``, keeping its global memory.

        The simulator's partial reconfiguration: the CU design changes
        while the board and its DDR stay in place.  Builds a fresh
        :class:`~repro.soc.gpu.Gpu` for ``arch`` -- CUs, unit pools,
        supported set, memory timing, prefetch buffers, channels,
        dispatcher and MicroBlaze -- around the existing
        :class:`~repro.mem.global_memory.GlobalMemory`, cleared by its
        dirty high-water mark, and resets the heap.  The result is
        bit-identical to a cold ``SoftGpu(arch)`` of the same memory
        size and instruction cap (the ``warm-lease`` oracle pins it)
        without allocating a new memory image.  Attached observers
        move to the new design; a preempted launch is dropped, as by
        :meth:`reset`.
        """
        global_mem = self.gpu.memory.global_mem
        global_mem.reset()
        observers = self.gpu.observers
        self.arch = arch
        self.gpu = self._build_gpu(global_mem)
        for observer in observers:
            self.gpu.attach(observer)
        self.heap.reset()
        return self

    # -- prefetch (host-template choreography) -----------------------------

    def preload(self, *buffers):
        """Preload specific buffers into the prefetch memory."""
        covered = True
        for buf in buffers:
            covered &= self.gpu.preload_prefetch(HEAP_BASE + buf.offset,
                                                 buf.nbytes)
        return covered

    def preload_all(self):
        """Preload the whole allocated heap (the common template)."""
        if self.heap.used == 0:
            return True
        return self.gpu.preload_prefetch(HEAP_BASE, self.heap.used)

    # -- kernel launch -----------------------------------------------------

    def set_args(self, args):
        """Write the CB1 argument block: buffers as offsets, ints as-is."""
        dwords = []
        for arg in args:
            if isinstance(arg, Buffer):
                dwords.append(arg.offset)
            elif isinstance(arg, float):
                dwords.append(
                    int(np.float32(arg).view(np.uint32)))
            else:
                dwords.append(int(arg) & 0xFFFFFFFF)
        if 4 * len(dwords) > CB1_SIZE:
            raise LaunchError("too many kernel arguments")
        if dwords:
            self.gpu.memory.global_mem.write_block(
                CB1_BASE, np.asarray(dwords, dtype=np.uint32))

    def run(self, program, global_size, local_size, args=(),
            collect_registers=False):
        """Set arguments and launch; returns the :class:`LaunchResult`.

        Attached observers receive the launch's events;
        ``collect_registers`` captures final wavefront state on the
        result.  The board's
        :attr:`max_groups` caps the workgroups executed (workgroup
        sampling, ``None``: all of them).  A board
        :attr:`slice_instructions` budget makes the launch yield at the
        next workgroup boundary after that many instructions by raising
        :class:`~repro.errors.LaunchPreempted`; continue with
        :meth:`resume` or checkpoint the board.
        """
        self.set_args(list(args))
        return self.gpu.launch(program, global_size, local_size,
                               max_groups=self.max_groups,
                               collect_registers=collect_registers,
                               max_slice_instructions=self.slice_instructions)

    def resume(self):
        """Continue a preempted launch; returns its LaunchResult.

        Works on the board that was preempted or on any board a
        checkpoint of it was restored onto.  May preempt again under
        the board's :attr:`slice_instructions` budget.
        """
        return self.gpu.resume_launch(
            max_slice_instructions=self.slice_instructions)

    # -- host phases --------------------------------------------------------

    def host_phase(self, name, alu_ops=0, fp_ops=0, mem_touches=0):
        return self.gpu.host_phase(name, alu_ops, fp_ops, mem_touches)

    # -- observation -----------------------------------------------------------

    def attach(self, observer):
        """Attach an observer to the board's event stream.

        Any :class:`~repro.obs.observer.Observer` works -- a counter
        set, an execution tracer, a Chrome-trace recorder -- and any
        number may be attached at once.  Returns the observer so the
        call chains::

            counters = device.attach(PerfCounters())
        """
        return self.gpu.attach(observer)

    def detach(self, observer):
        """Detach a previously attached observer."""
        self.gpu.detach(observer)

    @property
    def observers(self):
        """The currently attached observers, in attachment order."""
        return self.gpu.observers

    def attach_tracer(self, tracer):
        """Removed pre-obs API; raises with the migration path.

        The deprecation cycle is complete: ``attach_tracer`` was an
        alias of :meth:`attach` for one release and now fails loudly
        instead of silently drifting from the observer registry.
        """
        raise ReproError(
            "SoftGpu.attach_tracer was removed; migrate to "
            "device.attach(observer) / device.detach(observer) -- any "
            "repro.obs.Observer (ExecutionTracer, PerfCounters, "
            "ChromeTrace) attaches the same way")

    # -- timeline ------------------------------------------------------------

    @property
    def elapsed_seconds(self):
        return self.gpu.elapsed_seconds

    @property
    def elapsed_cu_cycles(self):
        return self.gpu.now

    @property
    def instructions(self):
        return self.gpu.total_instructions

    def reset_timeline(self):
        self.gpu.reset_timeline()
