"""Bounded priority queue with backpressure.

The admission controller's waiting room.  Capacity is bounded so an
overloaded service pushes back on producers instead of growing an
unbounded backlog: ``put`` blocks until space frees (backpressure) and
raises :class:`~repro.errors.AdmissionError` when its patience window
expires or the queue is closed.

Ordering is ``(priority, batch_key, sequence)``: lower priority values
first (unix-nice convention), then jobs that share a batch key -- the
admission controller uses the trimmed configuration's content hash --
so compatible jobs leave the queue adjacently and find the board
already configured for them (a reset, not a retarget), and FIFO
within a batch.
"""

from __future__ import annotations

import heapq
import itertools
import threading

from ..errors import AdmissionError


class BoundedJobQueue:
    """Thread-safe bounded priority queue."""

    def __init__(self, capacity=64):
        if capacity < 1:
            raise AdmissionError("queue capacity must be >= 1")
        self.capacity = capacity
        self._heap = []
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        self.depth_highwater = 0

    # -- producer side -----------------------------------------------------

    def put(self, item, priority=0, batch_key="", block=True, timeout=None):
        """Enqueue ``item``; blocks while full.

        Raises :class:`AdmissionError` when the queue is closed, when
        ``block=False`` and the queue is full, or when ``timeout``
        seconds of backpressure pass without space freeing.
        """
        with self._not_full:
            if self._closed:
                raise AdmissionError("queue is closed to new jobs")
            if not block and len(self._heap) >= self.capacity:
                raise AdmissionError(
                    "queue full ({} jobs deep)".format(self.capacity))
            deadline = None if timeout is None else timeout
            while len(self._heap) >= self.capacity:
                if not self._not_full.wait(timeout=deadline):
                    raise AdmissionError(
                        "backpressure timeout: queue stayed full ({} deep) "
                        "for {:.3g}s".format(self.capacity, timeout))
                if self._closed:
                    raise AdmissionError("queue is closed to new jobs")
            heapq.heappush(self._heap,
                           (priority, batch_key, next(self._seq), item))
            self.depth_highwater = max(self.depth_highwater, len(self._heap))
            self._not_empty.notify()

    def requeue(self, item, priority=0, batch_key=""):
        """Re-enqueue a preempted item, bypassing the capacity bound.

        Completion callbacks requeue preempted jobs after releasing
        their in-flight slot; blocking on a full queue there would
        deadlock the dispatcher, and rejecting would lose a job the
        service already admitted -- so a requeue always fits (the item
        held queue capacity once; letting the depth transiently exceed
        the bound is the lesser evil).  Returns ``False`` when the
        queue is closed (the caller settles the job as cancelled).
        """
        with self._lock:
            if self._closed:
                return False
            heapq.heappush(self._heap,
                           (priority, batch_key, next(self._seq), item))
            self.depth_highwater = max(self.depth_highwater, len(self._heap))
            self._not_empty.notify()
            return True

    # -- consumer side -----------------------------------------------------

    def get(self, block=True, timeout=None):
        """Pop the next item, or ``None`` when closed and drained."""
        with self._not_empty:
            while not self._heap:
                if self._closed:
                    return None
                if not block:
                    return None
                if not self._not_empty.wait(timeout=timeout):
                    return None
            _, _, _, item = heapq.heappop(self._heap)
            self._not_full.notify()
            return item

    # -- lifecycle ---------------------------------------------------------

    def close(self):
        """Refuse new jobs; consumers drain what remains, then get None."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    @property
    def closed(self):
        with self._lock:
            return self._closed

    def __len__(self):
        with self._lock:
            return len(self._heap)
