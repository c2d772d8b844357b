"""Host-speed calibration, timed in a child process of its own.

The benchmark runs on shared machines whose speed drifts by tens of
percent within minutes.  :func:`calibrate` is a fixed slice of the kind
of work the simulator does; :class:`Calibrator` times it in a
long-lived child process that never imports ``repro``, so nothing the
program does to its own process (threads, heap, NumPy allocator) moves
the slice -- only the host does.  :func:`host_speed` turns slices timed
around a measurement into the factor that scales it to the reference
machine's speed.

Run as a script, this module is that child: one slice per input line,
its duration printed on one output line, until standard input closes.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

#: Duration of one :func:`calibrate` slice on the reference machine.
CALIBRATION_REF_S = 0.02
#: How strongly the workloads' host time follows the calibration slice's
#: when the host speeds up or slows down (fitted on the reference
#: machine: see README.md).
SPEED_EXPONENT = 0.75


def calibrate():
    """Time one fixed slice of interpreter and 64-lane NumPy work.

    The slice does what the simulator does per instruction -- table and
    dict lookups, small-array ufuncs, masked stores -- but it is fixed
    code outside the program, so only the host's speed moves it.
    """
    regs = np.zeros((16, 64), np.uint32)
    mask = np.ones(64, bool)
    table = [(i % 7, (i * 3) % 16, (i * 5) % 16) for i in range(64)]
    state = {"pc": 0, "t": 0.0}
    start = time.perf_counter()
    for i in range(8000):
        op, a, b = table[state["pc"] & 63]
        if op < 3:
            np.add(regs[a], regs[b], out=regs[(a + b) & 15])
        elif op < 5:
            regs[a][mask] = regs[b][mask] ^ np.uint32(i)
        else:
            state["t"] = max(state["t"], float(regs[a][0]) * 0.25)
        state["pc"] += 1
    return time.perf_counter() - start


def host_speed(before, after):
    """Factor that scales a host time measured between two calibration
    slices to the reference machine's speed."""
    return (2 * CALIBRATION_REF_S / (before + after)) ** SPEED_EXPONENT


class Calibrator:
    """Times :func:`calibrate` slices in a child process on request."""

    def __init__(self):
        self._child = subprocess.Popen(
            [sys.executable, "-u", __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def slice(self):
        """Seconds one slice took in the child; the caller waits idle."""
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError("the calibration process exited")
        return float(line)

    def close(self):
        self._child.stdin.close()
        try:
            self._child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
        self._child.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


def _serve():
    calibrate()                 # first-call allocations stay out of slices
    for _ in sys.stdin:
        print(repr(calibrate()), flush=True)


if __name__ == "__main__":
    _serve()
