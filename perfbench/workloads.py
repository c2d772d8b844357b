"""The benchmark's workloads: distinct ops, seeded rounds, closed-loop runs.

An *op* is one (application, architecture) pair.  A *round* runs every
distinct op of a workload once, in an order shuffled by the workload
seed, so every run of a workload executes exactly the same mix however
long it takes.  Each op is checked three ways: the program's own output
verification (``verify=True``), its status, and the simulated
``instructions``/``cu_cycles`` against the exactness table recorded in
``expected.json``.

Importing this module needs ``repro`` on ``sys.path`` (``run.py`` puts
the checkout's ``src`` there).
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from dataclasses import dataclass
from typing import List, Tuple

from hostspeed import host_speed
from repro.exec import STATUS_DONE, ExecutionRequest, Executor
from repro.kernels import APPSDK_SUITE, EVALUATION_SUITE, KERNELS
from repro.service import Job, KernelService

WORKLOADS = ("eval_sim", "eval_profile", "sdk_serve")

#: Architectures of the service workload: the trimmed configuration and
#: the multi-thread re-investment (3-4 SIMD/SIMF on one CU).  Multi-CU
#: shapes are left out: the parallel engine starts one thread per CU,
#: which makes host time unsteady on a two-core machine.
SDK_CONFIGS = ("trimmed", "multithread")

#: Rounds per second of ``--seconds``.  Converting seconds to a whole
#: number of rounds with a constant, instead of timing the loop, keeps
#: the op mix identical on every run and every machine.  The values
#: match the reference machine's round rate, except for
#: ``eval_profile``: its rounds take about 2 s, and it runs about 1.6x
#: ``--seconds`` to get enough of them for steady medians.
ROUNDS_PER_SECOND = {"eval_sim": 1.6, "eval_profile": 0.8, "sdk_serve": 1.8}

#: p90 needs at least ten samples beyond it.
MIN_OPS = 100

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


@dataclass(frozen=True)
class Op:
    """One distinct (application, architecture) pair and its inputs."""

    app: str
    arch: str                           # "baseline" or a service config spec
    params: Tuple[Tuple[str, int], ...]  # (("seed", n),) or ()

    @property
    def key(self):
        """The op's row in the exactness table."""
        return "{}@{}".format(self.app, self.arch)


def kernel_seed(seed, key):
    """The kernel ``seed`` param of one op, derived from the workload seed."""
    return random.Random("{}/{}".format(seed, key)).randrange(1, 2 ** 31)


def _op(app, arch, seed):
    # Only classes that declare a ``seed`` default accept one (passing it
    # to the others fails admission).
    key = "{}@{}".format(app, arch)
    params = ((("seed", kernel_seed(seed, key)),)
              if "seed" in KERNELS[app].defaults else ())
    return Op(app, arch, params)


def distinct_ops(workload, seed):
    """Every distinct op of ``workload``, in a fixed canonical order."""
    if workload in ("eval_sim", "eval_profile"):
        return [_op(cls.name, "baseline", seed) for cls in EVALUATION_SUITE]
    if workload == "sdk_serve":
        return [_op(cls.name, config, seed)
                for cls in APPSDK_SUITE for config in SDK_CONFIGS]
    raise ValueError("unknown workload {!r}".format(workload))


def rounds_for(workload, seconds, ops_per_round):
    """Whole rounds for a ``seconds``-long run (at least ``MIN_OPS`` ops)."""
    return max(math.ceil(MIN_OPS / ops_per_round),
               round(seconds * ROUNDS_PER_SECOND[workload]))


def schedule(ops, seed, rounds):
    """``rounds`` shuffled copies of ``ops``, drawn from the workload seed."""
    rng = random.Random(seed)
    out = []
    for _ in range(rounds):
        order = list(ops)
        rng.shuffle(order)
        out.append(order)
    return out


def load_expected():
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)["ops"]


# ---------------------------------------------------------------------------
# Runners: one op in, simulated (instructions, cu_cycles) out.
# ---------------------------------------------------------------------------

class OpFailed(Exception):
    """An op completed without a verified result."""


class ExecRunner:
    """In-process ``Executor.execute`` on the baseline architecture."""

    def __init__(self, profile):
        self.profile = profile
        self.executor = Executor()

    def run(self, op):
        result = self.executor.execute(ExecutionRequest(
            benchmark=op.app, params=dict(op.params), verify=True,
            profile=self.profile))
        if result.status != STATUS_DONE:
            raise OpFailed("status {}".format(result.status))
        return result.instructions, result.cu_cycles

    def close(self):
        self.executor.pool.clear()


class ServeRunner:
    """One client of an inline one-worker ``KernelService``."""

    def __init__(self):
        self.service = KernelService(workers=1, mode="inline")

    def run(self, op):
        stats = self.service.stats
        cycles_before = stats.simulated_cycles
        job_id = self.service.submit(
            Job(op.app, dict(op.params), config=op.arch))
        result = self.service.result(job_id)
        if not result.ok:
            raise OpFailed("{}: {}".format(result.status.value, result.error))
        return result.metrics.instructions, stats.simulated_cycles - cycles_before

    def close(self):
        self.service.close()


def make_runner(workload):
    if workload == "sdk_serve":
        return ServeRunner()
    return ExecRunner(profile=workload == "eval_profile")


# ---------------------------------------------------------------------------
# The closed loop.
# ---------------------------------------------------------------------------

#: Longest stretch of ops between two calibration slices, in seconds.
#: The host's speed can change within a round; a slice at least this
#: often (at an op boundary, and at the end of every round) scales each
#: op by the speed measured around it.
SEGMENT_S = 0.25


@dataclass
class OpRecord:
    key: str
    round: int
    latency_s: float
    instructions: int
    cu_cycles: float
    error: str = ""
    #: :func:`hostspeed.host_speed` of the slices around the op's
    #: stretch (1.0 without a calibrator).
    speed: float = 1.0


@dataclass
class Pass:
    """Everything one pass over a list of rounds produced."""

    records: List[OpRecord]
    round_walls: List[float]
    #: The rounds' walls, each stretch scaled by its host speed.
    scaled_round_walls: List[float]
    #: The host speed of every stretch, in order.
    speeds: List[float]

    @property
    def failures(self):
        return [r for r in self.records if r.error]

    @property
    def scaled_latencies(self):
        return [r.latency_s * r.speed for r in self.records]


def run_op(runner, op, index, expected, tracer=None, op_id=None):
    """One op, timed from the call to the returned result and checked."""
    clock = time.perf_counter
    error = ""
    instructions, cycles = 0, 0.0
    start = clock()
    if tracer is not None:
        tracer.begin_op(op_id, start)
    try:
        instructions, cycles = runner.run(op)
    except Exception as exc:  # a failed op is counted, not fatal
        error = "{}: {}".format(type(exc).__name__, exc)
    end = clock()
    if tracer is not None:
        tracer.end_op(end)
    if not error:
        want = expected.get(op.key)
        if want is None:
            error = "no exactness-table row for {}".format(op.key)
        elif [instructions, cycles] != [want["instructions"],
                                        want["cu_cycles"]]:
            error = ("simulated (instructions, cu_cycles) = ({}, {}), "
                     "table has ({}, {})".format(
                         instructions, cycles, want["instructions"],
                         want["cu_cycles"]))
    return OpRecord(op.key, index, end - start, instructions, cycles, error)


def run_rounds(runner, rounds, expected, host=None, tracer=None):
    """Run ``rounds`` back to back, one op at a time (one client).

    With a ``host`` :class:`hostspeed.Calibrator`, a calibration slice
    runs before the first op, at the end of every round, and within a
    round whenever ``SEGMENT_S`` has passed since the last one.  Slices
    run between ops and outside every timed stretch, and measure the
    host's speed beside it.  With a ``tracer``, each op is also its
    root span; the tracer never runs on the timed runs that report
    end-to-end metrics.
    """
    clock = time.perf_counter
    records, walls, scaled_walls, speeds = [], [], [], []
    before = host.slice() if host is not None else None
    for index, ops in enumerate(rounds):
        wall = scaled = 0.0
        stretch, stretch_start = [], clock()
        for position, op in enumerate(ops):
            stretch.append(run_op(runner, op, index, expected, tracer,
                                  len(records) + len(stretch)))
            elapsed = clock() - stretch_start
            if position < len(ops) - 1 and (host is None
                                            or elapsed < SEGMENT_S):
                continue
            speed = 1.0
            if host is not None:
                after = host.slice()
                speed = host_speed(before, after)
                before = after
                speeds.append(speed)
            for record in stretch:
                record.speed = speed
            wall += elapsed
            scaled += elapsed * speed
            records.extend(stretch)
            stretch, stretch_start = [], clock()
        walls.append(wall)
        scaled_walls.append(scaled)
    return Pass(records, walls, scaled_walls, speeds)
