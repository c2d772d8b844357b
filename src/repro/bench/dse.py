"""The DSE half of ``repro bench``: the smoke sweep, cold and resumed.

Runs the ``paper --smoke`` grid twice through one content-addressed
result store: the first pass pays simulation for every point, the
second must come entirely out of the store.  Every field is a count or
a ratio of counts, compared exactly:

* ``points``, ``ok_points``, ``pareto_points`` -- the cold sweep's
  size, its successful points and its Pareto frontier;
* ``store_hit_rate`` -- reused/total points on the resumed pass; if
  resumability breaks, it drops below 1.
"""

from __future__ import annotations

import shutil
import tempfile

#: Baseline file at the repo root (see docs/benchmarking.md).
DSE_BASELINE_FILE = "BENCH_dse.json"

#: Executor workers per sweep.
DSE_WORKERS = 4


def bench_dse(log=None):
    """Run the DSE sweep benchmark; returns the ``BENCH_dse`` payload."""
    from ..dse import SweepRunner, SweepSpec, preset

    log = log or (lambda message: None)
    space = preset("paper", smoke=True)
    store_dir = tempfile.mkdtemp(prefix="repro-bench-dse-")
    try:
        reports = []
        for label in ("cold", "resumed"):
            log("dse bench: {} sweep of {} points".format(label, len(space)))
            spec = SweepSpec(space=space, workers=DSE_WORKERS,
                             store_dir=store_dir)
            reports.append(SweepRunner(spec).sweep())
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    cold, resumed = reports
    points = len(space)
    return {
        "schema": 2,
        "space": space.name,
        "points": points,
        "ok_points": len(cold.ok_results),
        "pareto_points": len(cold.frontier_results()),
        "store_hit_rate": resumed.reused / points if points else 0.0,
    }


def render_dse(payload):
    """Human-readable summary of one ``bench_dse`` payload."""
    return ("dse: {points} points ({ok_points} ok, {pareto_points} "
            "pareto), store hit rate {store_hit_rate:.0%}".format(**payload))
