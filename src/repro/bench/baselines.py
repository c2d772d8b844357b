"""Baseline files + regression comparison for ``repro bench --check``.

A *baseline* is the JSON payload of a previous ``repro bench --json``
run, checked into the repo root.  Two comparisons:

* :func:`check_exact` -- the simulator payload's ``kernels`` and
  ``cpi`` tables are simulated values, compared field by field with
  equality.  Any difference fails the check.
* :func:`compare_reports` -- the service and DSE payloads, metric by
  metric, reporting every movement beyond :data:`REGRESSION_THRESHOLD`
  in the bad direction.  Machine-independent ratios
  (``cache_hit_rate``, ``warm_board_rate``, ``store_hit_rate``) are
  enforced everywhere; absolute wall-clock metrics
  (``jobs_per_second``, ``latency_*``, ...) are only meaningful
  against a baseline recorded on the same class of machine, so they
  are *report-only*.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

#: A metric may move this fraction in the bad direction before it
#: counts as a regression.
REGRESSION_THRESHOLD = 0.20

#: metric name -> (higher_is_better, machine_independent)
_METRICS = {
    "cache_hit_rate": (True, True),
    "warm_board_rate": (True, True),
    "store_hit_rate": (True, True),
    "jobs_per_second": (True, False),
    "points_per_second": (True, False),
    "resume_speedup": (True, False),
    "short_latency_speedup": (True, False),
    "latency_p50_s": (False, False),
    "latency_p95_s": (False, False),
}


@dataclass(frozen=True)
class Regression:
    """One metric that moved beyond threshold in the bad direction."""

    path: str           # e.g. "preemption.latency_p95_s"
    baseline: float
    current: float
    change: float       # signed fractional change, bad direction positive
    enforced: bool      # machine-independent -> can fail the build

    def __str__(self):
        kind = "ENFORCED" if self.enforced else "report-only"
        return ("{}: {:.4g} -> {:.4g} ({:+.1%} worse) [{}]".format(
            self.path, self.baseline, self.current, self.change, kind))


def _check_metric(path, name, base_value, cur_value, threshold, out):
    higher_better, independent = _METRICS[name]
    try:
        base_value = float(base_value)
        cur_value = float(cur_value)
    except (TypeError, ValueError):
        return
    if base_value == 0:
        return
    if higher_better:
        change = (base_value - cur_value) / base_value
    else:
        change = (cur_value - base_value) / base_value
    if change > threshold:
        out.append(Regression(path=path, baseline=base_value,
                              current=cur_value, change=change,
                              enforced=independent))


def _walk(path, baseline, current, threshold, out):
    if not isinstance(baseline, dict) or not isinstance(current, dict):
        return
    for key, base_value in baseline.items():
        if key not in current:
            continue
        child_path = "{}.{}".format(path, key) if path else key
        if key in _METRICS:
            _check_metric(child_path, key, base_value, current[key],
                          threshold, out)
        else:
            _walk(child_path, base_value, current[key], threshold, out)


def compare_reports(baseline, current, threshold=REGRESSION_THRESHOLD):
    """All regressions of ``current`` vs ``baseline``, worst first.

    Only metrics present in *both* payloads are compared, so adding a
    kernel to the bench set does not fail against an older baseline.
    """
    out = []
    _walk("", baseline, current, threshold, out)
    out.sort(key=lambda r: r.change, reverse=True)
    return out


#: The exact fields of a ``BENCH_simulator`` payload, per table.
_EXACT_FIELDS = {
    "kernels": ("instructions", "sim_seconds"),
    "cpi": ("instructions", "cu_cycles", "cpi"),
    "coverage": ("plans", "alu_emitted", "alu_generic", "memory",
                 "memory_emitted"),
}


def check_exact(baseline, current):
    """Every exact field on which ``current`` differs from ``baseline``.

    The ``kernels`` and ``cpi`` tables hold simulated values, so any
    difference at all is a model change: either an intended one
    (refresh the baseline) or a regression.  The ``coverage`` table
    counts prepared plans by executor kind, so a specializer that
    silently degrades shows up too.  Compared exactly, no threshold; a
    row or field present on one side only is a difference too, and a
    memory plan that is not emitted is one whatever the baseline says.
    """
    problems = []
    for name, row in sorted((current.get("coverage") or {}).items()):
        if row.get("memory_emitted") != row.get("memory"):
            problems.append("coverage.{}: {} of {} memory plans emitted"
                            .format(name, row.get("memory_emitted"),
                                    row.get("memory")))
    for table, fields in _EXACT_FIELDS.items():
        base_rows = baseline.get(table) or {}
        cur_rows = current.get(table) or {}
        for name in sorted(set(base_rows) | set(cur_rows)):
            base_row = base_rows.get(name) or {}
            cur_row = cur_rows.get(name) or {}
            for field in fields:
                base_value = base_row.get(field)
                cur_value = cur_row.get(field)
                if base_value != cur_value:
                    problems.append("{}.{}.{}: {} -> {}".format(
                        table, name, field,
                        "missing" if base_value is None else repr(base_value),
                        "missing" if cur_value is None else repr(cur_value)))
    return problems


def load_baseline(path):
    """Load one checked-in baseline file; None if it does not exist."""
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def write_baseline(path, payload):
    """Write a baseline payload (stable formatting for clean diffs)."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
