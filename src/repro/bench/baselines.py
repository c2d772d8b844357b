"""Baseline files + regression comparison for ``repro bench --check``.

A *baseline* is the JSON payload of a previous ``repro bench --json``
run, checked into the repo root.  :func:`compare_reports` walks the
current payload against it metric by metric and reports every movement
beyond :data:`REGRESSION_THRESHOLD` in the bad direction.

Two metric classes:

* **machine-independent** ratios (``speedup_superblock_vs_reference``,
  ``cache_hit_rate``): comparable across hosts, enforced everywhere.
* **absolute** wall-clock metrics (``wall_*``, ``inst_per_s_superblock``,
  ``jobs_per_second``, ``latency_*``): only meaningful against a
  baseline recorded on the same class of machine, so they are
  *report-only* unless the caller opts into strict mode (CI does, on
  main, where baseline and run share the runner type).
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
    "speedup_superblock_vs_reference": (True, True),
    "cache_hit_rate": (True, True),
    "warm_board_rate": (True, True),
    "store_hit_rate": (True, True),
    "inst_per_s_superblock": (True, False),
    "jobs_per_second": (True, False),
    "points_per_second": (True, False),
    "resume_speedup": (True, False),
    "short_latency_speedup": (True, False),
    "wall_reference_s": (False, False),
    "wall_superblock_s": (False, False),
    "latency_p50_s": (False, False),
    "latency_p95_s": (False, False),
}


@dataclass(frozen=True)
class Regression:
    """One metric that moved beyond threshold in the bad direction."""

    path: str           # e.g. "kernels.cnn_i32.wall_superblock_s"
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


def check_cpi(baseline, current):
    """Exact comparison of the per-class CPI tables.

    CPI values are simulated, not measured, so any difference at all
    is a timing-model change: either an intended one (refresh the
    baseline) or a regression.  Compared exactly, no threshold.  Only
    classes present in both payloads are checked, so adding a CPI
    kernel does not fail against an older baseline; a missing table on
    either side is skipped entirely (pre-schema-4 baselines).
    """
    problems = []
    base_table = (baseline or {}).get("cpi")
    cur_table = (current or {}).get("cpi")
    if not isinstance(base_table, dict) or not isinstance(cur_table, dict):
        return problems
    for name, base_entry in sorted(base_table.items()):
        cur_entry = cur_table.get(name)
        if not isinstance(base_entry, dict) or not isinstance(cur_entry, dict):
            continue
        for field in ("instructions", "cu_cycles", "cpi"):
            if field in base_entry and field in cur_entry \
                    and base_entry[field] != cur_entry[field]:
                problems.append(
                    "cpi.{}.{}: {!r} -> {!r} (timing model changed; "
                    "CPI table is compared exactly)".format(
                        name, field, base_entry[field], cur_entry[field]))
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
