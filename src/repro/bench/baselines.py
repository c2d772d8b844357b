"""Baseline files and the exact comparison behind ``repro bench --check``.

A *baseline* is the JSON payload of a previous ``repro bench --json``
run, checked into the repo root.  Every payload holds only
deterministic values -- simulated instructions, cycles and seconds,
plan counts, cache and store hit rates, preemption counts -- so
:func:`check_exact` compares each leaf with equality.  Any difference
is either an intended change (refresh the baseline) or a regression.
"""

from __future__ import annotations

import json
import os

_MISSING = object()


def _leaf_diffs(path, base, cur, out):
    """Append one line per differing leaf under ``path`` to ``out``."""
    base_tree = {} if base is _MISSING else base
    cur_tree = {} if cur is _MISSING else cur
    if isinstance(base_tree, dict) and isinstance(cur_tree, dict):
        for key in sorted(set(base_tree) | set(cur_tree)):
            _leaf_diffs("{}.{}".format(path, key) if path else key,
                        base_tree.get(key, _MISSING),
                        cur_tree.get(key, _MISSING), out)
    elif base != cur:
        out.append("{}: {} -> {}".format(
            path,
            "missing" if base is _MISSING else repr(base),
            "missing" if cur is _MISSING else repr(cur)))


def check_exact(baseline, current):
    """Every leaf on which ``current`` differs from ``baseline``.

    Each difference reads ``path: old -> new``; a leaf present on one
    side only reads ``missing`` on the other.  For a simulator payload,
    a memory plan that is not emitted is a difference too, whatever the
    baseline says.
    """
    problems = []
    for name, row in sorted((current.get("coverage") or {}).items()):
        if row.get("memory_emitted") != row.get("memory"):
            problems.append("coverage.{}: {} of {} memory plans emitted"
                            .format(name, row.get("memory_emitted"),
                                    row.get("memory")))
    _leaf_diffs("", baseline, current, problems)
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
