"""Regenerate ``expected.json``, the benchmark's exactness table.

Runs every distinct op of ``eval_sim`` and ``sdk_serve`` once (the
``eval_profile`` ops are the ``eval_sim`` ops) and records the simulated
``instructions`` and board-timeline ``cu_cycles`` of each.  Only a
change that is meant to alter the timing model should regenerate it::

    python3 perfbench/record_expected.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main():
    table = {}
    for workload in ("eval_sim", "sdk_serve"):
        runner = workloads.make_runner(workload)
        try:
            for op in workloads.distinct_ops(workload, seed=0):
                instructions, cycles = runner.run(op)
                table[op.key] = {"instructions": instructions,
                                 "cu_cycles": cycles}
        finally:
            runner.close()
    with open(workloads.EXPECTED_PATH, "w") as handle:
        json.dump({"ops": dict(sorted(table.items()))}, handle, indent=1)
        handle.write("\n")
    print("wrote {} rows to {}".format(len(table), workloads.EXPECTED_PATH))


if __name__ == "__main__":
    main()
