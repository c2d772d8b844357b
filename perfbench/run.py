"""The repository benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload eval_sim --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, measured with tracing
off.  ``--trace 1`` reports the per-layer metrics of a separate traced
pass, with the tracing overhead.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Set-up is measured this many times per run, in fresh processes, and
#: the median reported.
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120


def _import_program():
    """Put the checkout's ``src`` first on the path; refuse any other repro."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit("error: no repro package under {}; run from the root of a "
                 "checkout".format(SRC))
    sys.path[:0] = [SRC, HERE]
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        sys.exit("error: imported repro from {}, not {}".format(
            repro.__file__, SRC))


def _ratio(num, den):
    return num / den if den else 0.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# Set-up time: process start to the first timed op.
# ---------------------------------------------------------------------------

class _ParentSlices:
    """Calibration slices of a set-up probe, timed by its parent."""

    def slice(self):
        print("SLICE", flush=True)
        return float(sys.stdin.readline())


def setup_probe(workload, seed):
    """Child side: import, construct, one cold pass, report, exit.

    The cold pass asks the parent for a calibration slice between its
    stretches of ops, like a timed pass, and reports its own scaled
    wall time.
    """
    import workloads

    runner = workloads.make_runner(workload)
    cold = workloads.run_rounds(runner, [workloads.distinct_ops(workload, seed)],
                                workloads.load_expected(), _ParentSlices())
    print("READY {!r} {} {}".format(cold.scaled_round_walls[0],
                                    len(cold.records), len(cold.failures)),
          flush=True)
    runner.close()


def measure_setup(workload, seed, host):
    """Median set-up time of ``SETUP_SAMPLES`` fresh processes.

    A sample is the wall time from spawn to the first op (interpreter
    start, import, construction), scaled by the calibration slices just
    before the spawn and just after that moment, plus the probe's own
    scaled cold pass.  Returns ``(median seconds, ops attempted, ops
    failed)``; the cold passes verify their ops like any other.
    """
    from hostspeed import host_speed

    samples, attempted, failed = [], 0, 0
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    before = host.slice()
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            load_s = time.perf_counter() - start
            speed = None
            while line == "SLICE\n":
                after = host.slice()
                if speed is None:
                    speed = host_speed(before, after)
                before = after
                child.stdin.write("{!r}\n".format(after))
                child.stdin.flush()
                line = child.stdout.readline()
            child.stdin.close()
            child.stdout.read()
            code = child.wait(timeout=SETUP_TIMEOUT_S)
        fields = line.split()
        if (code != 0 or speed is None or len(fields) != 4
                or fields[0] != "READY"):
            raise RuntimeError("set-up probe failed (exit {}, {!r})".format(
                code, line))
        samples.append(load_s * speed + float(fields[1]))
        attempted += int(fields[2])
        failed += int(fields[3])
    return statistics.median(samples), attempted, failed


# ---------------------------------------------------------------------------
# End-to-end pass (tracing off).
# ---------------------------------------------------------------------------

def end_to_end(timed, setup_s):
    """The user-visible metrics of one timed pass, at reference speed."""
    from repro.bench.harness import percentile

    records = timed.records
    latencies = timed.scaled_latencies
    round_s = statistics.median(timed.scaled_round_walls)
    rounds = len(timed.round_walls)
    instructions = sum(r.instructions for r in records)
    cycles = sum(r.cu_cycles for r in records)
    return {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_s": _metric(len(records) / rounds / round_s, "1/s"),
        "op_p50_s": _metric(percentile(latencies, 50), "s"),
        "op_p90_s": _metric(percentile(latencies, 90), "s"),
        "sim_inst_per_s": _metric(instructions / rounds / round_s, "1/s"),
        "sim_cpi": _metric(_ratio(cycles, instructions), "cycles/inst"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _unscaled(timed):
    """The same pass in plain wall time, for the human-readable line."""
    from repro.bench.harness import percentile

    latencies = [r.latency_s for r in timed.records]
    return ("time scale x{:.3f}; unscaled: ops_per_s {:.4g}, "
            "op_p50_s {:.4g}, op_p90_s {:.4g}".format(
                statistics.median(timed.speeds),
                len(timed.records) / len(timed.round_walls)
                / statistics.median(timed.round_walls),
                percentile(latencies, 50), percentile(latencies, 90)))


def timed_run(workload, seed, seconds):
    import workloads
    from hostspeed import Calibrator

    expected = workloads.load_expected()
    ops = workloads.distinct_ops(workload, seed)
    rounds = workloads.schedule(
        ops, seed, workloads.rounds_for(workload, seconds, len(ops)))
    with Calibrator() as host:
        setup_s, attempted, failed = measure_setup(workload, seed, host)
        runner = workloads.make_runner(workload)
        try:
            cold = workloads.run_rounds(runner, [ops], expected)
            timed = workloads.run_rounds(runner, rounds, expected, host)
        finally:
            runner.close()
    failures = cold.failures + timed.failures
    _report_failures(failures)
    print("# {}: {} rounds x {} ops; op_p90_s over {} samples; {}".format(
        workload, len(rounds), len(ops), len(timed.records),
        _unscaled(timed)))
    return {
        "correct": failed == 0 and not failures,
        "attempted": attempted + len(cold.records) + len(timed.records),
        "failed": failed + len(failures),
        "metrics": end_to_end(timed, setup_s),
    }


# ---------------------------------------------------------------------------
# Traced pass (per-layer attribution).
# ---------------------------------------------------------------------------

#: Layers whose work happens while caches fill: measured over the
#: traced cold pass (per cold op), where their misses are.
COLD_LAYERS = ("core.trim", "core.plan", "fpga.synthesize", "asm.assemble",
               "cu.prepare", "cu.superblock_build", "cu.timing_table")
#: Layers on every op's path: measured over the traced warm rounds.
WARM_LAYERS = ("service.submit", "service.wait", "exec.execute", "exec.lease",
               "runtime.board_build", "runtime.reset", "kernels.prepare",
               "kernels.verify", "soc.launch", "soc.build_workgroup",
               "cu.run_workgroup", "obs.hook", "op")


def _hit_ratio(flags):
    return _ratio(sum(1 for hit in flags if hit), len(flags))


def per_layer(cold, warm, cache_hit_ratio, untraced_ops_per_s,
              traced_ops_per_s):
    """Fold the two tracers' spans into the per-layer metrics."""
    out = {}
    cold_totals, warm_totals = cold.layer_totals(), warm.layer_totals()
    for name in COLD_LAYERS:
        calls, seconds = cold_totals[name]
        out[name + "_s"] = _metric(seconds / cold.ops, "s")
        out[name + "_calls"] = _metric(calls, "count")
    for name in WARM_LAYERS:
        out[name + "_s"] = _metric(warm_totals[name][1] / warm.ops, "s")
    out["bench.loop_s"] = out.pop("op_s")
    out["service.cache_hit_ratio"] = _metric(cache_hit_ratio, "ratio")
    out["exec.warm_lease_ratio"] = _metric(
        _hit_ratio(warm.infos("exec.lease")), "ratio")
    out["runtime.board_builds"] = _metric(
        warm_totals["runtime.board_build"][0] / warm.ops, "count/op")
    out["soc.launches"] = _metric(
        warm_totals["soc.launch"][0] / warm.ops, "count/op")
    out["soc.workgroups"] = _metric(
        warm_totals["soc.build_workgroup"][0] / warm.ops, "count/op")
    out["cu.host_ns_per_inst"] = _metric(
        1e9 * _ratio(warm_totals["cu.run_workgroup"][1],
                     sum(warm.infos("cu.run_workgroup"))), "ns/inst")
    out["cu.prepared_hit_ratio"] = _metric(
        _hit_ratio(cold.infos("cu.prepare")), "ratio")
    out["cu.timing_table_hit_ratio"] = _metric(
        _hit_ratio(cold.infos("cu.timing_table")), "ratio")
    prefetch = warm.infos("exec.execute")
    hits = sum(h for h, _ in prefetch)
    out["mem.prefetch_hit_ratio"] = _metric(
        _ratio(hits, hits + sum(m for _, m in prefetch)), "ratio")
    out["obs.events"] = _metric(warm_totals["obs.hook"][0] / warm.ops,
                                "count/op")
    out["trace.untraced_ops_per_s"] = _metric(untraced_ops_per_s, "1/s")
    out["trace.traced_ops_per_s"] = _metric(traced_ops_per_s, "1/s")
    out["trace.slowdown"] = _metric(
        _ratio(untraced_ops_per_s, traced_ops_per_s), "ratio")
    return out


def _service_cache(runner):
    service = getattr(runner, "service", None)
    if service is None:
        return 0, 0
    stats = service.cache.stats
    return stats.total_hits, stats.total_misses


def traced_run(workload, seed, seconds):
    import workloads
    from hostspeed import Calibrator
    from tracing import Instrumentation, Tracer

    expected = workloads.load_expected()
    ops = workloads.distinct_ops(workload, seed)
    rounds = workloads.schedule(
        ops, seed, workloads.rounds_for(workload, seconds, len(ops)))
    instrumentation = Instrumentation()
    originals = instrumentation.snapshot()
    cold_tracer, warm_tracer = Tracer(), Tracer()
    runner = workloads.make_runner(workload)
    try:
        with Calibrator() as host:
            with instrumentation.installed(cold_tracer):
                cold = workloads.run_rounds(runner, [ops], expected,
                                            tracer=cold_tracer)
            untraced = workloads.run_rounds(runner, rounds, expected, host)
            hits0, misses0 = _service_cache(runner)
            with instrumentation.installed(warm_tracer):
                traced = workloads.run_rounds(runner, rounds, expected, host,
                                              warm_tracer)
            hits1, misses1 = _service_cache(runner)
    finally:
        runner.close()

    after = instrumentation.snapshot()
    restored = (after.keys() == originals.keys()
                and all(after[key] is originals[key] for key in originals))
    problems = cold_tracer.problems() + warm_tracer.problems()
    os.makedirs(OUT_DIR, exist_ok=True)
    for phase, tracer in (("cold", cold_tracer), ("warm", warm_tracer)):
        tracer.dump(os.path.join(OUT_DIR, "spans-{}-seed{}-{}.json".format(
            workload, seed, phase)))
    failures = cold.failures + untraced.failures + traced.failures
    _report_failures(failures)
    if not restored:
        print("# tracing wrappers left behind after restore", file=sys.stderr)
    for problem in problems[:10]:
        print("# unsound spans: " + problem, file=sys.stderr)

    def ops_per_s(run):
        return len(ops) / statistics.median(run.scaled_round_walls)

    return {
        "correct": not failures and restored and not problems,
        "attempted": len(cold.records) + len(untraced.records)
        + len(traced.records),
        "failed": len(failures),
        "metrics": per_layer(
            cold_tracer, warm_tracer,
            _ratio(hits1 - hits0, hits1 - hits0 + misses1 - misses0),
            ops_per_s(untraced), ops_per_s(traced)),
    }


def _report_failures(failures):
    for record in failures[:10]:
        print("# FAILED {}: {}".format(record.key, record.error),
              file=sys.stderr)


def main(argv=None):
    _import_program()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    run = traced_run if args.trace else timed_run
    result = run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
