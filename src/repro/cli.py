"""Command-line interface: the SCRATCH toolchain as a standalone tool.

Mirrors how the paper ships its framework (github.com/scratch-gpu's
``Trimming-Tool`` repository is a command-line Python tool).  The
subcommands walk the Figure 3 pipeline:

================  ====================================================
``asm``           assemble a ``.s`` file to a Southern Islands binary
``disasm``        disassemble a binary (or re-render a ``.s``)
``trim``          run Algorithm 1 on one or more kernels and print the
                  trim report (optionally JSON)
``synth``         synthesise a configuration and print utilisation/power
``characterize``  print the Figure 4 instruction-mix histogram of a
                  kernel binary
``run``           execute a benchmark from the built-in suite across
                  architecture configurations
``profile``       run one benchmark under full observation: stall-
                  attributed counters, issue mix, optional Chrome trace
``validate``      run the Section 2.3 per-instruction microbenchmark
                  sweep over the 156-instruction set
``netlist``       emit the trimmed compute unit as a structural netlist
``fuzz``          differential conformance fuzzing: random kernels
                  under paired configurations that must agree
                  bit-for-bit (see ``docs/verify.md``)
================  ====================================================

Usage::

    python -m repro trim kernel.s --multicore
    python -m repro characterize kernel.s
    python -m repro run matrix_mul_i32 --configs original baseline
"""

from __future__ import annotations

import argparse
import struct
import sys

from .asm.assembler import assemble
from .asm.disassembler import disassemble
from .core.config import ArchConfig
from .core.flow import ScratchFlow
from .core.histogram import InstructionMix
from .core.parallelize import plan as plan_parallelism
from .core.trimmer import TrimmingTool
from .errors import ReproError
from .exec import ENGINE_NAMES
from .fpga.synthesis import Synthesizer
from .obs.serialize import dump_json


def _read_source(path):
    with open(path) as handle:
        return handle.read()


def _load_programs(paths):
    return [assemble(_read_source(p)) for p in paths]


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_asm(args):
    program = assemble(_read_source(args.source))
    raw = struct.pack("<{}I".format(len(program.words)), *program.words)
    if args.output:
        with open(args.output, "wb") as handle:
            handle.write(raw)
        print("{}: {} instructions, {} bytes -> {}".format(
            program.name, len(program), len(raw), args.output))
    else:
        for i in range(0, len(program.words), 4):
            chunk = program.words[i:i + 4]
            print(" ".join("{:08x}".format(w) for w in chunk))
    return 0


def cmd_disasm(args):
    if args.binary.endswith(".s"):
        program = assemble(_read_source(args.binary))
        print(disassemble(program), end="")
        return 0
    with open(args.binary, "rb") as handle:
        raw = handle.read()
    words = list(struct.unpack("<{}I".format(len(raw) // 4),
                               raw[: len(raw) // 4 * 4]))
    print(disassemble(words), end="")
    return 0


def cmd_trim(args):
    programs = _load_programs(args.sources)
    tool = TrimmingTool()
    result = tool.trim(programs, datapath_bits=args.datapath)
    if args.json:
        payload = result.to_dict()
        if args.multicore or args.multithread:
            mode = "multicore" if args.multicore else "multithread"
            grown = plan_parallelism(result.config, mode,
                                     synthesizer=tool.synthesizer)
            payload["parallel"] = {
                "mode": mode, "cus": grown.num_cus,
                "int_valus": grown.num_simd, "fp_valus": grown.num_simf,
            }
        print(dump_json(payload))
        return 0
    print(result.summary())
    for flag, mode in ((args.multicore, "multicore"),
                       (args.multithread, "multithread")):
        if flag:
            grown = plan_parallelism(result.config, mode,
                                     synthesizer=tool.synthesizer)
            report = tool.synthesizer.synthesize(grown)
            print("\n{} re-investment: {}".format(mode, grown.describe()))
            print("  power: {}".format(report.power))
    return 0


def cmd_synth(args):
    config = {
        "original": ArchConfig.original,
        "dcd": ArchConfig.dcd,
        "baseline": ArchConfig.baseline,
    }[args.config]()
    if args.cus != 1 or args.int_valus != 1 or args.fp_valus != 1:
        config = config.with_parallelism(num_cus=args.cus,
                                         num_simd=args.int_valus,
                                         num_simf=args.fp_valus)
    report = Synthesizer().synthesize(config)
    print(report.summary())
    print("  fits device: {}".format(report.fits()))
    return 0


def cmd_characterize(args):
    program = assemble(_read_source(args.source))
    mix = InstructionMix.from_program(program)
    print(mix.render())
    return 0


def _arch_for(flow, label):
    """Resolve a config label to an ArchConfig via the flow."""
    fixed = {
        "original": ArchConfig.original,
        "dcd": ArchConfig.dcd,
        "baseline": ArchConfig.baseline,
    }
    if label in fixed:
        return fixed[label]()
    if label == "trimmed":
        return flow.trim().config
    return flow.plan(label)


def cmd_run(args):
    import time

    from .kernels import KERNELS

    if args.benchmark not in KERNELS:
        print("unknown benchmark {!r}; available: {}".format(
            args.benchmark, ", ".join(sorted(KERNELS))), file=sys.stderr)
        return 2
    bench = KERNELS[args.benchmark]()
    if args.trace:
        from .cu.trace import ExecutionTracer
        from .exec import BenchmarkWorkload, ExecutionRequest, execute

        tracer = ExecutionTracer()
        execute(ExecutionRequest(
            workload=BenchmarkWorkload(instance=bench),
            arch=ArchConfig.baseline(),
            verify=not args.no_verify,
            observers=(tracer,)))
        print(tracer.render(limit=args.trace))
        print("\nunit utilisation: {}".format(tracer.unit_utilisation()))
        return 0
    if args.repeat < 1:
        print("error: --repeat must be >= 1", file=sys.stderr)
        return 2
    flow = ScratchFlow(bench, max_groups=args.max_groups)
    wanted = args.configs or ["original", "baseline", "trimmed", "multicore"]
    results, walls = {}, {}
    for label in wanted:
        arch = _arch_for(flow, label)
        # One warm-up run, excluded from the reported wall clock (it
        # pays the decode/prepare caches), then --repeat timed runs;
        # the median is reported.  Simulated metrics come from the
        # final run (they are deterministic across runs).
        flow.run(arch, verify=not args.no_verify, engine=args.engine)
        samples = []
        for _ in range(args.repeat):
            started = time.perf_counter()
            results[label] = flow.run(arch, verify=not args.no_verify,
                                      engine=args.engine)
            samples.append(time.perf_counter() - started)
        walls[label] = sorted(samples)[len(samples) // 2]
    reference = results[wanted[0]]
    if args.json:
        payload = {"benchmark": args.benchmark, "repeat": args.repeat,
                   "configs": {}}
        for label in wanted:
            entry = results[label].to_dict()
            entry["speedup_vs_{}".format(wanted[0])] = \
                results[label].speedup_vs(reference)
            entry["wall_s"] = walls[label]
            payload["configs"][label] = entry
        print(dump_json(payload))
        return 0
    print("{:<12} {:>12} {:>10} {:>9} {:>12} {:>9}".format(
        "config", "seconds", "vs " + wanted[0][:4], "power", "inst/J",
        "wall s"))
    for label in wanted:
        metrics = results[label]
        print("{:<12} {:>12.6f} {:>9.1f}x {:>8.2f}W {:>12.3e} {:>9.3f}".format(
            label, metrics.seconds, reference.seconds / metrics.seconds,
            metrics.power.total, metrics.ipj, walls[label]))
    return 0


def cmd_profile(args):
    from .obs.profiler import profile_kernel

    result = profile_kernel(
        args.benchmark,
        config=args.config,
        max_groups=args.max_groups,
        verify=not args.no_verify,
        trace=bool(args.trace),
    )
    if args.trace:
        result.trace.write(args.trace)
        print("trace: {} events -> {}".format(len(result.trace), args.trace),
              file=sys.stderr)
    if args.json:
        print(result.to_json())
    else:
        print(result.render())
    return 0


def _resolve_oracles(spec):
    """Map the --oracle argument to a check_case oracle subset."""
    from .verify.oracles import ORACLE_NAMES

    if spec in (None, "all"):
        return None
    if spec in ORACLE_NAMES:
        return (spec,)
    raise ReproError(
        "unknown oracle {!r}; expected 'all' or one of: {}".format(
            spec, ", ".join(ORACLE_NAMES)))


def cmd_fuzz(args):
    from .verify import FuzzCampaign, run_corpus_file

    oracles = _resolve_oracles(args.oracle)
    if args.replay:
        case, failures = run_corpus_file(args.replay, oracles=oracles)
        print("replay {} (seed {}, local {}, groups {}): {}".format(
            args.replay, case.seed, case.local_size, case.groups,
            "all oracles passed" if not failures
            else "{} failure(s)".format(len(failures))))
        for failure in failures:
            print("  {}".format(failure))
        return 0 if not failures else 1
    campaign = FuzzCampaign(
        seed=args.seed, iterations=args.iterations,
        corpus_dir=args.corpus, shrink=not args.no_shrink,
        max_segments=args.max_segments, oracles=oracles,
        log=lambda message: print(message, file=sys.stderr))
    report = campaign.run()
    print(report.summary())
    return 0 if report.ok else 1


def cmd_bench(args):
    import os

    from .bench import (
        DSE_BASELINE_FILE,
        REGRESSION_THRESHOLD,
        SERVICE_BASELINE_FILE,
        SIMULATOR_BASELINE_FILE,
        SMOKE_KERNELS,
        bench_dse,
        bench_service,
        bench_simulator,
        check_cpi,
        compare_reports,
        load_baseline,
        write_baseline,
    )
    from .bench.dse import render_dse
    from .bench.service import render_service
    from .bench.simulator import render_simulator

    log = lambda message: print(message, file=sys.stderr)  # noqa: E731
    kernels = args.kernels or (SMOKE_KERNELS if args.smoke else None)
    simulator = bench_simulator(kernels=kernels, repeat=args.repeat, log=log)
    service = None
    if not args.skip_service:
        service = bench_service(log=log)
    dse = None
    if not args.skip_dse:
        dse = bench_dse(log=log)

    sim_path = os.path.join(args.out, SIMULATOR_BASELINE_FILE)
    svc_path = os.path.join(args.out, SERVICE_BASELINE_FILE)
    dse_path = os.path.join(args.out, DSE_BASELINE_FILE)

    regressions = []
    cpi_problems = []
    if args.check:
        for path, payload in ((sim_path, simulator), (svc_path, service),
                              (dse_path, dse)):
            if payload is None:
                continue
            baseline = load_baseline(path)
            if baseline is None:
                log("no baseline at {}; skipping check".format(path))
                continue
            regressions.extend(compare_reports(baseline, payload))
            if payload is simulator:
                # The CPI table is deterministic (simulated cycles),
                # so it is compared exactly -- even on subset runs.
                cpi_problems = check_cpi(baseline, simulator)

    wrote = []
    if args.json or args.update:
        write_baseline(sim_path, simulator)
        wrote.append(sim_path)
        if service is not None:
            write_baseline(svc_path, service)
            wrote.append(svc_path)
        if dse is not None:
            write_baseline(dse_path, dse)
            wrote.append(dse_path)

    if args.json:
        print(dump_json({"simulator": simulator, "service": service,
                         "dse": dse}))
    else:
        print(render_simulator(simulator))
        if service is not None:
            print()
            print(render_service(service))
        if dse is not None:
            print()
            print(render_dse(dse))
    for path in wrote:
        log("baseline written: {}".format(path))

    if cpi_problems:
        print("\n{} CPI table mismatch(es):".format(len(cpi_problems)))
        for problem in cpi_problems:
            print("  {}".format(problem))
    if regressions:
        print("\n{} regression(s) beyond {:.0%}:".format(
            len(regressions), REGRESSION_THRESHOLD))
        for regression in regressions:
            print("  {}".format(regression))
        enforced = [r for r in regressions if r.enforced]
        if enforced and not args.report_only:
            return 1
        if regressions and not enforced:
            log("absolute-metric regressions are report-only "
                "(machine-dependent)")
    if cpi_problems and not args.report_only:
        return 1
    return 0


def cmd_serve(args):
    from .service import KernelService, load_jobs, suite_jobs

    if args.jobs:
        jobs = load_jobs(args.jobs)
    else:
        jobs = suite_jobs(config=args.config, verify=not args.no_verify,
                          engine=args.engine)
    with KernelService(workers=args.workers, mode=args.mode,
                       queue_depth=args.queue_depth) as service:
        service.submit_many(jobs)
        results = service.drain()
        snapshot = service.snapshot()
    if args.json:
        print(dump_json({"results": [r.to_dict() for r in results],
                         "stats": snapshot}))
    else:
        print("{:<6} {:<26} {:<12} {:>8} {:>10} {:>9}".format(
            "job", "benchmark", "config", "status", "sim sec", "wall s"))
        for r in results:
            sim = "{:.6f}".format(r.metrics.seconds) if r.metrics else "-"
            print("{:<6} {:<26} {:<12} {:>8} {:>10} {:>8.2f}{}".format(
                r.job_id, r.job.benchmark, r.job.config, r.status.value,
                sim, r.latency_s, " (warm)" if r.warm_board else ""))
            if r.error:
                print("       {}".format(r.error))
        print("\n{} jobs, {} ok, {:.2f} jobs/s wall, "
              "p50 {:.2f}s p95 {:.2f}s, cache hit rate {:.0%}, "
              "warm boards {:.0%}".format(
                  snapshot["submitted"], snapshot["completed"],
                  snapshot["jobs_per_second"], snapshot["latency_p50_s"],
                  snapshot["latency_p95_s"], snapshot["cache"]["hit_rate"],
                  snapshot["warm_board_rate"]))
    return 0 if all(r.ok for r in results) else 1


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

def cmd_netlist(args):
    from .core.netlist import emit_netlist

    programs = _load_programs(args.sources)
    result = TrimmingTool().trim(programs, datapath_bits=args.datapath)
    text = emit_netlist(result.config)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print("netlist written to {}".format(args.output))
    else:
        print(text, end="")
    return 0


def cmd_validate(args):
    from .validation import report, validate_all

    records = validate_all(args.instructions or None)
    print(report(records))
    return 0 if all(r.passed for r in records) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SCRATCH soft-GPGPU toolchain (MICRO-50 2017 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("asm", help="assemble SI assembly to binary")
    p.add_argument("source")
    p.add_argument("-o", "--output", help="write raw little-endian dwords")
    p.set_defaults(func=cmd_asm)

    p = sub.add_parser("disasm", help="disassemble a binary or .s file")
    p.add_argument("binary")
    p.set_defaults(func=cmd_disasm)

    p = sub.add_parser("trim", help="run the trimming tool on kernel(s)")
    p.add_argument("sources", nargs="+")
    p.add_argument("--datapath", type=int, default=32, choices=(8, 16, 32))
    p.add_argument("--multicore", action="store_true",
                   help="also plan a multi-core re-investment")
    p.add_argument("--multithread", action="store_true",
                   help="also plan a multi-thread re-investment")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_trim)

    p = sub.add_parser("synth", help="synthesise a configuration")
    p.add_argument("config", choices=("original", "dcd", "baseline"))
    p.add_argument("--cus", type=int, default=1)
    p.add_argument("--int-valus", type=int, default=1)
    p.add_argument("--fp-valus", type=int, default=1)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("characterize",
                       help="Figure 4 instruction-mix histogram")
    p.add_argument("source")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("netlist",
                       help="emit the trimmed CU as a structural netlist")
    p.add_argument("sources", nargs="+")
    p.add_argument("--datapath", type=int, default=32, choices=(8, 16, 32))
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_netlist)

    p = sub.add_parser("validate",
                       help="per-instruction validation sweep")
    p.add_argument("instructions", nargs="*",
                   help="specific mnemonics (default: all 156)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run a built-in benchmark")
    p.add_argument("benchmark")
    p.add_argument("--configs", nargs="*",
                   choices=("original", "dcd", "baseline", "trimmed",
                            "multicore", "multithread"))
    p.add_argument("--max-groups", type=int, default=None)
    p.add_argument("--engine", default="auto", choices=ENGINE_NAMES,
                   help="launch engine for every config (default auto: "
                        "resolves per board)")
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--json", action="store_true",
                   help="emit RunMetrics (incl. energy_joules, edp, ipj) "
                        "as JSON")
    p.add_argument("--trace", type=int, metavar="N", default=0,
                   help="trace execution on the baseline and print the "
                        "first N events instead of benchmarking")
    p.add_argument("--repeat", type=int, default=1,
                   help="timed runs per config after one excluded "
                        "warm-up (default 1); the median wall clock is "
                        "reported")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("profile",
                       help="profile a benchmark: stall-attributed "
                            "counters, issue mix, optional Chrome trace")
    p.add_argument("benchmark")
    p.add_argument("--config", default="baseline",
                   choices=("original", "dcd", "baseline", "trimmed",
                            "multicore", "multithread"))
    p.add_argument("--max-groups", type=int, default=None)
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--json", action="store_true",
                   help="emit metrics + counters as JSON")
    p.add_argument("--trace", metavar="OUT.json", default=None,
                   help="also write a Chrome trace-event file "
                        "(open in chrome://tracing or Perfetto)")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("fuzz",
                       help="differential fuzzing: random kernels under "
                            "paired configurations that must agree")
    p.add_argument("--seed", type=int, default=0,
                   help="first case seed (default 0)")
    p.add_argument("--iterations", type=int, default=100,
                   help="number of cases, seeds N..N+K-1 (default 100)")
    p.add_argument("--corpus", metavar="DIR", default=None,
                   help="write minimised reproducers into DIR")
    p.add_argument("--no-shrink", action="store_true",
                   help="keep failing cases at generated size")
    p.add_argument("--max-segments", type=int, default=24,
                   help="program-body size budget (default 24)")
    p.add_argument("--replay", metavar="CASE.s", default=None,
                   help="re-run one corpus file instead of fuzzing")
    p.add_argument("--oracle", default=None,
                   help="restrict the oracle matrix: 'all' (default) "
                        "or any single oracle name")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("bench",
                       help="wall-clock performance benchmarks with "
                            "regression checking (docs/benchmarking.md)")
    p.add_argument("--kernels", nargs="*", default=None,
                   help="kernel subset (default: the standard bench set)")
    p.add_argument("--smoke", action="store_true",
                   help="only the two fastest kernels (the CI smoke set)")
    p.add_argument("--repeat", type=int, default=3,
                   help="timed runs per kernel/engine after one "
                        "excluded warm-up (default 3)")
    p.add_argument("--skip-service", action="store_true",
                   help="skip the service throughput benchmark")
    p.add_argument("--skip-dse", action="store_true",
                   help="skip the DSE sweep benchmark")
    p.add_argument("--json", action="store_true",
                   help="print the full payload as JSON and write the "
                        "BENCH_*.json baseline files")
    p.add_argument("--update", action="store_true",
                   help="rewrite the BENCH_*.json baseline files")
    p.add_argument("--check", action="store_true",
                   help="compare against the checked-in baselines; "
                        "exit 1 on an enforced regression")
    p.add_argument("--report-only", action="store_true",
                   help="with --check: print regressions but exit 0")
    p.add_argument("--out", default=".", metavar="DIR",
                   help="directory of the baseline files (default: .)")
    p.set_defaults(func=cmd_bench)

    from .dse.cli import add_dse_parser

    add_dse_parser(sub)

    p = sub.add_parser("serve",
                       help="run jobs through the kernel-execution service")
    p.add_argument("--workers", type=int, default=2,
                   help="worker-pool size (default 2)")
    p.add_argument("--jobs", metavar="JOBS.json",
                   help="job list (JSON); default: the evaluation suite")
    p.add_argument("--mode", choices=("process", "thread", "inline"),
                   default="process",
                   help="worker execution mode (default process)")
    p.add_argument("--queue-depth", type=int, default=64,
                   help="admission-queue capacity (default 64)")
    p.add_argument("--config", default="trimmed",
                   choices=("original", "dcd", "baseline", "trimmed",
                            "multicore", "multithread"),
                   help="architecture for the default suite jobs")
    p.add_argument("--engine", default="auto", choices=ENGINE_NAMES,
                   help="launch engine for the default suite jobs "
                        "(default auto)")
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv=None):
    """CLI entry point.

    User errors -- anything the library raises as :class:`ReproError`,
    plus file-system problems -- exit with status 2 and a one-line
    message; tracebacks are reserved for actual bugs.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
