"""CLI glue: ``python -m repro dse sweep|report|compare``.

Kept beside the engine so the top-level :mod:`repro.cli` only wires a
parser; everything DSE-specific (argument shapes, rendering choices)
lives in this package.
"""

from __future__ import annotations

import sys

from ..obs.serialize import dump_json
from .report import (
    build_report,
    compare_sweeps,
    load_report,
    render_csv,
    render_markdown,
    write_report,
)
from .runner import SweepRunner, SweepSpec
from .space import PRESETS, preset


def _log(message):
    print(message, file=sys.stderr)


def cmd_dse_sweep(args):
    space = preset(args.preset, kernels=args.kernels or None,
                   smoke=args.smoke)
    spec = SweepSpec(
        space=space,
        verify=args.verify,
        workers=args.workers,
        budget_margin=args.budget_margin,
        store_dir=args.store,
    )
    runner = SweepRunner(spec, log=_log)
    _log("sweeping {}: {} design point(s)".format(space.name, len(space)))
    sweep = runner.sweep()
    report = build_report(sweep.to_dict())
    if args.out:
        paths = write_report(report, args.out,
                             basename="dse-{}".format(space.name))
        for path in sorted(paths.values()):
            _log("wrote {}".format(path))
    if args.json:
        print(dump_json(report))
    else:
        print(render_markdown(report), end="")
    if report["totals"]["failed"]:
        return 1
    return 0


def cmd_dse_report(args):
    payload = load_report(args.report)
    # Accept either a raw sweep payload or a built report.
    report = payload if "pareto" in payload else build_report(payload)
    if args.csv:
        print(render_csv(report), end="")
    elif args.json:
        print(dump_json(report))
    else:
        print(render_markdown(report), end="")
    return 0


def cmd_dse_compare(args):
    old = load_report(args.old)
    new = load_report(args.new)
    changes = compare_sweeps(old, new, threshold=args.threshold)
    if not changes:
        print("no movement beyond {:.0%}".format(args.threshold))
        return 0
    for change in changes:
        print(change)
    return 1 if args.strict else 0


def add_dse_parser(sub):
    """Register the ``dse`` subcommand tree on a subparsers object."""
    p = sub.add_parser(
        "dse",
        help="design-space exploration: trim x re-investment sweeps, "
             "Pareto frontiers, figure reproduction (docs/dse.md)")
    dse_sub = p.add_subparsers(dest="dse_command", required=True)

    s = dse_sub.add_parser("sweep", help="evaluate a design space")
    s.add_argument("--preset", default="paper", choices=sorted(PRESETS),
                   help="design-space preset (default: paper, the "
                        "Figures 6-8 grid)")
    s.add_argument("--kernels", nargs="*", default=None,
                   help="restrict to these benchmarks")
    s.add_argument("--smoke", action="store_true",
                   help="the CI-sized sub-grid (2 kernels x 4 points "
                        "for the paper preset)")
    s.add_argument("--verify", action="store_true",
                   help="run every workgroup and check outputs "
                        "(default: timing mode with the suite's "
                        "sampling caps)")
    s.add_argument("--workers", type=int, default=4,
                   help="execution fan-out width (default 4)")
    s.add_argument("--budget-margin", type=float, default=1.0,
                   help="scale the device's usable capacity used as "
                        "the per-point area budget (default 1.0)")
    s.add_argument("--store", metavar="DIR", default=None,
                   help="content-addressed result store: finished "
                        "points are reused on re-runs (resumability)")
    s.add_argument("--out", metavar="DIR", default=None,
                   help="also write dse-<space>.{json,csv,md} here")
    s.add_argument("--json", action="store_true",
                   help="print the report payload as JSON")
    s.set_defaults(func=cmd_dse_sweep)

    s = dse_sub.add_parser("report",
                           help="re-render a sweep report file")
    s.add_argument("report", help="dse-*.json path")
    s.add_argument("--csv", action="store_true")
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_dse_report)

    s = dse_sub.add_parser("compare",
                           help="diff two sweep reports point by point")
    s.add_argument("old")
    s.add_argument("new")
    s.add_argument("--threshold", type=float, default=0.05,
                   help="fractional objective movement worth reporting "
                        "(default 0.05)")
    s.add_argument("--strict", action="store_true",
                   help="exit 1 when anything moved")
    s.set_defaults(func=cmd_dse_compare)
    return p
