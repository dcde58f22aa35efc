"""``repro bench``: regenerate paper experiments ('all' for every one)."""

from __future__ import annotations

import argparse
import sys

from ..bench.baseline import DEFAULT_BASELINE_DIR
from ..bench.runner import ALL_EXPERIMENTS
from ._common import write_json


def init_subparser(subparsers) -> None:
    parser = subparsers.add_parser("bench", help="regenerate a paper experiment")
    parser.add_argument("experiment",
                        choices=sorted(ALL_EXPERIMENTS) + ["all", "quick", "fleet"])
    parser.add_argument("--devices", type=int, nargs="+", default=[1, 2, 3, 4],
                        help="(with 'fleet') device counts of the scaling "
                             "curve (default 1 2 3 4)")
    parser.add_argument("--csv", metavar="PATH", help="also write rows as CSV")
    parser.add_argument("--json", metavar="PATH",
                        help="also write report as JSON ('-' = stdout for "
                             "'quick')")
    parser.add_argument("--plot", action="store_true",
                        help="render the series as an ASCII log-log chart")
    parser.add_argument("--out", metavar="DIR",
                        help="(with 'all') write CSV/JSON/SUMMARY.md here")
    parser.add_argument("--save-baseline", action="store_true",
                        help="(with 'quick') write the run as the committed "
                             "baseline store")
    parser.add_argument("--baseline-dir", metavar="DIR",
                        default=DEFAULT_BASELINE_DIR,
                        help=f"baseline store location "
                             f"(default {DEFAULT_BASELINE_DIR})")
    parser.set_defaults(run=run)


def run(args: argparse.Namespace) -> int:
    if args.experiment == "quick":
        return _quick(args)
    if args.experiment == "fleet":
        return _fleet(args)
    if args.experiment == "all":
        from ..bench.runner import run_all_experiments

        runs = run_all_experiments(out_dir=args.out, progress=print)
        for experiment in runs:
            print()
            print(experiment.report.render())
        if args.out:
            print(f"\nartifacts written to {args.out}")
        return 0
    report = ALL_EXPERIMENTS[args.experiment]()
    print(report.render())
    if args.plot:
        print()
        print(report.render_plot())
    if args.csv:
        path = report.to_csv(args.csv)
        print(f"\nrows written to {path}")
    if args.json:
        path = report.to_json(args.json)
        print(f"report written to {path}")
    return 0


def _quick(args: argparse.Namespace) -> int:
    """The ``repro bench quick`` path: run the baseline tier."""
    import time

    from ..bench.baseline import (
        bench_quick_record,
        quick_report,
        run_quick_tier,
        write_baselines,
    )

    started = time.perf_counter()
    records = run_quick_tier(progress=print)
    wall = time.perf_counter() - started
    report = quick_report(records)
    print()
    print(report.render())
    if args.plot:
        print()
        print(report.render_plot())
    if args.csv:
        print(f"\nrows written to {report.to_csv(args.csv)}")
    if args.save_baseline:
        paths = write_baselines(records, args.baseline_dir)
        print(f"\n{len(paths)} baseline files written to {args.baseline_dir} "
              f"(commit them to move the regression gate)")
    if args.json:
        write_json(bench_quick_record(records, wall), args.json, "report")
    return 0


def _fleet(args: argparse.Namespace) -> int:
    """The ``repro bench fleet`` path: multi-device scaling curve."""
    from ..fleet.bench import render_fleet_bench, run_fleet_bench, write_fleet_bench

    payload = run_fleet_bench(devices=tuple(args.devices), progress=print)
    print()
    print(render_fleet_bench(payload))
    if not payload["ok"]:
        print("\nWARNING: a fleet run was NOT bit-identical to solo",
              file=sys.stderr)
    if args.json == "-":
        write_json(payload, "-", "report")
    elif args.json:
        path = write_fleet_bench(payload, args.json)
        print(f"\nreport written to {path}")
    return 0 if payload["ok"] else 1
