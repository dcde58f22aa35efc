"""``repro loadgen``: replay a seeded request mix -> BENCH_serve.json."""

from __future__ import annotations

import argparse
import sys

from ..core.api import BACKENDS
from ._common import GPU_SPECS, write_json


def init_subparser(subparsers) -> None:
    parser = subparsers.add_parser(
        "loadgen",
        help="replay a seeded request mix through the service "
             "(BENCH_serve.json)",
    )
    parser.add_argument("--requests", type=int, default=24,
                        help="requests to replay (default 24)")
    parser.add_argument("--seed", type=int, default=0,
                        help="mix seed (default 0)")
    parser.add_argument("--workers", type=int, default=2,
                        help="service worker threads (default 2)")
    parser.add_argument("--backends", nargs="+", metavar="NAME",
                        choices=sorted(BACKENDS), default=["gpu-fast"],
                        help="backend pool (default gpu-fast)")
    parser.add_argument("--datasets", type=int, default=2,
                        help="distinct datasets in the mix (default 2)")
    parser.add_argument("--n", type=int, default=600,
                        help="points per dataset (default 600)")
    parser.add_argument("--d", type=int, default=8,
                        help="dimensionality (default 8)")
    parser.add_argument("--clusters", type=int, default=4,
                        help="planted clusters (default 4)")
    parser.add_argument("--run-seeds", type=int, nargs="+", default=[0, 1],
                        help="algorithm seed pool (default 0 1)")
    parser.add_argument("--ks", type=int, nargs="+", default=[4],
                        help="k pool (default 4)")
    parser.add_argument("--ls", type=int, nargs="+", default=[3, 4, 5],
                        help="l pool (default 3 4 5)")
    parser.add_argument("--a", type=int, default=30, help="sample constant A")
    parser.add_argument("--b", type=int, default=5, help="medoid constant B")
    parser.add_argument("--cache-entries", type=int, default=64,
                        help="result-cache capacity (default 64)")
    parser.add_argument("--gpu", choices=sorted(GPU_SPECS),
                        default="gtx1660ti",
                        help="modeled card (default gtx1660ti)")
    parser.add_argument("--timeline", action="store_true",
                        help="print the queue/occupancy lanes")
    parser.add_argument("--json", metavar="PATH",
                        help="write the serve-bench report here")
    parser.add_argument("--monitor-dir", metavar="DIR",
                        help="also write live monitoring output here "
                             "(inspect with 'repro monitor DIR --once')")
    parser.add_argument("--postmortem-dir", metavar="DIR",
                        help="run under a flight recorder; a determinism "
                             "violation dumps a replayable postmortem "
                             "bundle here")
    parser.set_defaults(run=run)


def run(args: argparse.Namespace) -> int:
    from ..obs import validate_bench_report
    from ..serve import run_loadgen
    from ..viz import render_health, render_serve_lanes

    report = run_loadgen(
        args.requests,
        seed=args.seed,
        workers=args.workers,
        backends=tuple(args.backends),
        num_datasets=args.datasets,
        n=args.n,
        d=args.d,
        clusters=args.clusters,
        seeds=tuple(args.run_seeds),
        ks=tuple(args.ks),
        ls=tuple(args.ls),
        a=args.a,
        b=args.b,
        cache_entries=args.cache_entries,
        gpu_spec=GPU_SPECS[args.gpu],
        monitor_dir=args.monitor_dir,
        postmortem_dir=args.postmortem_dir,
        progress=print,
    )
    totals = report["totals"]
    print()
    print(f"{report['requests']} requests "
          f"({report['unique_settings']} unique settings) "
          f"on modeled {report['config']['gpu']}")
    print(f"modeled device seconds: naive "
          f"{totals['naive_modeled_seconds'] * 1e3:.3f} ms -> served "
          f"{totals['served_modeled_seconds'] * 1e3:.3f} ms "
          f"({totals['speedup']:.2f}x)")
    print(f"latency p50/p95/max: "
          f"{report['latency_seconds']['p50'] * 1e3:.1f} / "
          f"{report['latency_seconds']['p95'] * 1e3:.1f} / "
          f"{report['latency_seconds']['max'] * 1e3:.1f} ms")
    violations = report["determinism"]["violations"]
    print(f"determinism: {report['determinism']['checked']} checked, "
          f"{len(violations)} violations")
    for violation in violations[:10]:
        print(f"  VIOLATION: {violation}")
    if report.get("postmortem_bundle"):
        print(f"  postmortem bundle: {report['postmortem_bundle']} "
              f"(inspect with: repro postmortem {report['postmortem_bundle']})")
    if args.timeline:
        print()
        print(render_serve_lanes(report["events"]))
    if "health" in report:
        print()
        print(render_health(report["health"]))
    problems = validate_bench_report(report, "repro.serve_bench/1")
    for problem in problems:
        print(f"report problem: {problem}", file=sys.stderr)
    if args.json:
        write_json(report, args.json, "report")
    return 0 if report["ok"] and not problems else 1
