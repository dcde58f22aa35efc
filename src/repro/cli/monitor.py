"""``repro monitor``: SLO health dashboard over a monitor directory."""

from __future__ import annotations

import argparse
import sys

from ._common import write_json


def init_subparser(subparsers) -> None:
    parser = subparsers.add_parser(
        "monitor",
        help="SLO health dashboard over a service's monitor directory",
    )
    parser.add_argument("dir", nargs="?", default=None,
                        help="monitor directory written by "
                             "'repro serve --monitor-dir' or loadgen")
    parser.add_argument("--fleet", metavar="FILE",
                        help="instead of a monitor dir: render the "
                             "straggler/imbalance attribution of a fleet "
                             "report JSON (fleet_report or --json output)")
    parser.add_argument("--once", action="store_true",
                        help="print the current health once and exit "
                             "(0 healthy / 1 SLO failing / 2 no report)")
    parser.add_argument("--json", metavar="PATH",
                        help="(with --once) write the health report as "
                             "JSON ('-' = stdout)")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="live-view refresh seconds (default 1.0)")
    parser.add_argument("--max-updates", type=int, default=None,
                        help="stop the live view after this many redraws")
    parser.set_defaults(run=run)


def run(args: argparse.Namespace) -> int:
    import time

    from ..obs.monitor import load_health
    from ..viz import render_health

    if args.fleet:
        return _fleet(args.fleet)
    if args.dir is None:
        print("monitor: a monitor directory is required (or --fleet FILE)",
              file=sys.stderr)
        return 2
    if args.once:
        health = load_health(args.dir)  # missing -> OSError -> exit 2
        if args.json:
            write_json(health, args.json, "health report")
        else:
            print(render_health(health))
        return 0 if health["ok"] else 1

    health = None
    updates = 0
    while True:
        try:
            health = load_health(args.dir)
        except FileNotFoundError:
            print(f"waiting for {args.dir}/health.json ...")
        else:
            print(render_health(health))
            print()
        updates += 1
        if health is not None and health.get("final"):
            print("service flushed its final snapshot; exiting")
            break
        if args.max_updates is not None and updates >= args.max_updates:
            break
        time.sleep(args.interval)
    if health is None:
        print(f"no health report ever appeared in {args.dir}",
              file=sys.stderr)
        return 2
    return 0 if health["ok"] else 1


def _fleet(path: str) -> int:
    """Render the straggler/imbalance attribution of a fleet report."""
    import json

    from ..obs.explain import fleet_attribution
    from ..viz.explain import render_fleet_attribution

    with open(path) as handle:
        report = json.load(handle)
    # Accept a fleet_report dict (live or archived), a repro.explain/1
    # report (fleet section), or raw per-device ledgers.
    if isinstance(report.get("fleet"), dict):
        attribution = report["fleet"]
    elif isinstance(report.get("attribution"), dict) and (
        "straggler_index" in report["attribution"]
    ):
        attribution = report["attribution"]
    else:
        attribution = fleet_attribution(report)
    print(render_fleet_attribution(attribution))
    return 0
