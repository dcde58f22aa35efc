"""``repro fleet``: one clustering sharded across modeled devices."""

from __future__ import annotations

import argparse
import sys

from ._common import (
    add_run_arguments,
    build_fleet,
    load_data,
    params_from,
    write_json,
)


def init_subparser(subparsers) -> None:
    parser = subparsers.add_parser(
        "fleet",
        help="run one clustering sharded across a fleet of modeled devices",
    )
    add_run_arguments(parser)
    parser.add_argument(
        "--backend",
        choices=["fleet-gpu", "fleet-gpu-fast", "fleet-gpu-fast-star"],
        default="fleet-gpu-fast",
    )
    parser.add_argument("--devices", type=int, default=2,
                        help="number of modeled devices (default 2)")
    parser.add_argument("--mixed", action="store_true",
                        help="use a heterogeneous GTX 1660 Ti + RTX 3090 mix "
                             "instead of identical cards")
    parser.add_argument("--check", action="store_true",
                        help="also run the solo backend and verify the "
                             "clustering is bit-identical (exit 1 if not)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the per-device fleet report as JSON")
    parser.set_defaults(run=run)


def run(args: argparse.Namespace) -> int:
    from ..core.api import BACKENDS, proclus
    from ..fleet import fleet_report
    from ..result import bit_identical
    from ..viz.ascii import fleet_utilization_chart

    data, _ = load_data(args)
    engine = BACKENDS[args.backend](
        params=params_from(args), seed=args.seed, fleet=build_fleet(args)
    )
    result = engine.fit(data)
    report = fleet_report(engine.model)
    print(result.summary())
    print()
    print(fleet_utilization_chart(report))
    if args.check:
        solo_backend = args.backend.removeprefix("fleet-")
        solo = proclus(
            data, backend=solo_backend, params=params_from(args),
            seed=args.seed,
        )
        print()
        if not bit_identical(result, solo):
            print(f"bit-identical to solo {solo_backend}: NO",
                  file=sys.stderr)
            return 1
        print(f"bit-identical to solo {solo_backend}: yes")
    if args.json:
        write_json(report, args.json, "fleet report", sort_keys=True)
    return 0
