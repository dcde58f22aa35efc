"""``repro profile``: nvprof-style kernel profile of a GPU run."""

from __future__ import annotations

import argparse

from ..core.api import BACKENDS
from ._common import add_run_arguments, load_data, params_from, write_json


def init_subparser(subparsers) -> None:
    parser = subparsers.add_parser(
        "profile", help="nvprof-style kernel profile of one GPU run"
    )
    add_run_arguments(parser)
    parser.add_argument(
        "--backend",
        choices=sorted(b for b in BACKENDS if b.startswith("gpu")),
        default="gpu-fast",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="write the profile as JSON instead of the table ('-' = stdout)",
    )
    parser.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="show only the N most expensive kernels "
             "(the rest fold into one row)",
    )
    parser.set_defaults(run=run)


def run(args: argparse.Namespace) -> int:
    from ..gpu.profiler import (
        format_kernel_profile,
        kernel_profile_records,
        profile_kernels,
    )

    data, _ = load_data(args)
    engine = BACKENDS[args.backend](params=params_from(args), seed=args.seed)
    result = engine.fit(data)
    profiles = profile_kernels(engine.model)
    if args.json:
        payload = {
            "schema": "repro.kernel_profile/1",
            "backend": args.backend,
            "hardware": result.stats.hardware,
            "modeled_seconds": result.stats.modeled_seconds,
            "kernels": kernel_profile_records(profiles),
        }
        write_json(payload, args.json, "profile")
        return 0
    print(format_kernel_profile(profiles, top=args.top))
    print(f"\nmodeled total: {result.stats.modeled_seconds * 1e3:.3f} ms "
          f"on {result.stats.hardware}")
    return 0
