"""``repro sanitize``: cuda-memcheck-style sweep of the emulated kernels."""

from __future__ import annotations

import argparse

from ..gpu_impl.sanitize import KERNELS
from ._common import write_json


def init_subparser(subparsers) -> None:
    parser = subparsers.add_parser(
        "sanitize",
        help="run every emulated kernel under the memory/race sanitizer",
    )
    parser.add_argument(
        "--all-kernels", action="store_true",
        help="sweep all kernels (the default when no --kernel is given)",
    )
    parser.add_argument(
        "--kernel", action="append", metavar="NAME", choices=sorted(KERNELS),
        help=f"sweep only this kernel (repeatable); one of {', '.join(KERNELS)}",
    )
    parser.add_argument(
        "--schedules", type=int, default=2,
        help="schedule orders per geometry: in-order + N-1 shuffles (default 2)",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="input-generation seed (default 0)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the structured report as JSON")
    parser.set_defaults(run=run)


def run(args: argparse.Namespace) -> int:
    from ..gpu_impl.sanitize import run_sweep

    kernels = None if args.all_kernels or not args.kernel else args.kernel
    seeds: tuple[int | None, ...] = (None, *range(1, args.schedules))
    report = run_sweep(kernels=kernels, schedule_seeds=seeds, seed=args.seed)
    print(report.render())
    if args.json:
        write_json(report.to_dict(), args.json, "report")
    return 0 if report.ok else 1
