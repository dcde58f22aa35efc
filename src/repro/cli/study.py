"""``repro study``: run a (k, l) parameter study."""

from __future__ import annotations

import argparse

from ..core.api import BACKENDS
from ._common import add_run_arguments, grid_from, load_data


def init_subparser(subparsers) -> None:
    parser = subparsers.add_parser("study", help="run a (k, l) parameter study")
    add_run_arguments(parser)
    parser.add_argument("--ks", type=int, nargs="+", default=[12, 10, 8])
    parser.add_argument("--ls", type=int, nargs="+", default=[7, 5, 3])
    parser.add_argument("--level", type=int, choices=[0, 1, 2, 3], default=3,
                        help="multi-param reuse level (default 3)")
    parser.add_argument("--backend", choices=sorted(BACKENDS), default="gpu-fast")
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="persist each completed (k, l) setting here so a killed "
             "study can be resumed",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint-dir, skipping completed settings "
             "(final output is identical to an uninterrupted study)",
    )
    parser.add_argument(
        "--resilient", action="store_true",
        help="recover from device faults by retrying and degrading "
             "along the backend ladder",
    )
    parser.set_defaults(run=run)


def run(args: argparse.Namespace) -> int:
    from ..core.api import run_parameter_study

    data, _ = load_data(args)
    extra = {}
    if args.checkpoint_dir:
        extra["checkpoint_dir"] = args.checkpoint_dir
    if args.resume:
        extra["resume"] = True
    if args.resilient:
        extra["resilience"] = True
    study = run_parameter_study(
        data, grid=grid_from(args), backend=args.backend, level=args.level,
        seed=args.seed, **extra,
    )
    print(f"{args.backend} multi-param level {args.level}: "
          f"{study.num_settings} settings")
    print(f"{'k':>4} {'l':>4} {'cost':>12} {'iterations':>11}")
    for (k, l), result in sorted(study.results.items()):
        print(f"{k:>4} {l:>4} {result.cost:>12.6f} {result.iterations:>11}")
    best_k, best_l = study.best_setting()
    print(f"\nbest: k={best_k}, l={best_l}")
    print(f"avg modeled time per setting: "
          f"{study.average_seconds_per_setting * 1e3:.3f} ms")
    if study.events:
        print(f"resilience events: {len(study.events)}")
        for event in study.events:
            line = f"  {event.kind:10s} {event.rung}"
            if event.to_rung:
                line += f" -> {event.to_rung}"
            if event.error_type:
                line += f" ({event.error_type})"
            print(line)
    if args.checkpoint_dir:
        print(f"checkpoints in {args.checkpoint_dir}")
    return 0
