"""``repro validate``: cross-variant clustering equivalence check."""

from __future__ import annotations

import argparse


def init_subparser(subparsers) -> None:
    parser = subparsers.add_parser(
        "validate", help="check cross-variant clustering equivalence"
    )
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--d", type=int, default=10)
    parser.add_argument("--runs", type=int, default=3,
                        help="seeds to check (default 3)")
    parser.set_defaults(run=run)


def run(args: argparse.Namespace) -> int:
    from ..eval.validation import validate_equivalence

    report = validate_equivalence(
        n=args.n, d=args.d, seeds=tuple(range(args.runs))
    )
    print(report.render())
    return 0 if report.passed else 1
