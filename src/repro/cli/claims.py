"""``repro claims``: check every quantitative claim of the paper."""

from __future__ import annotations

import argparse


def init_subparser(subparsers) -> None:
    parser = subparsers.add_parser(
        "claims", help="check every quantitative claim of the paper"
    )
    parser.set_defaults(run=run)


def run(args: argparse.Namespace) -> int:
    from ..bench.claims import check_all, format_results

    results = check_all()
    print(format_results(results))
    return 0 if all(r.passed for r in results) else 1
