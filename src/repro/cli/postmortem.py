"""``repro postmortem``: analyze/replay a flight-recorder crash bundle."""

from __future__ import annotations

import argparse

from ._common import write_json


def init_subparser(subparsers) -> None:
    parser = subparsers.add_parser(
        "postmortem",
        help="analyze (and optionally replay) a postmortem bundle",
    )
    parser.add_argument(
        "bundle",
        help="bundle file, or a directory holding postmortem-*.json "
             "(newest wins)",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="write the forensic analysis as JSON ('-' = stdout)",
    )
    parser.add_argument(
        "--replay", action="store_true",
        help="deterministically re-execute the recorded job from the "
             "bundle alone and check it reproduces the recorded failure "
             "(exit 1 when it does not)",
    )
    parser.set_defaults(run=run)


def run(args: argparse.Namespace) -> int:
    from ..obs.postmortem import analyze_bundle, load_bundle, replay_bundle
    from ..viz import render_postmortem

    bundle = load_bundle(args.bundle)
    analysis = analyze_bundle(bundle)
    replay_report = None
    if args.replay:
        replay_report = replay_bundle(bundle)
        analysis["replay"] = replay_report
    print(render_postmortem(bundle, analysis))
    if replay_report is not None:
        print()
        if replay_report["reproduced"]:
            if replay_report["expected_error_type"]:
                print(f"replay REPRODUCED the failure: "
                      f"{replay_report['observed_error_type']} with a "
                      f"bit-identical resilience event log")
            else:
                print(f"replay REPRODUCED the recorded solo bits: digest "
                      f"{replay_report['observed_digest'][:12]} matches "
                      f"the reference")
        else:
            print(f"replay DID NOT reproduce the recorded failure: "
                  f"{replay_report['detail']}")
    if args.json:
        write_json(analysis, args.json, "analysis")
    if replay_report is not None and not replay_report["reproduced"]:
        return 1
    return 0
