"""``repro regress``: quick bench tier vs committed baseline (CI gate)."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..bench.baseline import DEFAULT_BASELINE_DIR
from ._common import write_json

#: ``repro regress --inject`` choice -> backend remap simulating the
#: named lost optimization (the gate's negative control).
REGRESS_INJECTIONS: dict[str, dict[str, str]] = {
    # Lose the FAST Dist cache: FAST variants keep only the
    # incremental-H strategy (or nothing, for the star variant which
    # has no published H-only ablation).
    "no-dist-cache": {
        "gpu-fast": "gpu-fast-h-only",
        "gpu-fast-star": "gpu",
        "fast": "fast-h-only",
    },
}


def init_subparser(subparsers) -> None:
    parser = subparsers.add_parser(
        "regress",
        help="run the quick bench tier against the committed baseline "
             "(exit 0 ok / 1 regression / 2 invalid baseline)",
    )
    parser.add_argument("--baseline-dir", metavar="DIR",
                        default=DEFAULT_BASELINE_DIR,
                        help=f"baseline store to compare against "
                             f"(default {DEFAULT_BASELINE_DIR})")
    parser.add_argument("--rel-threshold", type=float, default=0.005,
                        help="mean relative modeled-seconds slowdown "
                             "required to flag (default 0.005)")
    parser.add_argument("--alpha", type=float, default=0.05,
                        help="sign-test significance level (default 0.05)")
    parser.add_argument("--inject", choices=sorted(REGRESS_INJECTIONS),
                        help="deliberately slow the fresh run (negative "
                             "control; must exit 1 against a good baseline)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the verdict as JSON ('-' = stdout)")
    parser.set_defaults(run=run)


def run(args: argparse.Namespace) -> int:
    from ..bench.baseline import load_baselines, run_quick_tier
    from ..bench.regress import run_regression_check

    store = Path(args.baseline_dir).resolve()
    baselines = load_baselines(store)
    backend_map = REGRESS_INJECTIONS[args.inject] if args.inject else None
    fresh = []  # an empty store fails the gate without running the tier
    if baselines:
        if args.inject:
            print(f"injecting slowdown {args.inject!r}: "
                  + ", ".join(f"{a}->{b}" for a, b in backend_map.items()))
        fresh = run_quick_tier(backend_map=backend_map, progress=print)
    verdict = run_regression_check(
        baselines, fresh,
        rel_threshold=args.rel_threshold, alpha=args.alpha,
    )
    print()
    for workload in verdict["workloads"]:
        modeled = workload["modeled"]
        if modeled is None:
            print(f"{workload['name']:<20} INVALID")
            continue
        status = "ok" if workload["ok"] else "REGRESSION"
        print(f"{workload['name']:<20} modeled "
              f"{modeled['mean_rel_delta'] * 100:+.2f}% "
              f"({modeled['slower']} slower / {modeled['faster']} faster / "
              f"{modeled['ties']} ties, p={modeled['p_slower']:.4f})  "
              f"{status}")
        for regression in workload["regressions"]:
            print(f"  {regression}")
    for issue in verdict["invalid"]:
        print(f"invalid baseline: {issue}", file=sys.stderr)
    print()
    if verdict["exit_code"] == 0:
        print("no regression against the committed baseline")
    elif verdict["exit_code"] == 1:
        print(f"REGRESSION in: {', '.join(verdict['regressed'])}",
              file=sys.stderr)
        for line in verdict.get("triage", []):
            print(f"  triage: {line}", file=sys.stderr)
    else:
        print(f"baseline store {store} is unusable — regenerate it with "
              "'repro bench quick --save-baseline'", file=sys.stderr)
    if args.json:
        write_json(verdict, args.json, "verdict")
    return verdict["exit_code"]
