"""``repro explain``: attribution — where the modeled seconds went."""

from __future__ import annotations

import argparse
import sys

from ..core.api import BACKENDS
from ._common import (
    add_run_arguments,
    build_fleet,
    load_data,
    params_from,
    print_problems,
    write_json,
)


def init_subparser(subparsers) -> None:
    parser = subparsers.add_parser(
        "explain",
        help="performance attribution: where the modeled seconds went",
    )
    add_run_arguments(parser)
    parser.add_argument("--backend", choices=sorted(BACKENDS),
                        default="gpu-fast")
    parser.add_argument("--devices", type=int, default=2,
                        help="(fleet backends) modeled device count")
    parser.add_argument("--mixed", action="store_true",
                        help="(fleet backends) mixed 1660Ti/3090 fleet")
    parser.add_argument("--top", type=int, default=10, metavar="N",
                        help="kernels/movers to show (default 10)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the repro.explain/1 report "
                             "('-' = stdout)")
    parser.add_argument("--flamegraph", metavar="PATH",
                        help="write a collapsed-stack flamegraph "
                             "(flamegraph.pl / inferno compatible)")
    parser.add_argument("--speedscope", metavar="PATH",
                        help="write a speedscope.app JSON profile")
    parser.add_argument("--workload", metavar="NAME",
                        help="attribute a quick-tier workload over its "
                             "baseline seeds instead of one ad-hoc run "
                             "(--json output is diffable vs the committed "
                             "baseline)")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        help="differential attribution between two runs: "
                             "repro.explain/1 reports or baseline records")
    parser.set_defaults(run=run)


def run(args: argparse.Namespace) -> int:
    if args.diff:
        return _diff(args)
    if args.workload:
        return _workload(args)

    import json

    from ..fleet import FleetModel, fleet_report
    from ..obs import Tracer, use_run
    from ..obs.explain import (
        attribute_run,
        attribution_record,
        collapsed_stacks,
        explain_report,
        format_collapsed,
        speedscope_profile,
        validate_explain_report,
    )
    from ..viz.explain import render_attribution, render_fleet_attribution

    data, _ = load_data(args)
    engine_kwargs = {}
    if args.backend.startswith("fleet-"):
        engine_kwargs["fleet"] = build_fleet(args)
    tracer = Tracer()
    with use_run(tracer=tracer):
        engine = BACKENDS[args.backend](
            params=params_from(args), seed=args.seed, **engine_kwargs
        )
        result = engine.fit(data)
    record = attribution_record(attribute_run(engine.model))
    fleet_section = None
    if isinstance(engine.model, FleetModel):
        fleet_section = fleet_report(engine.model)["attribution"]
    print(render_attribution(record, top=args.top))
    if fleet_section is not None:
        print()
        print(render_fleet_attribution(fleet_section))
    report = explain_report(
        record,
        label=args.backend,
        counters=dict(result.stats.counters),
        fleet=fleet_section,
    )
    problems = validate_explain_report(report)
    if problems:
        return print_problems("explain report failed self-validation", problems)
    if args.flamegraph:
        with open(args.flamegraph, "w") as handle:
            handle.write(format_collapsed(collapsed_stacks(tracer)))
        print(f"collapsed-stack flamegraph written to {args.flamegraph}")
    if args.speedscope:
        with open(args.speedscope, "w") as handle:
            json.dump(speedscope_profile(tracer, name=args.backend), handle)
        print(f"speedscope profile written to {args.speedscope} "
              f"(open at https://www.speedscope.app)")
    if args.json:
        write_json(report, args.json, "explain report", sort_keys=True)
    return 0


def _diff(args: argparse.Namespace) -> int:
    """Differential attribution between two saved runs."""
    from ..obs.explain import diff_attribution, diff_counters, load_comparable
    from ..obs.export import report_envelope
    from ..viz.explain import render_diff

    a, b = (load_comparable(path) for path in args.diff)
    diff = None
    if a["attribution"] is not None and b["attribution"] is not None:
        diff = diff_attribution(a["attribution"], b["attribution"])
    counters = diff_counters(a["counters"], b["counters"])
    print(f"differential attribution: {a['label']} -> {b['label']}")
    if diff is not None:
        print(render_diff(diff, top=args.top))
    if counters:
        print("counter movers:")
        for row in counters[: args.top]:
            print(f"  {row['name']}: {row['baseline']:g} -> "
                  f"{row['fresh']:g} ({row['delta']:+g})")
    else:
        print("no counter deltas")
    if args.json:
        payload = {
            **report_envelope("repro.explain_diff/1"),
            "a": a["label"],
            "b": b["label"],
            "zero": bool((diff is None or diff["zero"]) and not counters),
            "diff": diff,
            "counters": counters,
        }
        write_json(payload, args.json, "diff report", sort_keys=True)
    return 0


def _workload(args: argparse.Namespace) -> int:
    """Attribute a quick-tier workload over its baseline seeds."""
    from ..bench.baseline import QUICK_TIER, run_workload

    workloads = {w.name: w for w in QUICK_TIER}
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; available: "
              f"{', '.join(sorted(workloads))}", file=sys.stderr)
        return 2
    record = run_workload(workloads[args.workload])
    summary = record["attribution"]
    print(f"{args.workload}: {summary['total_seconds'] * 1e3:.3f} ms "
          f"modeled over seeds {record['seeds']}")
    for name, seconds in sorted(
        summary["components"].items(), key=lambda i: -i[1]
    ):
        share = seconds / summary["total_seconds"] if summary["total_seconds"] else 0.0
        print(f"  {name:<8} {seconds * 1e3:>9.3f} ms  {share * 100:5.1f}%")
    top_kernels = sorted(
        summary["kernels"].items(), key=lambda i: -i[1]
    )[: args.top]
    print("top kernels:")
    for name, seconds in top_kernels:
        print(f"  {name:<28} {seconds * 1e3:>9.3f} ms")
    if args.json:
        write_json(record, args.json, "workload record (diffable vs baseline)",
                   sort_keys=True)
    return 0
