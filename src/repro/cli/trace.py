"""``repro trace``: traced run — Perfetto JSON + telemetry + timeline."""

from __future__ import annotations

import argparse

from ..core.api import BACKENDS
from ._common import (
    add_run_arguments,
    grid_from,
    load_data,
    params_from,
    print_problems,
)


def init_subparser(subparsers) -> None:
    parser = subparsers.add_parser(
        "trace",
        help="run with tracing on: Perfetto trace + telemetry + ASCII timeline",
    )
    add_run_arguments(parser)
    parser.add_argument("--backend", choices=sorted(BACKENDS), default="gpu-fast")
    parser.add_argument("--out", metavar="DIR", default="trace_out",
                        help="output directory (default trace_out)")
    parser.add_argument("--label", default="",
                        help="label stamped into the exported records")
    parser.add_argument(
        "--study-level", type=int, choices=[0, 1, 2, 3], default=None,
        help="trace a multi-param study at this reuse level instead of one run",
    )
    parser.add_argument("--ks", type=int, nargs="+", default=[12, 10, 8],
                        help="(with --study-level) k values")
    parser.add_argument("--ls", type=int, nargs="+", default=[7, 5, 3],
                        help="(with --study-level) l values")
    parser.set_defaults(run=run)


def run(args: argparse.Namespace) -> int:
    from pathlib import Path

    from ..core.api import run_parameter_study
    from ..obs import (
        Tracer,
        run_record,
        study_record,
        use_run,
        validate_chrome_trace,
        write_chrome_trace,
        write_jsonl,
    )
    from ..obs.export import chrome_trace
    from ..viz import render_timeline

    data, _ = load_data(args)
    out = Path(args.out)
    tracer = Tracer()
    with use_run(tracer=tracer):
        if args.study_level is not None:
            study = run_parameter_study(
                data, grid=grid_from(args), backend=args.backend,
                level=args.study_level, seed=args.seed,
            )
            record = study_record(
                study, tracer, label=args.label, seed=args.seed
            )
        else:
            engine = BACKENDS[args.backend](
                params=params_from(args), seed=args.seed, collect_trace=True
            )
            result = engine.fit(data)
            record = run_record(
                result, tracer, label=args.label, seed=args.seed,
                n=data.shape[0], d=data.shape[1], params=engine.params,
            )

    trace = chrome_trace(tracer, label=args.label or args.backend)
    trace_path = write_chrome_trace(
        tracer, out / f"trace_{args.backend}.json", label=args.label or args.backend
    )
    telemetry_path = write_jsonl(out / "telemetry.jsonl", [record])

    print(render_timeline(tracer))
    print()
    print(f"chrome trace written to {trace_path} "
          f"(open in https://ui.perfetto.dev)")
    print(f"telemetry written to {telemetry_path}")

    problems = validate_chrome_trace(trace)
    if problems:
        return print_problems("trace failed validation", problems)
    return 0
