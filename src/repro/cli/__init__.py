"""Command-line interface.

Examples::

    python -m repro cluster --n 20000 --k 10 --l 5 --backend gpu-fast
    python -m repro cluster --dataset pendigits --k 8 --l 5 --counters
    python -m repro study --n 30000 --level 3
    python -m repro study --checkpoint-dir ckpt/           # kill-safe study
    python -m repro study --checkpoint-dir ckpt/ --resume  # pick it back up
    python -m repro chaos --backends gpu-fast --json chaos_events.json
    python -m repro bench fig2ab --plot --csv out/fig2ab.csv
    python -m repro bench all --out results/
    python -m repro submit spool/ --k 8 --l 4 --n 5000 && python -m repro serve spool/
    python -m repro loadgen --requests 24 --json BENCH_serve.json
    python -m repro fleet --devices 4 --check         # 4-way shard, verify vs solo
    python -m repro bench fleet --json BENCH_fleet.json  # multi-device scaling curve
    python -m repro bench quick --save-baseline       # refresh the committed baseline
    python -m repro regress --json BENCH_regress.json # gate: exit 1 on regression
    python -m repro monitor monitor/ --once --json -  # one-shot SLO health report
    python -m repro explain --backend gpu-fast --json report.json --flamegraph fg.txt
    python -m repro explain --diff old_report.json report.json  # what moved, and why
    python -m repro monitor --fleet BENCH_fleet_report.json     # straggler analysis
    python -m repro serve spool/ --fault device-down@dev1 --record-dir pm/
    python -m repro postmortem pm/ --replay   # re-execute the crash from the bundle

Set ``REPRO_FLIGHT_RECORDER=<dir>`` to run any subcommand under a
flight recorder that dumps postmortem bundles there.

Errors are reported as a one-line ``repro: error: ...`` message with
exit code 2 (interruption exits 130); pass ``--strict`` before the
subcommand to get the full traceback instead.

Each subcommand is one module here with ``init_subparser(subparsers)``
and ``run(args) -> int``, registered in :data:`COMMANDS`; flags and
decisions shared by several subcommands live in ``_common``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from ..exceptions import ReproError
from ..obs.tracer import use_run
from . import (bench, chaos, claims, cluster, explain, fleet, info, loadgen,
               monitor, postmortem, profile, regress, sanitize, serve, study,
               submit, trace, validate)
from ._common import flight_recorder

__all__ = ["COMMANDS", "build_parser", "main"]

#: Subcommand name -> module, in ``repro --help`` order (``python -m
#: repro <name>``).
COMMANDS = {
    "cluster": cluster,        # run one clustering (synthetic or named data)
    "study": study,            # run a (k, l) parameter study
    "bench": bench,            # regenerate paper experiments ('all' for every one)
    "fleet": fleet,            # one clustering sharded across modeled devices
    "regress": regress,        # quick bench tier vs committed baseline (CI gate)
    "monitor": monitor,        # SLO health dashboard over a monitor directory
    "profile": profile,        # nvprof-style kernel profile of a GPU run
    "explain": explain,        # attribution: where the modeled seconds went
    "trace": trace,            # traced run: Perfetto JSON + telemetry + timeline
    "sanitize": sanitize,      # cuda-memcheck-style sweep of the emulated kernels
    "chaos": chaos,            # fault-injection sweep: fault classes x backends
    "claims": claims,          # check every quantitative claim of the paper
    "validate": validate,      # cross-variant clustering equivalence check
    "serve": serve,            # process a spool of clustering requests
    "submit": submit,          # drop one request into a spool directory
    "loadgen": loadgen,        # replay a seeded request mix -> BENCH_serve.json
    "postmortem": postmortem,  # analyze/replay a flight-recorder crash bundle
    "info": info,              # list backends, datasets, hardware models
}


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GPU-FAST-PROCLUS reproduction (EDBT 2022)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="re-raise errors with a full traceback instead of the "
             "one-line message (place before the subcommand)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS.values():
        command.init_subparser(subparsers)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Expected failures — bad input files, invalid parameter combos,
    exhausted recovery — exit with code 2 and a one-line actionable
    message; ``--strict`` re-raises them instead.  An interrupted run
    exits 130 (the conventional SIGINT code).
    """
    args = build_parser().parse_args(argv)
    # Always-on failure capture for any subcommand: the command runs
    # with a recorder whose bundles land in $REPRO_FLIGHT_RECORDER.
    recorder = flight_recorder(os.environ.get("REPRO_FLIGHT_RECORDER"))
    try:
        with use_run() if recorder is None else use_run(recorder=recorder):
            return args.run(args)
    except KeyboardInterrupt:
        print("repro: interrupted", file=sys.stderr)
        return 130
    except (ReproError, OSError) as error:
        if args.strict:
            raise
        print(f"repro: error: {error}", file=sys.stderr)
        print("repro: re-run with --strict for the full traceback",
              file=sys.stderr)
        return 2
