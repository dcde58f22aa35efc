"""``repro submit``: drop one request into a spool directory."""

from __future__ import annotations

import argparse
import inspect
import sys

from ..core.api import BACKENDS
from ..data.synthetic import generate_subspace_data
from ..exceptions import ParameterError
from ..params import ProclusParams
from ._common import add_run_arguments


def init_subparser(subparsers) -> None:
    parser = subparsers.add_parser(
        "submit", help="drop one clustering request into a spool directory"
    )
    parser.add_argument("spool", help="spool directory (created if missing)")
    add_run_arguments(parser)
    parser.add_argument("--backend", choices=sorted(BACKENDS),
                        default="gpu-fast")
    parser.add_argument("--npy", metavar="PATH",
                        help="cluster this saved array instead of "
                             "synthetic data")
    parser.add_argument("--id", help="request id (default: generated)")
    parser.add_argument("--priority", type=int, default=1,
                        help="queue priority, lower runs first (default 1)")
    parser.add_argument("--wait", type=float, metavar="SECONDS",
                        help="poll for the response this long and print it")
    parser.set_defaults(run=run)


def _dropped_flags(args: argparse.Namespace) -> list[str]:
    """The run flags set to a value the served job will not use.

    A spool request carries only ``k``, ``l``, ``seed``, the backend,
    the priority, and the dataset's ``n``/``d``/``clusters``/seed (or
    an ``.npy`` path, and then none of those four): the served job runs
    the other parameters at their defaults on data made with the
    generator's own subspace size and spread.
    """
    served = ProclusParams()
    generator = inspect.signature(generate_subspace_data).parameters
    given = [
        ("--a", args.a, served.a),
        ("--b", args.b, served.b),
        ("--min-deviation", args.min_deviation, served.min_deviation),
        ("--patience", args.patience, served.patience),
        ("--subspace-dims", args.subspace_dims,
         generator["subspace_dims"].default),
        ("--std", args.std, generator["std"].default),
        ("--dataset", args.dataset, None),
    ]
    if args.npy:
        # The synthetic-data flags, against their parser defaults.
        defaults = argparse.ArgumentParser()
        add_run_arguments(defaults)
        given += [
            (f"--{dest.replace('_', '-')}", getattr(args, dest),
             defaults.get_default(dest))
            for dest in ("n", "d", "clusters", "data_seed")
        ]
    return [flag for flag, value, used in given if value != used]


def run(args: argparse.Namespace) -> int:
    import time

    from ..serve import read_response, write_request

    dropped = _dropped_flags(args)
    if dropped:
        raise ParameterError(
            f"{', '.join(dropped)} would not reach the served job: a "
            f"spool request carries only --k, --l, --seed, --backend, "
            f"--priority and the --n/--d/--clusters/--data-seed or --npy "
            f"dataset"
        )
    if args.id:
        request_id = args.id
    else:
        request_id = f"req-{int(time.time() * 1e3):x}"
    dataset: dict = {}
    if args.npy:
        dataset["npy"] = args.npy
    else:
        dataset["synthetic"] = {
            "n": args.n, "d": args.d, "clusters": args.clusters,
            "seed": args.data_seed,
        }
    path = write_request(
        args.spool, request_id,
        backend=args.backend, k=args.k, l=args.l,
        seed=args.seed, priority=args.priority, **dataset,
    )
    print(f"request {request_id} written to {path}")
    if not args.wait:
        return 0
    deadline = time.monotonic() + args.wait
    while time.monotonic() < deadline:
        response = read_response(args.spool, request_id)
        if response is not None:
            if not response.get("ok"):
                print(f"request failed: {response.get('error')}",
                      file=sys.stderr)
                return 1
            print(f"cost={response['cost']:.6f} "
                  f"refined={response['refined_cost']:.6f} "
                  f"iterations={response['iterations']} "
                  f"outliers={response['n_outliers']}")
            print(f"medoids: {response['medoids']}")
            print(f"labels sha256: {response['labels_sha256']}")
            if response.get("cached"):
                print("(served from the result cache)")
            if response.get("coalesced"):
                print("(coalesced with concurrent requests)")
            return 0
        time.sleep(0.2)
    print(f"no response within {args.wait:.0f}s "
          f"(is `repro serve {args.spool}` running?)", file=sys.stderr)
    return 1
