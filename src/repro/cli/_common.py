"""Decisions more than one subcommand makes, each written once.

Data and algorithm-parameter arguments, the ``--json PATH|-`` report
writer, fleet construction from ``--devices/--mixed``, and the retry
policy, fault injector and flight recorder built from flags.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..data import (
    dataset_names,
    generate_subspace_data,
    load_dataset,
    minmax_normalize,
)
from ..hardware.specs import GTX_1660_TI, RTX_3090
from ..params import ParameterGrid, ProclusParams

#: --gpu choice -> modeled card.
GPU_SPECS = {"gtx1660ti": GTX_1660_TI, "rtx3090": RTX_3090}


def add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """The data and algorithm-parameter groups of a clustering run."""
    group = parser.add_argument_group("data")
    group.add_argument("--dataset", choices=dataset_names(),
                       help="use a real-world stand-in instead of synthetic data")
    group.add_argument("--n", type=int, default=20_000,
                       help="synthetic dataset size (default 20000)")
    group.add_argument("--d", type=int, default=15,
                       help="synthetic dimensionality (default 15)")
    group.add_argument("--clusters", type=int, default=10,
                       help="planted clusters (default 10)")
    group.add_argument("--subspace-dims", type=int, default=5,
                       help="planted subspace size (default 5)")
    group.add_argument("--std", type=float, default=5.0,
                       help="planted cluster std (default 5.0)")
    group.add_argument("--data-seed", type=int, default=0,
                       help="seed for data generation (default 0)")
    group = parser.add_argument_group("algorithm parameters")
    group.add_argument("--k", type=int, default=10)
    group.add_argument("--l", type=int, default=5)
    group.add_argument("--a", type=int, default=100, help="sample constant A")
    group.add_argument("--b", type=int, default=10, help="medoid constant B")
    group.add_argument("--min-deviation", type=float, default=0.7)
    group.add_argument("--patience", type=int, default=5, help="itrPat")
    group.add_argument("--seed", type=int, default=0, help="algorithm seed")


def load_data(args: argparse.Namespace):
    """(normalized data, dataset) named by the data arguments."""
    if args.dataset:
        dataset = load_dataset(args.dataset, seed=args.data_seed)
    else:
        dataset = generate_subspace_data(
            n=args.n, d=args.d, n_clusters=args.clusters,
            subspace_dims=args.subspace_dims, std=args.std,
            seed=args.data_seed,
        )
    return minmax_normalize(dataset.data), dataset


def params_from(args: argparse.Namespace, k: int | None = None) -> ProclusParams:
    return ProclusParams(
        k=k if k is not None else args.k,
        l=args.l,
        a=args.a, b=args.b,
        min_deviation=args.min_deviation,
        patience=args.patience,
    )


def grid_from(args: argparse.Namespace) -> ParameterGrid:
    """The (k, l) study grid of ``--ks/--ls`` over the parameter flags."""
    return ParameterGrid(
        ks=tuple(args.ks), ls=tuple(args.ls),
        base=params_from(args, k=max(args.ks)),
    )


def write_json(payload, path: str, what: str, *,
               sort_keys: bool = False) -> None:
    """Write a ``--json`` report to ``path``, or to stdout for ``-``."""
    if path == "-":
        json.dump(payload, sys.stdout, indent=2, sort_keys=sort_keys)
        print()
        return
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=sort_keys)
    print(f"{what} written to {path}")


def build_fleet(args: argparse.Namespace):
    """The fleet named by ``--devices`` (and ``--mixed``, when offered)."""
    from ..fleet import default_fleet, mixed_fleet

    if getattr(args, "mixed", False):
        large = args.devices // 2
        return mixed_fleet(small=args.devices - large, large=large)
    return default_fleet(args.devices)


def retry_policy(args: argparse.Namespace):
    """The RetryPolicy named by the resilience flags; None when unset."""
    no_degrade = getattr(args, "no_degrade", False)
    max_reshards = getattr(args, "max_reshards", None)
    if not no_degrade and args.max_retries is None and max_reshards is None:
        return None
    from ..resilience import RetryPolicy

    return RetryPolicy(
        max_retries=3 if args.max_retries is None else args.max_retries,
        allow_degraded=not no_degrade,
        max_reshards=max_reshards,
    )


def fault_injector(specs, seed: int):
    """A FaultInjector over the ``--fault`` specs; None when there are none."""
    if not specs:
        return None
    from ..resilience import FaultInjector

    return FaultInjector(tuple(specs), seed=seed)


def flight_recorder(directory: str | None, capacity: int = 256):
    """A FlightRecorder dumping bundles to ``directory``; None without one."""
    if not directory:
        return None
    from ..obs import FlightRecorder

    return FlightRecorder(capacity=capacity, bundle_dir=directory)


def print_problems(header: str, problems: list[str]) -> int:
    """Report a failed self-validation on stderr; returns exit code 1."""
    print(f"\n{header} ({len(problems)} problems):", file=sys.stderr)
    for problem in problems[:20]:
        print(f"  {problem}", file=sys.stderr)
    return 1
