"""``repro cluster``: run one clustering (synthetic or named data)."""

from __future__ import annotations

import argparse

from ..core.api import BACKENDS
from ._common import add_run_arguments, load_data, params_from


def init_subparser(subparsers) -> None:
    parser = subparsers.add_parser("cluster", help="run one PROCLUS clustering")
    add_run_arguments(parser)
    parser.add_argument("--backend", choices=sorted(BACKENDS), default="gpu-fast")
    parser.add_argument("--save-labels", metavar="PATH",
                        help="write the label array as .npy")
    parser.add_argument("--counters", action="store_true",
                        help="print the raw work counters")
    parser.set_defaults(run=run)


def run(args: argparse.Namespace) -> int:
    import numpy as np

    from ..core.api import proclus
    from ..eval.metrics import adjusted_rand_index, subspace_recovery
    from ..result import counters_as_table

    data, dataset = load_data(args)
    result = proclus(
        data, backend=args.backend, params=params_from(args), seed=args.seed
    )
    print(result.summary())
    print()
    print(f"modeled time: {result.stats.modeled_seconds * 1e3:.3f} ms "
          f"on {result.stats.hardware}")
    if args.counters:
        print("\nwork counters:")
        print(counters_as_table(result.stats.counters))
    if dataset.labels is not None and (dataset.labels >= 0).any():
        print(f"ARI vs ground truth: "
              f"{adjusted_rand_index(dataset.labels, result.labels):.3f}")
        if dataset.subspaces:
            print(f"subspace recovery:   "
                  f"{subspace_recovery(dataset.subspaces, dataset.labels, result.dimensions, result.labels):.3f}")
    if args.save_labels:
        np.save(args.save_labels, result.labels)
        print(f"labels written to {args.save_labels}")
    return 0
