"""``repro info``: list backends, datasets, hardware models."""

from __future__ import annotations

import argparse


def init_subparser(subparsers) -> None:
    parser = subparsers.add_parser(
        "info", help="list backends, datasets, hardware"
    )
    parser.set_defaults(run=run)


def run(args: argparse.Namespace) -> int:
    from ..bench.runner import ALL_EXPERIMENTS
    from ..core.api import BACKENDS
    from ..data import REAL_WORLD_SIZES, dataset_names
    from ..hardware.specs import (
        GTX_1660_TI,
        INTEL_I7_9750H,
        INTEL_I9_10940X,
        RTX_3090,
    )

    print("backends:")
    for name in sorted(BACKENDS):
        print(f"  {name:22s} -> {BACKENDS[name].__name__}")
    print("\nreal-world stand-in datasets:")
    for name in dataset_names():
        n, d = REAL_WORLD_SIZES[name]
        print(f"  {name:12s} {n:>9,} x {d}")
    print("\nmodeled hardware:")
    for spec in (INTEL_I7_9750H, INTEL_I9_10940X):
        print(f"  {spec.name:26s} {spec.cores} cores @ {spec.clock_hz/1e9:.1f} GHz")
    for spec in (GTX_1660_TI, RTX_3090):
        print(f"  {spec.name:26s} {spec.core_count} cores, "
              f"{spec.memory_bytes // 1024**3} GiB, "
              f"{spec.mem_bandwidth_bytes_per_s / 1e9:.0f} GB/s")
    print("\nexperiments (repro bench <id>):")
    print("  " + ", ".join(sorted(ALL_EXPERIMENTS)))
    return 0
