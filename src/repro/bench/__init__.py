"""Benchmark harness regenerating the paper's figures and tables.

Each function in :mod:`repro.bench.figures` reproduces one experiment of
the paper's Section 5 and returns an :class:`ExperimentReport` whose
rendered table places the measured (modeled) numbers next to the
paper's reported values.  The ``benchmarks/`` directory wraps each
function in a pytest-benchmark target.

Scale control: by default the sweeps run scaled-down sizes so the whole
suite finishes in minutes on a laptop; set ``REPRO_BENCH_SCALE=paper``
to sweep the paper's full dataset sizes (hours, needs tens of GB RAM).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "reporting": ("ExperimentReport",),
    "workloads": ("bench_scale", "default_n", "repeats"),
    "baseline": (
        "QuickWorkload",
        "QUICK_TIER",
        "run_quick_tier",
        "write_baselines",
        "load_baselines",
    ),
    "regress": ("run_regression_check",),
})
