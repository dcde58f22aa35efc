"""Hardware specifications and analytical cost models.

The paper measures wall-clock time on two CPU/GPU workstations.  This
reproduction runs on a plain CPU, so every algorithm variant *counts*
the work it performs (arithmetic, memory traffic, atomics, kernel
launches) and the models in this package translate those counts into
modeled seconds on the paper's hardware.  See ``DESIGN.md`` for why
this substitution preserves the paper's claims.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "specs": (
        "CpuSpec",
        "GpuSpec",
        "GTX_1660_TI",
        "RTX_3090",
        "INTEL_I7_9750H",
        "INTEL_I9_10940X",
        "gpu_for_problem",
        "cpu_for_problem",
    ),
    "counters": ("WorkCounter", "KernelLaunch"),
    "cost_model": (
        "HardwareModel",
        "ScalarCpuModel",
        "MulticoreCpuModel",
        "GpuModel",
    ),
    "calibration": ("Anchor", "CalibrationResult", "solve_rates"),
})
