"""Faithful SIMT implementations of the paper's CUDA kernels.

Each module implements one of the paper's Algorithms 2-6 (plus
RemoveOutliers) as kernels for the cooperative emulator in
:mod:`repro.gpu.emulator`: explicit thread blocks, shared memory,
atomics and barrier synchronization, following the pseudocode line by
line.  They are intentionally slow — their job is to validate, on small
inputs, that the vectorized phase implementations used by the engines
compute exactly what the GPU kernels would.

Deterministic tie-breaking: where the paper's kernels resolve ties by
racing writes (``if maxDist = Dist_p then M_i <- p``), these kernels
resolve toward the lowest index with an atomic min, so their output is
schedule-independent and matches the vectorized implementation bit for
bit.
"""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "greedy": ("greedy_select_emulated",),
    "compute_l": ("compute_l_emulated", "pad_sets"),
    "find_dimensions": ("find_dimensions_emulated",),
    "assign_points": ("assign_points_emulated", "pad_dims"),
    "evaluate": ("evaluate_clusters_emulated",),
    "outliers": ("find_outliers_emulated",),
    "fast_compute_l": ("fast_compute_l_emulated",),
})
