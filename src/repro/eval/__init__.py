"""Evaluation utilities: clustering quality metrics and timing harness.

The paper's evaluation is purely about running time ("The important
measure in this work is ... not the accuracy but solely the running
time") because all variants produce the same clustering; this package
provides both the timing harness used by the benchmarks and standard
external quality metrics (ARI, NMI, purity, subspace recovery) so the
examples can demonstrate that the clusterings are also *good*.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "metrics": (
        "adjusted_rand_index",
        "confusion_matrix",
        "normalized_mutual_information",
        "purity",
        "subspace_recovery",
    ),
    "timing": ("TimingResult", "time_backend", "time_parameter_study"),
    "validation": ("ValidationReport", "validate_equivalence"),
})
