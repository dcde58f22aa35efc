"""Multi-core CPU variants (the paper's OpenMP implementations)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "multicore": (
        "MulticoreProclusEngine",
        "MulticoreFastProclusEngine",
        "MulticoreFastStarProclusEngine",
    ),
})
