"""GPU versions of the ablation engines (strategy 1 / strategy 2 only)."""

from __future__ import annotations

import numpy as np

from ..core.ablation import FastDistOnlyEngine, FastHOnlyEngine
from .accounting import GpuEngineMixin

__all__ = ["GpuFastDistOnlyEngine", "GpuFastHOnlyEngine"]


class GpuFastDistOnlyEngine(GpuEngineMixin, FastDistOnlyEngine):
    """GPU variant caching only the distance rows (no H)."""

    backend_name = "gpu-fast-dist-only"

    @classmethod
    def _cache_arrays(cls, n, d, k, m, dist_chunks):
        return [("Dist", (m, n), np.float32), ("DistFound", (m,), np.bool_)]


class GpuFastHOnlyEngine(GpuEngineMixin, FastHOnlyEngine):
    """GPU variant maintaining only the incremental H (no Dist cache)."""

    backend_name = "gpu-fast-h-only"

    @classmethod
    def _cache_arrays(cls, n, d, k, m, dist_chunks):
        return [
            ("Dist", (k, n), np.float32),
            ("H", (m, d), np.float32),
            ("prev_delta", (m,), np.float32),
            ("L_size_cache", (m,), np.int32),
        ]
