"""GPU-FAST*-PROCLUS: the space-reduced GPU variant (Sections 3.2, 4.2)."""

from __future__ import annotations

import numpy as np

from ..core.fast_star import FastStarProclusEngine
from .accounting import GpuEngineMixin

__all__ = ["GpuFastStarProclusEngine"]


class GpuFastStarProclusEngine(GpuEngineMixin, FastStarProclusEngine):
    """FAST*-PROCLUS executed as kernels on the simulated GPU.

    Device footprint is ``O(k*n)`` like GPU-PROCLUS (only the current
    slots' distance rows and ``H`` sums are cached), which Fig. 3f shows
    as roughly half of GPU-FAST-PROCLUS's usage, at a ~1.05-1.1x
    running-time cost (Fig. 1).
    """

    backend_name = "gpu-fast*-proclus"

    @classmethod
    def _cache_arrays(cls, n, d, k, m, dist_chunks):
        return [
            ("Dist", (k, n), np.float32),
            ("H", (k, d), np.float32),
            ("prev_delta", (k,), np.float32),
            ("L_size_cache", (k,), np.int32),
            ("slot_medoid", (k,), np.int64),
        ]
