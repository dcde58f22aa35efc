"""GPU-PROCLUS: the paper's straight GPU parallelization of PROCLUS."""

from __future__ import annotations

import numpy as np

from ..core.proclus import ProclusEngine
from .accounting import GpuEngineMixin

__all__ = ["GpuProclusEngine"]


class GpuProclusEngine(GpuEngineMixin, ProclusEngine):
    """PROCLUS executed as kernels on the simulated GPU.

    Performs exactly the baseline's computation (and returns the
    identical clustering) but on the device: all arrays live in device
    memory, every phase runs as the kernel launches of Algorithms 2-6,
    and running time is the roofline model's per-launch cost.
    """

    backend_name = "gpu-proclus"

    @classmethod
    def _cache_arrays(cls, n, d, k, m, dist_chunks):
        # Distances of the k current medoids only (recomputed each
        # iteration — no cache).
        return [("Dist", (k, n), np.float32)]
