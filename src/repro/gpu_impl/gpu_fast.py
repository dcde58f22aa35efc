"""GPU-FAST-PROCLUS: FAST-PROCLUS's caches on the GPU (Section 4.2)."""

from __future__ import annotations

import math

import numpy as np

from ..core.fast import FastProclusEngine
from .accounting import GpuEngineMixin

__all__ = ["GpuFastProclusEngine"]


class GpuFastProclusEngine(GpuEngineMixin, FastProclusEngine):
    """FAST-PROCLUS executed as kernels on the simulated GPU.

    Keeps the full ``(B*k, n)`` distance matrix and the ``(B*k, d)``
    sums ``H`` in device memory — the space/time trade-off that makes
    this the fastest but most memory-hungry variant (it is the one that
    exhausts the 6 GB card at ~8M points in Fig. 3e).  The ``DistFound``
    flag is set in a separate kernel after the distance kernel finishes,
    as the paper describes (no cross-block synchronization).

    With ``dist_chunks > 1`` only a ``ceil(m / dist_chunks)``-row window
    of ``Dist`` stays resident; older rows are evicted FIFO (their
    ``DistFound`` flag cleared) and recomputed on their next use.
    Recomputed rows are bit-identical, so chunking changes the modeled
    time and footprint but never the clustering — which is what lets the
    degradation ladder use it to recover from device OOM.  The small
    ``H`` state (``(m, d)``, the incremental sums) always stays
    resident; only the dominant ``(m, n)`` matrix is windowed.
    """

    backend_name = "gpu-fast-proclus"

    @classmethod
    def _cache_arrays(cls, n, d, k, m, dist_chunks):
        return [
            ("Dist", (math.ceil(m / dist_chunks), n), np.float32),
            ("H", (m, d), np.float32),
            ("prev_delta", (m,), np.float32),
            ("L_size_cache", (m,), np.int32),
            ("DistFound", (m,), np.bool_),
        ]

    def _setup(self, data: np.ndarray) -> None:
        super()._setup(data)
        self._dist_window_rows = math.ceil(self._m_rows() / self.dist_chunks)
        # FIFO of resident Dist rows; a shared (study) cache may arrive
        # pre-warmed, so seed the queue with whatever is already found.
        self._dist_resident = [int(i) for i in np.flatnonzero(self._cache.dist_found)]

    def _compute_l_and_x(
        self, mcur: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        x, sizes = super()._compute_l_and_x(mcur)
        if self.dist_chunks > 1:
            self._evict_dist_rows(mcur)
        return x, sizes

    def _evict_dist_rows(self, mcur: np.ndarray) -> None:
        """Shrink the resident Dist window back to its capacity (FIFO)."""
        cache = self._cache
        resident = self._dist_resident
        known = set(resident)
        for mi in mcur:
            mi = int(mi)
            if mi not in known and cache.dist_found[mi]:
                resident.append(mi)
                known.add(mi)
        evicted = 0
        while len(resident) > self._dist_window_rows:
            cache.dist_found[resident.pop(0)] = False
            evicted += 1
        if evicted and self.model is not None:
            self.model.counter.add("cache.dist_rows_evicted", evicted)
