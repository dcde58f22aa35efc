"""FAST*-PROCLUS: the space-reduced adaptation (Section 3.2).

Keeps the cached distance rows, radii, and ``H`` sums only for the ``k``
*current medoid slots* instead of all ``B*k`` potential medoids —
``O(k*n)`` space instead of ``O(B*k*n)`` — at the cost of recomputing a
slot's state whenever its medoid changes (a bad-medoid replacement, or
reverting to ``MBest`` after an unsuccessful iteration).  Since few
medoids are replaced per iteration, most cached rows survive, which is
why the paper measures only a 1.05-1.1x slowdown versus FAST.
"""

from __future__ import annotations

import numpy as np

from .base import EngineBase
from .state import MedoidCache

__all__ = ["FastStarProclusEngine"]


class FastStarProclusEngine(EngineBase):
    """PROCLUS with per-slot (``O(k*n)``) distance and ``H`` caches."""

    backend_name = "fast*-proclus"

    def _setup(self, data: np.ndarray) -> None:
        n, d = data.shape
        self._cache = MedoidCache.create(self.params.k, n, d)
        # Which medoid (point id) each slot's cached row belongs to.
        self._slot_ids = np.full(self.params.k, -1, dtype=np.int64)

    def _modeled_peak_bytes(self) -> int:
        n, d = self._data.shape
        return n * d * 4 + self._cache.nbytes() + n * 4 + self.params.k * d * 8

    def _compute_l_and_x(
        self, mcur: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        data = self._data
        n, d = data.shape
        k = len(mcur)
        cache = self._cache
        medoid_ids = self._medoid_ids[mcur]

        # Recompute the slots whose medoid changed since last iteration
        # (the paper's "i in MBad" — plus reverts to MBest after
        # unsuccessful iterations, which replace slot contents too).
        recomputed = 0
        for i in range(k):
            point_id = medoid_ids[i]
            if self._slot_ids[i] != point_id:
                cache.reset_row(i)
                cache.dist[i] = self._distance_row(data[point_id])
                cache.dist_found[i] = True
                self._slot_ids[i] = point_id
                recomputed += 1
        self._account_distance_rows(recomputed, n, d)

        medoid_dist = cache.dist[:, medoid_ids]
        np.fill_diagonal(medoid_dist, np.inf)
        delta = medoid_dist.min(axis=1)
        self._account_delta(k)

        # Sphere changes of all k slots in one broadcast (see
        # FastProclusEngine._compute_l_and_x).
        previous = cache.prev_delta
        grows = delta >= previous
        low = np.where(grows, previous, delta)[:, None]
        high = np.where(grows, delta, previous)[:, None]
        masks = cache.dist > low
        masks &= cache.dist <= high
        counts = np.count_nonzero(masks, axis=1)
        lam = np.where(grows, 1, -1)
        for i in np.flatnonzero(counts):
            point = data[medoid_ids[i]]
            cache.h[i] += lam[i] * self._dim_sums(masks[i], point)
        cache.size_l += lam * counts
        cache.prev_delta[:] = delta
        sizes = cache.size_l.copy()
        x = cache.h / sizes[:, None]
        total_changed = int(counts.sum())
        self._account_scan_l(n, k, total_changed)
        self._account_x_sums(total_changed, d, k)
        self._account_x_finalize(k, d)
        return x, sizes
