"""FAST-PROCLUS: reuse distances and partial sums across iterations.

Implements the paper's Section 3 strategies:

* ``Dist`` — the ``(B*k, n)`` distance matrix holding each potential
  medoid's distances to all points, computed the *first* time a medoid
  enters ``MCur`` (``DistFound`` flags) and reused forever after;
* ``H`` — the ``(B*k, d)`` per-dimension distance sums over each
  medoid's sphere ``L_i``, updated incrementally from the sphere
  *change* ``DeltaL_i`` between usages (Theorems 3.1 and 3.2) instead
  of recomputed from the full sphere.

Thanks to the exact accumulation in :mod:`repro.core.distance`, the
incrementally maintained ``X = H / |L|`` matches the baseline's bit for
bit, so FAST-PROCLUS provably returns the baseline's clustering.
"""

from __future__ import annotations

import numpy as np

from .base import EngineBase
from .state import MedoidCache

__all__ = ["FastProclusEngine"]


class FastProclusEngine(EngineBase):
    """PROCLUS with the Dist/DistFound cache and incremental ``H``."""

    backend_name = "fast-proclus"

    def _setup(self, data: np.ndarray) -> None:
        n, d = data.shape
        if self.shared_state is not None:
            # Multi-parameter studies share one cache across settings.
            self._cache = self.shared_state.cache
        else:
            self._cache = MedoidCache.create(
                self.params.effective_num_potential(n), n, d
            )

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

        # Distances: only rows never computed before (DistFound check).
        missing = mcur[~cache.dist_found[mcur]]
        for mi in missing:
            point = data[self._medoid_ids[mi]]
            cache.dist[mi] = self._distance_row(point)
        self._account_distance_rows(len(missing), n, d)
        cache.dist_found[missing] = True

        # delta_i from the cached rows.
        dist = cache.dist[mcur]
        medoid_dist = dist[:, medoid_ids]
        np.fill_diagonal(medoid_dist, np.inf)
        delta = medoid_dist.min(axis=1)
        self._account_delta(k)

        # Sphere changes of all k medoids in one broadcast: a growing
        # radius adds the points in (previous, current] (lambda = +1),
        # a shrinking one removes those in (current, previous].
        previous = cache.prev_delta[mcur]
        grows = delta >= previous
        low = np.where(grows, previous, delta)[:, None]
        high = np.where(grows, delta, previous)[:, None]
        masks = dist > low
        masks &= dist <= high
        counts = np.count_nonzero(masks, axis=1)
        lam = np.where(grows, 1, -1)
        for i in np.flatnonzero(counts):
            point = data[medoid_ids[i]]
            cache.h[mcur[i]] += lam[i] * self._dim_sums(masks[i], point)
        cache.size_l[mcur] += lam * counts
        cache.prev_delta[mcur] = delta
        sizes = cache.size_l[mcur]
        x = cache.h[mcur] / sizes[:, None]
        total_changed = int(counts.sum())
        self._account_scan_l(n, k, total_changed)
        self._account_x_sums(total_changed, d, k)
        self._account_x_finalize(k, d)
        return x, sizes
