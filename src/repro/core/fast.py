"""FAST-PROCLUS: reuse distances and partial sums across iterations.

Implements the paper's Section 3 strategies:

* ``Dist`` — the ``(B*k, n)`` distance matrix holding each potential
  medoid's distances to all points, computed the *first* time a medoid
  enters ``MCur`` (``DistFound`` flags) and reused forever after;
* ``H`` — the ``(B*k, d)`` per-dimension distance sums over each
  medoid's sphere ``L_i``, updated incrementally from the sphere
  *change* ``DeltaL_i`` between usages (Theorems 3.1 and 3.2) instead
  of recomputed from the full sphere.

Each strategy is one method of :class:`FastProclusEngine`:
:meth:`~FastProclusEngine._fill_rows` computes the cache rows it is
given, and :meth:`~FastProclusEngine._update_h` moves ``H`` and ``|L|``
of the cache rows it is given to the current spheres.  FAST fills the
rows missing from ``Dist`` and updates the current medoids' rows;
FAST* (:mod:`repro.core.fast_star`) and the ablations
(:mod:`repro.core.ablation`) are subclasses that pass other rows, or
take the baseline's full-sphere ``X`` instead of ``H``.

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
        # Distances: only rows never computed before (DistFound check).
        missing = mcur[~self._cache.dist_found[mcur]]
        self._fill_rows(missing, self._medoid_ids[missing])
        return self._update_h(
            mcur, self._medoid_ids[mcur], self._cache.dist[mcur]
        )

    def _fill_rows(self, rows: np.ndarray, point_ids: np.ndarray) -> None:
        """Compute the ``Dist`` rows ``rows``: distances to ``point_ids``."""
        cache = self._cache
        for row, point_id in zip(rows, point_ids):
            cache.dist[row] = self._distance_row(self._data[point_id])
        self._account_distance_rows(len(rows), *self._data.shape)
        cache.dist_found[rows] = True

    def _update_h(
        self, rows: np.ndarray, medoid_ids: np.ndarray, dist: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``X = H / |L|`` of the cache ``rows`` after moving each row's
        ``H`` and ``|L|`` to its current sphere (Theorem 3.2).

        ``rows`` hold the current medoids' cached state and ``dist``
        their distance rows, in the order of their point ids
        ``medoid_ids``.
        """
        cache = self._cache
        delta = self._delta(dist, medoid_ids)
        # Sphere changes of all k rows in one broadcast: a growing
        # radius adds the points in (previous, current] (lambda = +1),
        # a shrinking one removes those in (current, previous].
        previous = cache.prev_delta[rows]
        grows = delta >= previous
        low = np.where(grows, previous, delta)[:, None]
        high = np.where(grows, delta, previous)[:, None]
        masks = dist > low
        masks &= dist <= high
        counts = np.count_nonzero(masks, axis=1)
        lam = np.where(grows, 1, -1)
        for i in np.flatnonzero(counts):
            point = self._data[medoid_ids[i]]
            cache.h[rows[i]] += lam[i] * self._dim_sums(masks[i], point)
        cache.size_l[rows] += lam * counts
        cache.prev_delta[rows] = delta
        sizes = cache.size_l[rows]
        x = cache.h[rows] / sizes[:, None]
        self._account_l_and_x(int(counts.sum()))
        return x, sizes
