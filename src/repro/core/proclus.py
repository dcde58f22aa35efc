"""Sequential baseline PROCLUS (Aggarwal et al. 1999, as in the paper).

Every iteration recomputes the full medoid-to-point distance matrix and
the per-dimension averages ``X`` from scratch — the ``O(n*k*d)`` steps
the FAST strategies target.
"""

from __future__ import annotations

import numpy as np

from .base import EngineBase

__all__ = ["ProclusEngine"]


class ProclusEngine(EngineBase):
    """The unmodified PROCLUS algorithm on a single CPU core."""

    backend_name = "proclus"

    def _compute_l_and_x(
        self, mcur: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        data = self._data
        n, d = data.shape
        k = len(mcur)
        medoid_ids = self._medoid_ids[mcur]
        medoid_points = data[medoid_ids]

        # Distances from every current medoid to every point (recomputed
        # from scratch every iteration — the baseline's main cost).
        dist = np.empty((k, n), dtype=np.float32)
        for i in range(k):
            dist[i] = self._distance_row(medoid_points[i])
        self._account_distance_rows(k, n, d)

        # delta_i: distance to the nearest other medoid.
        medoid_dist = dist[:, medoid_ids].astype(np.float32)
        np.fill_diagonal(medoid_dist, np.inf)
        delta = medoid_dist.min(axis=1)
        self._account_delta(k)

        masks = dist <= delta[:, None]
        sizes = np.count_nonzero(masks, axis=1)
        x = np.empty((k, d), dtype=np.float64)
        for i in range(k):
            x[i] = self._dim_sums(masks[i], medoid_points[i]) / sizes[i]
        total_in_l = int(sizes.sum())
        self._account_scan_l(n, k, total_in_l)
        self._account_x_sums(total_in_l, d, k)
        self._account_x_finalize(k, d)
        return x, sizes
