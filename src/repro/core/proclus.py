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
        medoid_ids = self._medoid_ids[mcur]
        # Distances from every current medoid to every point (recomputed
        # from scratch every iteration — the baseline's main cost).
        dist = np.stack([self._distance_row(self._data[i]) for i in medoid_ids])
        self._account_distance_rows(len(mcur), *self._data.shape)
        return self._full_sphere_x(dist, medoid_ids)
