"""Sequential baseline PROCLUS (Aggarwal et al. 1999, as in the paper).

The modeled baseline recomputes the full medoid-to-point distance
matrix and the per-dimension averages ``X`` from scratch every
iteration: the ``O(n*k*d)`` steps the FAST strategies target, and what
the cost model charges.  The host executor reuses what cannot have
changed.  A distance row depends only on its medoid's point id, so it
copies the rows of the medoids that the previous call of the same fit
also had, and :meth:`~repro.core.base.EngineBase._full_sphere_x`
reuses that call's sphere sums the same way.  Every reused value has
the bits of a fresh build.
"""

from __future__ import annotations

import numpy as np

from .base import EngineBase

__all__ = ["ProclusEngine"]


class ProclusEngine(EngineBase):
    """The unmodified PROCLUS algorithm on a single CPU core.

    Charged for all ``k`` distance rows and spheres every iteration;
    the host builds only the rows of medoids, at any slot, that the
    previous call did not have.
    """

    backend_name = "proclus"

    def _compute_l_and_x(
        self, mcur: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        medoid_ids = self._medoid_ids[mcur]
        built = {}
        if self._last_rows is not None:
            ids, rows = self._last_rows
            built = dict(zip(ids.tolist(), rows))
        dist = np.empty((len(mcur), len(self._data)), dtype=np.float32)
        for row, point_id in zip(dist, medoid_ids.tolist()):
            if point_id in built:
                row[...] = built[point_id]
            else:
                row[...] = self._distance_row(self._data[point_id])
        self._last_rows = (medoid_ids, dist)
        # The model recomputes every row, every iteration: the
        # baseline's main cost.
        self._account_distance_rows(len(mcur), *self._data.shape)
        return self._full_sphere_x(dist, medoid_ids)
