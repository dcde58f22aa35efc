"""Ablation variants isolating FAST-PROCLUS's two strategies.

Section 3 combines two independent ideas:

1. **Dist caching** — compute each potential medoid's distance row once
   (``Dist`` + ``DistFound``) and reuse it across iterations;
2. **incremental H** — maintain the per-dimension sums over ``L_i``
   through the sphere *changes* ``DeltaL`` (Theorems 3.1/3.2) instead of
   recomputing them from the full sphere.

The paper evaluates them only jointly (as FAST-PROCLUS).  These engines
apply exactly one strategy each, so the ablation benchmark can
attribute the measured speedup to its source.  Both still produce the
identical clustering (they draw the same random decisions and the exact
accumulation makes all summation orders equal).

Both are :class:`~repro.core.fast.FastProclusEngine` subclasses on its
shared cache: dist-only fills the missing rows and takes the baseline's
full-sphere ``X``; H-only keeps ``H`` per potential medoid but no
``Dist``, recomputing the ``k`` current rows every iteration into a
``k``-row scratch and updating ``H`` over them.
"""

from __future__ import annotations

import numpy as np

from .fast import FastProclusEngine
from .state import MedoidCache

__all__ = ["FastDistOnlyEngine", "FastHOnlyEngine"]


class FastDistOnlyEngine(FastProclusEngine):
    """Strategy 1 only: cached distance rows, full X recomputation."""

    backend_name = "fast-dist-only"

    def _modeled_peak_bytes(self) -> int:
        n, d = self._data.shape
        return n * d * 4 + self._cache.dist.nbytes + n * 4 + self.params.k * d * 8

    def _compute_l_and_x(
        self, mcur: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        missing = mcur[~self._cache.dist_found[mcur]]
        self._fill_rows(missing, self._medoid_ids[missing])
        # X recomputed from the full sphere every iteration (no H).
        return self._full_sphere_x(self._cache.dist[mcur], self._medoid_ids[mcur])


class FastHOnlyEngine(FastProclusEngine):
    """Strategy 2 only: incremental H, distances recomputed each iteration."""

    backend_name = "fast-h-only"

    def _modeled_peak_bytes(self) -> int:
        n, d = self._data.shape
        k = self.params.k
        m = self._cache.m
        # Only k distance rows are live at a time (no cache), plus H.
        return n * d * 4 + k * n * 4 + m * d * 8 + n * 4

    def _setup(self, data: np.ndarray) -> None:
        n, d = data.shape
        if self.shared_state is not None:
            self._cache = self.shared_state.cache
        else:
            # H, prev_delta and |L| per potential medoid, but no Dist.
            self._cache = MedoidCache.create(
                self.params.effective_num_potential(n), n, d, with_dist=False
            )
        #: The current medoids' distance rows, in ``MCur`` order.
        self._dist = np.empty((self.params.k, n), dtype=np.float32)

    def _compute_l_and_x(
        self, mcur: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        # Distances recomputed from scratch for all current medoids;
        # H and |L| stay per potential medoid so DeltaL can be derived.
        medoid_ids = self._medoid_ids[mcur]
        for i, point_id in enumerate(medoid_ids):
            self._dist[i] = self._distance_row(self._data[point_id])
        self._account_distance_rows(len(mcur), *self._data.shape)
        return self._update_h(mcur, medoid_ids, self._dist)
