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
"""

from __future__ import annotations

import numpy as np

from .base import EngineBase
from .state import MedoidCache

__all__ = ["FastDistOnlyEngine", "FastHOnlyEngine"]


class FastDistOnlyEngine(EngineBase):
    """Strategy 1 only: cached distance rows, full X recomputation."""

    backend_name = "fast-dist-only"

    def _setup(self, data: np.ndarray) -> None:
        n, d = data.shape
        if self.shared_state is not None:
            self._cache = self.shared_state.cache
        else:
            self._cache = MedoidCache.create(
                self.params.effective_num_potential(n), n, d
            )

    def _modeled_peak_bytes(self) -> int:
        n, d = self._data.shape
        return n * d * 4 + self._cache.dist.nbytes + n * 4 + self.params.k * d * 8

    def _compute_l_and_x(
        self, mcur: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        data = self._data
        n, d = data.shape
        k = len(mcur)
        cache = self._cache
        medoid_ids = self._medoid_ids[mcur]

        missing = mcur[~cache.dist_found[mcur]]
        for mi in missing:
            cache.dist[mi] = self._distance_row(data[self._medoid_ids[mi]])
        self._account_distance_rows(len(missing), n, d)
        cache.dist_found[missing] = True

        medoid_dist = cache.dist[mcur][:, medoid_ids]
        np.fill_diagonal(medoid_dist, np.inf)
        delta = medoid_dist.min(axis=1)
        self._account_delta(k)

        # X recomputed from the full sphere every iteration (no H).
        x = np.zeros((k, d), dtype=np.float64)
        sizes = np.zeros(k, dtype=np.int64)
        total_in_l = 0
        for i, mi in enumerate(mcur):
            mask = cache.dist[mi] <= delta[i]
            count = int(np.count_nonzero(mask))
            sizes[i] = count
            total_in_l += count
            x[i] = self._dim_sums(mask, data[self._medoid_ids[mi]]) / count
        self._account_scan_l(n, k, total_in_l)
        self._account_x_sums(total_in_l, d, k)
        self._account_x_finalize(k, d)
        return x, sizes


class FastHOnlyEngine(EngineBase):
    """Strategy 2 only: incremental H, distances recomputed each iteration."""

    backend_name = "fast-h-only"

    def _setup(self, data: np.ndarray) -> None:
        n, d = data.shape
        if self.shared_state is not None:
            self._cache = self.shared_state.cache
        else:
            self._cache = MedoidCache.create(
                self.params.effective_num_potential(n), n, d
            )

    def _modeled_peak_bytes(self) -> int:
        n, d = self._data.shape
        k = self.params.k
        m = self._cache.m
        # Only k distance rows are live at a time (no cache), plus H.
        return n * d * 4 + k * n * 4 + m * d * 8 + n * 4

    def _compute_l_and_x(
        self, mcur: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        data = self._data
        n, d = data.shape
        k = len(mcur)
        cache = self._cache
        medoid_ids = self._medoid_ids[mcur]

        # Distances recomputed from scratch for all current medoids —
        # but stored per potential medoid so DeltaL can be derived.
        for mi in mcur:
            cache.dist[mi] = self._distance_row(data[self._medoid_ids[mi]])
        self._account_distance_rows(k, n, d)

        medoid_dist = cache.dist[mcur][:, medoid_ids]
        np.fill_diagonal(medoid_dist, np.inf)
        delta = medoid_dist.min(axis=1)
        self._account_delta(k)

        x = np.zeros((k, d), dtype=np.float64)
        sizes = np.zeros(k, dtype=np.int64)
        total_changed = 0
        for i, mi in enumerate(mcur):
            row = cache.dist[mi]
            previous = cache.prev_delta[mi]
            current = delta[i]
            if current >= previous:
                mask = (row > previous) & (row <= current)
                lam = 1
            else:
                mask = (row > current) & (row <= previous)
                lam = -1
            count = int(np.count_nonzero(mask))
            total_changed += count
            if count:
                point = data[self._medoid_ids[mi]]
                cache.h[mi] += lam * self._dim_sums(mask, point)
                cache.size_l[mi] += lam * count
            cache.prev_delta[mi] = current
            sizes[i] = cache.size_l[mi]
            x[i] = cache.h[mi] / cache.size_l[mi]
        self._account_scan_l(n, k, total_changed)
        self._account_x_sums(total_changed, d, k)
        self._account_x_finalize(k, d)
        return x, sizes
