"""FAST*-PROCLUS: the space-reduced adaptation (Section 3.2).

Keeps the cached distance rows, radii, and ``H`` sums only for the ``k``
*current medoid slots* instead of all ``B*k`` potential medoids —
``O(k*n)`` space instead of ``O(B*k*n)`` — at the cost of recomputing a
slot's state whenever its medoid changes (a bad-medoid replacement, or
reverting to ``MBest`` after an unsuccessful iteration).  Since few
medoids are replaced per iteration, most cached rows survive, which is
why the paper measures only a 1.05-1.1x slowdown versus FAST.

Both FAST strategies apply unchanged to the slot rows, so the engine is
a :class:`~repro.core.fast.FastProclusEngine` that allocates ``k`` rows
and hands it the changed slots to fill and all ``k`` slots to update.
"""

from __future__ import annotations

import numpy as np

from .fast import FastProclusEngine
from .state import MedoidCache

__all__ = ["FastStarProclusEngine"]


class FastStarProclusEngine(FastProclusEngine):
    """PROCLUS with per-slot (``O(k*n)``) distance and ``H`` caches."""

    backend_name = "fast*-proclus"

    def _setup(self, data: np.ndarray) -> None:
        # Slot rows are private to one run: a study's shared cache, keyed
        # by position in M, does not apply.
        n, d = data.shape
        self._cache = MedoidCache.create(self.params.k, n, d)
        # Which medoid (point id) each slot's cached row belongs to.
        self._slot_ids = np.full(self.params.k, -1, dtype=np.int64)

    def _compute_l_and_x(
        self, mcur: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        medoid_ids = self._medoid_ids[mcur]
        # Recompute the slots whose medoid changed since last iteration
        # (the paper's "i in MBad" — plus reverts to MBest after
        # unsuccessful iterations, which replace slot contents too).
        changed = np.flatnonzero(self._slot_ids != medoid_ids)
        for slot in changed:
            self._cache.reset_row(slot)
        self._slot_ids[changed] = medoid_ids[changed]
        self._fill_rows(changed, medoid_ids[changed])
        return self._update_h(
            np.arange(len(mcur)), medoid_ids, self._cache.dist
        )
