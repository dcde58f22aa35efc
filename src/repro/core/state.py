"""Reusable cache state for the FAST strategies.

FAST-PROCLUS keeps, for every potential medoid (indexed by ``MIdx``):

* its full distance row ``Dist`` to all points (computed once,
  ``DistFound`` flags which rows exist),
* the per-dimension distance sums ``H`` over its sphere ``L_i``
  (Eq. 5, updated incrementally via Theorem 3.2),
* the sphere radius ``delta`` and size ``|L_i|`` at its previous usage.

The same object is shared across parameter settings by the
multi-parameter strategies (Section 3.1): as long as the potential
medoid set ``M`` is unchanged, every cached row stays valid.

FAST*-PROCLUS allocates the same structure but with only ``k`` rows —
one per *current* medoid slot — trading reuse for an ``O(k*n)`` instead
of ``O(B*k*n)`` footprint (Section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["MedoidCache", "SharedStudyState", "IterativeState"]

#: Sentinel for "medoid never used": any real radius is >= 0, so the
#: first usage takes the "sphere grew" branch and adds the whole L_i.
NEVER_USED_DELTA = -1.0


@dataclass(slots=True)
class MedoidCache:
    """Per-potential-medoid cached distances and partial sums."""

    dist: np.ndarray  #: (m, n) float32 distance rows
    dist_found: np.ndarray  #: (m,) bool — which rows are valid
    h: np.ndarray  #: (m, d) float64 per-dimension sums over L_i
    prev_delta: np.ndarray  #: (m,) float32 radius at previous usage
    size_l: np.ndarray  #: (m,) int64 |L_i| at previous usage

    @classmethod
    def create(
        cls, m: int, n: int, d: int, with_dist: bool = True
    ) -> "MedoidCache":
        """Allocate an empty cache for ``m`` potential medoids.

        ``with_dist=False`` leaves ``dist`` without rows: the H-only
        ablation recomputes the current medoids' rows every iteration.
        """
        return cls(
            dist=np.zeros((m if with_dist else 0, n), dtype=np.float32),
            dist_found=np.zeros(m, dtype=bool),
            h=np.zeros((m, d), dtype=np.float64),
            prev_delta=np.full(m, NEVER_USED_DELTA, dtype=np.float32),
            size_l=np.zeros(m, dtype=np.int64),
        )

    @property
    def m(self) -> int:
        return len(self.dist_found)

    def reset_row(self, row: int) -> None:
        """Invalidate one cached medoid row (FAST* slot reuse)."""
        self.dist_found[row] = False
        self.h[row].fill(0.0)
        self.prev_delta[row] = NEVER_USED_DELTA
        self.size_l[row] = 0

    def nbytes(self) -> int:
        """Host memory held by the cache (working-set accounting)."""
        return (
            self.dist.nbytes
            + self.dist_found.nbytes
            + self.h.nbytes
            + self.prev_delta.nbytes
            + self.size_l.nbytes
        )


@dataclass(slots=True)
class SharedStudyState:
    """State shared across the settings of a multi-parameter study.

    Holds the sample ``Data'``, the greedily picked potential medoids
    ``M`` (chosen once, for the largest ``k`` in the study), and the
    FAST cache keyed by position in ``M``.
    """

    sample_indices: np.ndarray  #: (A*k_max,) point ids of Data'
    medoid_ids: np.ndarray  #: (B*k_max,) point ids of M
    cache: MedoidCache
    #: Whether a GPU engine already uploaded the dataset in this study
    #: (the data stays resident on the device across settings).
    data_uploaded: bool = False

    @property
    def num_potential_medoids(self) -> int:
        return len(self.medoid_ids)


@dataclass(slots=True)
class IterativeState:
    """Mid-run snapshot of the iterative phase (engine checkpoint).

    Captures everything the loop needs to continue exactly where it
    stopped: the potential medoids ``M``, the current and best medoid
    positions, the best labels/sizes/cost, the loop counters, and the
    RNG state (including the spawn counter).  ``mcur`` is the *next*
    iteration's medoid set — a checkpoint is taken after the
    bad-medoid replacement, so resuming re-enters the loop at the top.

    The FAST ``Dist``/``H`` caches are deliberately **not** captured: a
    fresh cache provably recomputes identical ``X`` values (the FAST
    correctness theorem), which keeps checkpoints small and
    backend-agnostic — a GPU run's checkpoint resumes on the CPU
    engine, and vice versa, with a bit-identical final clustering.
    """

    n: int  #: dataset rows the snapshot belongs to
    d: int  #: dataset columns
    k: int  #: number of clusters of the interrupted run
    l: int  #: average subspace dimensionality
    backend: str  #: backend that wrote the snapshot (informational)
    medoid_ids: np.ndarray  #: (m,) point ids of the potential medoids M
    mcur: np.ndarray  #: (k,) next iteration's positions into M
    mbest: np.ndarray  #: (k,) best-so-far positions into M
    cost_best: float  #: best clustering cost so far
    labels_best: np.ndarray  #: (n,) labels of the best iteration
    sizes_best: np.ndarray  #: (k,) cluster sizes of the best iteration
    best_iteration: int  #: 0-based index of the best iteration
    stale: int  #: iterations since the last improvement
    total: int  #: iterations completed
    rng_state: dict[str, Any]  #: :meth:`repro.rng.RandomSource.get_state`
