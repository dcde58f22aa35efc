"""Result types returned by PROCLUS runs.

A :class:`ProclusResult` captures the clustering itself (labels,
medoids, per-cluster subspaces, outliers, cost) while a
:class:`RunStats` captures how much *work* the run performed — operation
counters plus the modeled running times on the calibrated hardware
models.  Both are returned by every algorithm variant so that
benchmarks can compare variants on identical footing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - hints only
    from .core.trace import RunTrace

__all__ = ["ProclusResult", "RunStats", "OUTLIER_LABEL", "bit_identical"]

#: Label used for points classified as outliers in the refinement phase.
OUTLIER_LABEL = -1


@dataclass(slots=True)
class RunStats:
    """Work and timing statistics for one PROCLUS run.

    Attributes
    ----------
    counters:
        Raw operation counters (scalar flops, bytes moved, atomic
        operations, kernel launches, ...), keyed by counter name.
    phase_seconds:
        Modeled seconds per algorithm phase on the run's hardware model.
    modeled_seconds:
        Total modeled running time on the run's hardware model.
    wall_seconds:
        Actual wall-clock time of the Python run (host-side, for
        information only; the reproduction compares modeled times).
    peak_device_bytes:
        Peak simulated device-memory footprint (GPU variants) or peak
        auxiliary working-set estimate (CPU variants).
    iterations:
        Number of iterations the iterative phase executed.
    backend:
        Human-readable name of the algorithm variant that produced the
        stats (e.g. ``"gpu-fast-proclus"``).
    hardware:
        Name of the hardware model used for the time modeling.
    """

    counters: dict[str, float] = field(default_factory=dict)
    phase_seconds: dict[str, float] = field(default_factory=dict)
    modeled_seconds: float = 0.0
    wall_seconds: float = 0.0
    peak_device_bytes: int = 0
    iterations: int = 0
    backend: str = ""
    hardware: str = ""

    def merge(self, other: "RunStats") -> "RunStats":
        """Return a new :class:`RunStats` aggregating ``self`` and ``other``.

        Used by the multi-parameter driver to aggregate per-setting
        stats into a total.
        """
        merged = RunStats(
            backend=self.backend or other.backend,
            hardware=self.hardware or other.hardware,
        )
        for key, value in list(self.counters.items()) + list(other.counters.items()):
            merged.counters[key] = merged.counters.get(key, 0.0) + value
        for key, value in list(self.phase_seconds.items()) + list(
            other.phase_seconds.items()
        ):
            merged.phase_seconds[key] = merged.phase_seconds.get(key, 0.0) + value
        merged.modeled_seconds = self.modeled_seconds + other.modeled_seconds
        merged.wall_seconds = self.wall_seconds + other.wall_seconds
        merged.peak_device_bytes = max(self.peak_device_bytes, other.peak_device_bytes)
        merged.iterations = self.iterations + other.iterations
        return merged


@dataclass(slots=True)
class ProclusResult:
    """A projected clustering produced by any PROCLUS variant.

    Attributes
    ----------
    labels:
        Integer array of shape ``(n,)``.  ``labels[p]`` is the cluster
        index of point ``p`` in ``0..k-1`` or :data:`OUTLIER_LABEL` for
        outliers removed in the refinement phase.
    medoids:
        Integer array of shape ``(k,)`` with the indices (into the
        dataset) of the best medoids found.
    dimensions:
        Tuple of ``k`` sorted tuples; ``dimensions[i]`` is the subspace
        ``D_i`` assigned to cluster ``i``.
    cost:
        The best (lowest) weighted clustering cost found during the
        iterative phase (Eq. 2 of the paper).
    refined_cost:
        Cost of the refined clustering (after the refinement phase,
        outliers excluded), for information.
    iterations:
        Total number of iterations of the iterative phase.
    best_iteration:
        Iteration index (0-based) at which the best cost was found.
    stats:
        Work/timing statistics for this run.
    trace:
        Per-iteration :class:`~repro.core.trace.RunTrace` when the
        engine was constructed with ``collect_trace=True``; ``None``
        otherwise.  Persisted alongside the clustering by
        :func:`~repro.core.serialization.save_result`.
    """

    labels: np.ndarray
    medoids: np.ndarray
    dimensions: tuple[tuple[int, ...], ...]
    cost: float
    refined_cost: float
    iterations: int
    best_iteration: int
    stats: RunStats
    trace: "RunTrace | None" = None

    @property
    def k(self) -> int:
        """Number of clusters."""
        return len(self.medoids)

    @property
    def n_outliers(self) -> int:
        """Number of points labeled as outliers."""
        return int(np.count_nonzero(self.labels == OUTLIER_LABEL))

    def cluster_sizes(self) -> np.ndarray:
        """Return the size of each cluster (outliers excluded)."""
        sizes = np.zeros(self.k, dtype=np.int64)
        valid = self.labels >= 0
        np.add.at(sizes, self.labels[valid], 1)
        return sizes

    def cluster_members(self, i: int) -> np.ndarray:
        """Return the point indices assigned to cluster ``i``."""
        if not 0 <= i < self.k:
            raise IndexError(f"cluster index {i} out of range [0, {self.k})")
        return np.flatnonzero(self.labels == i)

    def same_clustering(self, other: "ProclusResult") -> bool:
        """True when two results describe the identical clustering.

        Compares labels, medoids and subspaces — the quantities the
        paper asserts are identical across its algorithm variants for
        matching random decisions.
        """
        return (
            np.array_equal(self.labels, other.labels)
            and np.array_equal(self.medoids, other.medoids)
            and self.dimensions == other.dimensions
        )

    def summary(self) -> str:
        """Human-readable multi-line description of the clustering."""
        sizes = self.cluster_sizes()
        lines = [
            f"PROCLUS clustering: k={self.k}, cost={self.cost:.6f}, "
            f"outliers={self.n_outliers}, iterations={self.iterations}",
        ]
        for i in range(self.k):
            dims = ", ".join(str(j) for j in self.dimensions[i])
            lines.append(
                f"  cluster {i}: size={int(sizes[i])}, medoid={int(self.medoids[i])}, "
                f"dims=({dims})"
            )
        return "\n".join(lines)


def bit_identical(result: ProclusResult, reference: ProclusResult) -> bool:
    """True when ``result`` reproduces ``reference`` bit for bit.

    The solo bit-identity contract of sharded, recovered, served and
    replayed runs: labels, medoids, subspaces, both costs and the
    iteration trajectory must all match exactly.
    """
    return (
        np.array_equal(result.labels, reference.labels)
        and np.array_equal(result.medoids, reference.medoids)
        and result.dimensions == reference.dimensions
        and result.cost == reference.cost
        and result.refined_cost == reference.refined_cost
        and result.iterations == reference.iterations
        and result.best_iteration == reference.best_iteration
    )


def counters_as_table(counters: Mapping[str, float]) -> str:
    """Format a counter mapping as an aligned two-column table."""
    if not counters:
        return "(no counters)"
    width = max(len(name) for name in counters)
    rows = [f"{name.ljust(width)}  {value:,.0f}" for name, value in sorted(counters.items())]
    return "\n".join(rows)
