"""Shared phase mathematics: FindDimensions, AssignPoints, EvaluateClusters.

These functions implement the parts of PROCLUS that are *identical*
across the baseline, FAST, FAST* and GPU variants.  The variants differ
only in how they obtain the per-medoid/per-dimension average distances
``X`` (full recomputation vs. the incremental ``H`` of Theorem 3.2);
everything downstream of ``X`` is shared, which — together with the
exact accumulation in :mod:`repro.core.distance` — guarantees identical
clusterings across variants.

All discrete choices break ties deterministically (lowest index), the
convention the emulated GPU kernels follow as well.
"""

from __future__ import annotations

import numpy as np

from .distance import segmental_distances

__all__ = [
    "find_dimensions",
    "pick_dimensions",
    "assign_points",
    "evaluate_clusters",
    "compute_bad_medoids",
    "find_outliers",
    "cluster_sizes_from_labels",
]


def find_dimensions(x: np.ndarray, l: int) -> tuple[tuple[int, ...], ...]:
    """Select the projected subspaces ``D_i`` from the spread matrix ``X``.

    Implements the paper's FindDimensions: for each medoid compute the
    mean ``Y_i`` and standard deviation ``sigma_i`` of its row of ``X``,
    standardize into ``Z_{i,j} = (X_{i,j} - Y_i) / sigma_i``, then pick
    the two lowest-``Z`` dimensions per medoid and distribute the
    remaining ``k*l - 2k`` picks greedily by lowest ``Z`` overall.

    Parameters
    ----------
    x:
        ``(k, d)`` float64 matrix of average distances ``X_{i,j}``.
    l:
        Average subspace size; ``k*l`` dimensions are selected in total.

    Returns
    -------
    tuple of k sorted dimension tuples.
    """
    k, d = x.shape
    y = x.mean(axis=1)
    deviation = x - y[:, None]
    if d > 1:
        sigma = np.sqrt(np.sum(deviation**2, axis=1) / (d - 1))
    else:  # pragma: no cover - guarded by l >= 2 <= d
        sigma = np.zeros(k)
    z = np.zeros_like(deviation)
    np.divide(deviation, sigma[:, None], out=z, where=sigma[:, None] > 0)
    return pick_dimensions(z, l)


def pick_dimensions(z: np.ndarray, l: int) -> tuple[tuple[int, ...], ...]:
    """FindDimensions' pick of the subspaces ``D_i`` from ``Z``.

    The two lowest-``Z`` dimensions per medoid, then the remaining
    ``k*l - 2k`` lowest over all medoids (:func:`find_dimensions`).
    The emulated engines feed it the ``Z`` their kernel computes.
    """
    k, d = z.shape
    picked = np.zeros((k, d), dtype=bool)
    # Two lowest-Z dimensions per medoid (stable sort: ties -> lowest j).
    order = np.argsort(z, axis=1, kind="stable")
    picked[np.arange(k)[:, None], order[:, :2]] = True

    remaining = k * l - 2 * k
    if remaining > 0:
        flat_i, flat_j = np.nonzero(~picked)
        flat_z = z[flat_i, flat_j]
        # Lowest Z first; ties -> lowest medoid, then lowest dimension.
        order = np.lexsort((flat_j, flat_i, flat_z))[:remaining]
        picked[flat_i[order], flat_j[order]] = True

    selected = np.nonzero(picked)[1].tolist()
    ends = np.cumsum(np.count_nonzero(picked, axis=1)).tolist()
    return tuple(
        tuple(selected[start:end]) for start, end in zip([0] + ends, ends)
    )


def assign_points(
    data: np.ndarray,
    medoid_points: np.ndarray,
    dimensions: tuple[tuple[int, ...], ...],
    previous: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Assign each point to the medoid with the smallest Manhattan
    segmental distance within that medoid's subspace.

    Returns ``(labels, seg)`` where ``labels`` is the ``(n,)`` cluster
    assignment (ties -> lowest cluster index) and ``seg`` the ``(n, k)``
    segmental-distance matrix, which the refinement phase reuses for
    outlier detection.  ``previous``, an earlier call's
    ``(medoid_points, dimensions, seg)`` on the same ``data``, lends
    the rows of the medoids it shares (:func:`segmental_distances`).
    """
    seg = segmental_distances(data, medoid_points, dimensions, previous)
    # ``seg`` is the transpose of a (k, n) buffer: label from that.
    return _first_min_rows(seg.T), seg


def _first_min_rows(buffer: np.ndarray) -> np.ndarray:
    """Row of each column's smallest entry, the lowest row on ties.

    Equals ``np.argmin(buffer, axis=0).astype(np.int64)`` on NaN-free
    input, without the transposing copy ``argmin`` makes of a
    row-major buffer: one minimum over the rows, then a first-match
    pass from the last row up.
    """
    best = np.minimum.reduce(buffer, axis=0)
    labels = np.zeros(buffer.shape[1], dtype=np.int64)
    for row in range(buffer.shape[0] - 1, -1, -1):
        np.putmask(labels, buffer[row] == best, row)
    return labels


def cluster_sizes_from_labels(labels: np.ndarray, k: int) -> np.ndarray:
    """Size of each of the ``k`` clusters (ignores negative labels)."""
    return np.bincount(labels[labels >= 0], minlength=k).astype(
        np.int64, copy=False
    )


def evaluate_clusters(
    data: np.ndarray,
    labels: np.ndarray,
    dimensions: tuple[tuple[int, ...], ...],
) -> float:
    """Weighted clustering cost (Eq. 2): the size-weighted average
    Manhattan segmental distance of points to their cluster *centroid*
    within the cluster's subspace.

    Empty clusters contribute zero.  Points with negative labels
    (outliers, during refinement re-evaluation) are excluded from both
    the sums and the denominator's weights but ``|Data|`` stays the full
    dataset size, matching Eq. 2.
    """
    n = data.shape[0]
    columns = data.T
    # One stable sort groups the members of each cluster, in row order.
    # Labels run from -1 to k - 1; on 16-bit keys the sort is a radix
    # sort, several times faster than on int64 at these sizes.
    k = len(dimensions)
    keys = labels.astype(np.int16) if k < 2**15 else labels
    order = np.argsort(keys, kind="stable")
    bounds = np.searchsorted(keys[order], np.arange(k + 1)).tolist()
    total = 0.0
    for i, dims in enumerate(dimensions):
        size = bounds[i + 1] - bounds[i]
        if size == 0:
            continue
        rows = order[bounds[i] : bounds[i + 1]]
        # (size, |D_i|) with contiguous columns for any input layout:
        # these sums are not exact, and NumPy's pairwise column sums
        # depend on the strides they see.
        members = np.empty((len(dims), size), dtype=columns.dtype)
        for row, j in enumerate(dims):
            columns[j].take(rows, out=members[row])
        members = members.T
        centroid = np.add.reduce(members, axis=0, dtype=np.float64) / size
        deviation = members - centroid
        np.abs(deviation, out=deviation)
        v = np.add.reduce(deviation, axis=0) / size
        # The mean of v, as ndarray.mean computes it.
        w = float(np.add.reduce(v)) / len(dims)
        total += size * w
    return total / n


def compute_bad_medoids(
    sizes: np.ndarray, n: int, min_deviation: float, rule: str = "paper"
) -> np.ndarray:
    """Indices of the bad medoids of the best clustering.

    ``rule="paper"`` (this paper's Section 2.1): a medoid is bad when
    its cluster holds fewer than ``n/k * min_deviation`` points; if no
    medoid is that starved, the single smallest cluster's medoid is bad
    (ties -> lowest index).

    ``rule="original"`` (Aggarwal et al. 1999): the smallest cluster's
    medoid is *always* bad, in addition to every below-threshold one.
    """
    k = len(sizes)
    threshold = n / k * min_deviation
    bad = np.flatnonzero(sizes < threshold)
    if rule == "original":
        smallest = int(np.argmin(sizes))
        if smallest not in bad:
            bad = np.sort(np.append(bad, smallest))
    elif bad.size == 0:
        bad = np.array([int(np.argmin(sizes))], dtype=np.int64)
    return bad


def find_outliers(
    seg: np.ndarray,
    medoid_points: np.ndarray,
    dimensions: tuple[tuple[int, ...], ...],
) -> np.ndarray:
    """Boolean outlier mask for the refinement phase.

    For each medoid ``m_i`` the sphere radius is
    ``Delta_i = min_{j != i} ||m_i - m_j||_1^{D_i} / |D_i|`` (segmental
    distance to the closest other medoid in ``m_i``'s own subspace).  A
    point is an outlier when it lies outside every medoid's sphere.
    With ``k == 1`` there is no other medoid, the radius is infinite and
    no point is an outlier.

    Parameters
    ----------
    seg:
        ``(n, k)`` segmental distances from :func:`assign_points`.
    medoid_points:
        ``(k, d)`` medoid coordinates.
    dimensions:
        The k subspaces.
    """
    k = medoid_points.shape[0]
    medoid_seg = segmental_distances(medoid_points, medoid_points, dimensions)
    np.fill_diagonal(medoid_seg, np.inf)
    delta = medoid_seg.min(axis=0)  # delta[i] = min_j seg(m_j -> m_i in D_i)
    return np.all(seg > delta[None, :], axis=1)
