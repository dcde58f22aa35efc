"""Distance primitives with order-independent (exact) accumulation.

The paper claims that PROCLUS, FAST-PROCLUS, FAST*-PROCLUS and all GPU
variants "produce the same clustering" when they take the same random
decisions.  Making that claim *bitwise testable* requires care: the
FAST variants build the per-dimension sums ``H`` incrementally
(Theorem 3.2) and the GPU kernels accumulate with atomics in arbitrary
thread order, so naive floating-point summation would differ between
variants and could flip discrete choices (dimension selection, argmin
assignment).

The trick used throughout this module: every summed *term* is a float32
value in ``[0, 2)`` (datasets are min-max normalized to ``[0, 1]``), and
the accumulator is float64.  A float64 accumulation of float32 terms in
that range is **exact** (no rounding) as long as the partial sums stay
below ``2^29`` — the terms carry 24-bit mantissas with granularity
``>= 2^-24``, so any partial sum needs at most ``29 + 24 = 53``
mantissa bits, precisely what float64 provides.  Exact sums are
order-independent, so the incremental ``H`` updates, the baseline's
full recomputation, and any GPU atomic ordering all yield identical
float64 values, and every downstream discrete choice matches.

This holds for up to ``2^28`` points per sum — far beyond the paper's
largest dataset (8.4 M points).

Layout contract: every primitive reads its ``(n, d)`` input through the
``(d, n)`` view ``data.T``.  The distance primitives build each point's
value by adding whole dimension rows into a float64 accumulator — the
order of the SIMT kernels' per-thread loop over a point's dimensions —
and :func:`abs_diff_dim_sums` reduces each dimension row.  Those rows are
contiguous length-n vectors when ``data`` is column-major (Fortran
order), which is why :meth:`EngineBase.fit
<repro.core.base.EngineBase.fit>` makes one column-major copy of the
dataset per fit and passes it, or a row range of it, to these
functions.  Results never depend on the input's memory layout: each
temporary is built C-ordered, so a row-major caller pays a transposing
copy but gets the same bits.

Which sums may be reordered: the distance sums (Euclidean, segmental)
and the per-dimension sums (``H``, ``X``) add float32 terms exactly, so
any order — dimension-major here, row-major or atomic on a GPU — gives
the same bits.  The cost sums of
:func:`~repro.core.phases.evaluate_clusters` are *not* exact (their
terms are relative to a float64 centroid): that function gathers each
cluster as a ``(size, |D_i|)`` block with contiguous columns for any
input layout, so NumPy's pairwise column sums always add in one order.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "euclidean_distances",
    "euclidean_to_point",
    "abs_diff_dim_sums",
    "segmental_distances",
    "MAX_EXACT_POINTS",
]

#: Sums of this many float32 terms in [0, 2) are exact in float64.
MAX_EXACT_POINTS = 2**28

#: Rows processed per chunk: bounds the temporary diff buffer to
#: ~`_CHUNK_ROWS * d * 4` bytes (16 MiB at d = 15), so million-point
#: datasets never allocate an n x d scratch copy.  Chunking cannot
#: change any result — every chunk's arithmetic is element-wise and the
#: accumulation is exact.
_CHUNK_ROWS = 262_144


def euclidean_to_point(data: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Full-dimensional Euclidean distances from every row to ``point``.

    Terms ``(a - b)^2`` are computed and rounded in float32 (as CUDA
    kernels would), accumulated exactly in float64, square-rooted in
    float64 and finally rounded once to float32.  Every algorithm
    variant calls this same function, so stored distances are identical
    across variants.  Large inputs are processed in fixed-size chunks
    to bound temporary memory.

    Returns a float32 array of shape ``(n,)``.
    """
    columns = data.T
    point = point.astype(np.float32)[:, None]
    n = data.shape[0]
    out = np.empty(n, dtype=np.float32)
    for start in range(0, n, _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        diff = np.subtract(columns[:, start:stop], point, order="C")
        np.multiply(diff, diff, out=diff)
        out[start:stop] = np.sqrt(np.sum(diff, axis=0, dtype=np.float64))
    return out


def euclidean_distances(data: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distances from every row of ``data`` to every row of ``points``.

    Returns a float32 array of shape ``(len(points), n)``.
    """
    points = np.atleast_2d(points)
    out = np.empty((points.shape[0], data.shape[0]), dtype=np.float32)
    for i, point in enumerate(points):
        out[i] = euclidean_to_point(data, point)
    return out


def abs_diff_dim_sums(points: np.ndarray, medoid: np.ndarray) -> np.ndarray:
    """Per-dimension sums ``sum_p |p_j - m_j|`` over ``points``.

    This is the quantity the ``H`` matrix stores (Eq. 5).  The absolute
    differences are float32 terms; the sum is exact in float64, so the
    incremental update of Theorem 3.2 reproduces the full sum bit for
    bit.

    Returns a float64 array of shape ``(d,)``.
    """
    columns = points.T
    medoid = medoid.astype(np.float32)[:, None]
    total = np.zeros(points.shape[1], dtype=np.float64)
    for start in range(0, points.shape[0], _CHUNK_ROWS):
        diff = np.subtract(
            columns[:, start : start + _CHUNK_ROWS], medoid, order="C"
        )
        np.abs(diff, out=diff)
        total += np.sum(diff, axis=1, dtype=np.float64)
    return total


def segmental_distances(
    data: np.ndarray,
    medoid_points: np.ndarray,
    dimensions: tuple[tuple[int, ...], ...],
) -> np.ndarray:
    """Manhattan segmental distances from all points to each medoid.

    ``dist[p, i] = sum_{j in D_i} |p_j - m_{i,j}| / |D_i|`` — the
    measure AssignPoints and RemoveOutliers use.

    Returns a float64 array of shape ``(n, k)``.
    """
    columns = data.T
    n = data.shape[0]
    k = medoid_points.shape[0]
    out = np.empty((n, k), dtype=np.float64)
    for i in range(k):
        dims = list(dimensions[i])
        medoid = medoid_points[i, dims].astype(np.float32)[:, None]
        for start in range(0, n, _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            # Gathering the |D_i| dimension rows makes a C-ordered copy.
            diff = columns[dims, start:stop]
            np.subtract(diff, medoid, out=diff)
            np.abs(diff, out=diff)
            np.divide(
                np.sum(diff, axis=0, dtype=np.float64),
                len(dims),
                out=out[start:stop, i],
            )
    return out
