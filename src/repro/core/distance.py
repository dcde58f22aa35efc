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
value (datasets are min-max normalized to ``[0, 1]``, so terms lie in
``[0, 2)``) and the accumulator is float64.  A float32 in
``[2^e, 2^(e+1))`` is a whole multiple of its finest bit ``2^(e-23)``,
so every partial sum is a whole multiple of the finest bit of the
smallest nonzero term, and a float64 sum is **exact** (no rounding)
while the largest partial sum stays below ``2^53`` times that bit.
Exact sums are order-independent, so the incremental ``H`` updates,
the baseline's full recomputation, the fleet's merged shard partials
and any GPU atomic ordering then yield identical float64 values, and
every downstream discrete choice matches.

How far that reaches depends on the smallest term, not only on n.
Terms of ``0.5`` or more have bits no finer than ``2^-24``, so sums of
up to ``2^28`` of them (:data:`MAX_EXACT_POINTS`, beyond the paper's
largest dataset of 8.4 M points) stay below ``2^29`` and are exact.  A
term below ``0.5`` has finer bits and lowers the bound: one term near
``1e-6`` (a point and a medoid both that close to a coordinate's
minimum) allows partial sums of only about ``2^10``.  Sums over such
data can round, and a rounded sum depends on its order, so the
guarantee above is not unconditional.  On the generator's data no
clustering has been seen to change.

Layout contract: every primitive reads its ``(n, d)`` input through the
``(d, n)`` view ``data.T``.  The distance primitives build each point's
value by adding whole dimension rows into a float64 accumulator — the
order of the SIMT kernels' per-thread loop over a point's dimensions —
and :func:`abs_diff_dim_sums` reduces each dimension row.  Those rows are
contiguous length-n vectors when ``data`` is column-major (Fortran
order), which is why :meth:`EngineBase.fit
<repro.core.base.EngineBase.fit>` makes one column-major copy of the
dataset per fit and passes it to these functions.  Results never
depend on the input's memory layout: each temporary is built
C-ordered, so a row-major caller pays a transposing copy but gets the
same bits.

Chunking: the distance primitives process rows in chunks of at most
:data:`_CHUNK_ROWS` (fewer for a wide subspace gather).  No per-point
value depends on chunking: every point adds its terms in dimension
order, whatever the chunk's width (:func:`_add_rows`), so a call on a
row range returns the same bits as those rows of a call on all rows.

Which sums may be reordered: the distance sums (Euclidean, segmental)
and the per-dimension sums (``H``, ``X``) add float32 terms, exactly
within the bound above, so there any order — dimension-major here,
row-major or atomic on a GPU — gives the same bits.  The cost sums of
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

#: Sums of this many float32 terms in [0.5, 2) are exact in float64
#: (smaller nonzero terms lower the bound; see the module docstring).
MAX_EXACT_POINTS = 2**28

#: Rows processed per chunk: bounds the temporary diff buffer to
#: ~`_CHUNK_ROWS * d * 4` bytes (16 MiB at d = 15), so million-point
#: datasets never allocate an n x d scratch copy.  Chunking cannot
#: change a per-point value — every chunk's arithmetic is element-wise,
#: and each point's sum adds its rows in order (:func:`_add_rows`).  A
#: per-dimension sum runs within one dimension row of a chunk.
_CHUNK_ROWS = 262_144


def _add_rows(block: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Float64 sums of ``block``'s columns, adding its rows in order.

    NumPy adds a block's rows one after another for every column,
    except when the block is a single column: that it sums pairwise.  A
    one-point chunk (a one-point call, or a last chunk of one row)
    therefore accumulates instead, so a point's value never depends on
    where chunks fall.
    """
    if block.shape[1] == 1 and block.shape[0] > 1:
        sums = np.add.accumulate(block, axis=0, dtype=np.float64)[-1]
        if out is None:
            return sums
        out[...] = sums
        return out
    return np.add.reduce(block, axis=0, dtype=np.float64, out=out)


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
        np.sqrt(_add_rows(diff), out=out[start:stop])
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


def abs_diff_dim_sums(
    points: np.ndarray, medoid: np.ndarray, rows: np.ndarray | None = None
) -> np.ndarray:
    """Per-dimension sums ``sum_p |p_j - m_j|`` over ``points``.

    This is the quantity the ``H`` matrix stores (Eq. 5).  The absolute
    differences are float32 terms; within the bound of the module
    docstring the sum is exact in float64, so the incremental update of
    Theorem 3.2 reproduces the full sum bit for bit.

    ``rows`` (positions into ``points``) restricts the sums to those
    points.  They are gathered chunk by chunk into a C-ordered scratch
    block, which the subtraction and the absolute value then overwrite
    in place: the same block, and so the same bits, as passing
    ``points[rows]``, without a second copy.

    Returns a float64 array of shape ``(d,)``.
    """
    columns = points.T
    medoid = medoid.astype(np.float32)[:, None]
    total = np.zeros(points.shape[1], dtype=np.float64)
    count = points.shape[0] if rows is None else len(rows)
    for start in range(0, count, _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        if rows is None:
            diff = np.subtract(columns[:, start:stop], medoid, order="C")
        else:
            diff = columns.take(rows[start:stop], axis=1)
            np.subtract(diff, medoid, out=diff)
        np.abs(diff, out=diff)
        total += np.add.reduce(diff, axis=1, dtype=np.float64)
    return total


def segmental_distances(
    data: np.ndarray,
    medoid_points: np.ndarray,
    dimensions: tuple[tuple[int, ...], ...],
) -> np.ndarray:
    """Manhattan segmental distances from all points to each medoid.

    ``dist[p, i] = sum_{j in D_i} |p_j - m_{i,j}| / |D_i|`` — the
    measure AssignPoints and RemoveOutliers use.

    All ``sum |D_i|`` subspace rows are gathered into one block, and
    the subtraction and absolute value run once over it, in place.
    Each medoid's rows, in its sorted dimension order, then reduce
    straight into row ``i`` of a ``(k, n)`` float64 buffer.  A chunk
    holds fewer points when ``sum |D_i| > d``, so the block stays
    within the ``_CHUNK_ROWS * d`` bound.

    Returns a float64 array of shape ``(n, k)``: the transpose of that
    buffer.
    """
    columns = data.T
    n, d = data.shape
    k = medoid_points.shape[0]
    sizes = [len(dims) for dims in dimensions]
    gather = np.array([j for dims in dimensions for j in dims], dtype=np.intp)
    owner = np.repeat(np.arange(k), sizes)
    medoid = medoid_points[owner, gather].astype(np.float32)[:, None]
    ends = np.cumsum(sizes).tolist()
    spans = list(zip([0] + ends[:-1], ends))
    step = max(1, _CHUNK_ROWS * d // max(d, len(gather)))
    out = np.empty((k, n), dtype=np.float64)
    for start in range(0, n, step):
        stop = start + step
        # Gathering the subspace rows makes a C-ordered copy.
        diff = columns[gather, start:stop]
        np.subtract(diff, medoid, out=diff)
        np.abs(diff, out=diff)
        for i, (low, high) in enumerate(spans):
            _add_rows(diff[low:high], out[i, start:stop])
    np.divide(out, np.array(sizes, dtype=np.float64)[:, None], out=out)
    return out.T
