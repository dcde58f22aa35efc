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
C-ordered, so a row-major caller pays a transposing copy (or strided
reads of each dimension row) but gets the same bits.

Scratch memory and chunking: the distance primitives process rows in
chunks of at most :data:`_CHUNK_ROWS`.  :func:`euclidean_to_point` and
:func:`abs_diff_dim_sums` hold one chunk of all ``d`` dimension rows;
:func:`segmental_distances` builds one medoid's row at a time and
holds one float32 scratch row of a chunk's length, whatever ``k`` and
``|D_i|``.  No per-point value depends on chunking: every point adds
its terms in dimension order, whatever the chunk's width
(:func:`_add_rows`, or one dimension row at a time), so a call on a
row range returns the same bits as those rows of a call on all rows.
Nor does a segmental-distance row depend on which call built it: a
call given an earlier call's rows copies those whose medoid and
subspace it shares (:func:`segmental_distances`).

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
#: ~`_CHUNK_ROWS * d * 4` bytes (16 MiB at d = 15), and the segmental
#: distances' scratch row to `_CHUNK_ROWS * 4` bytes, so million-point
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
    points: np.ndarray,
    medoid: np.ndarray,
    rows: np.ndarray | None = None,
    cuts: list[int] | None = None,
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

    ``cuts`` (positions into ``rows``, ascending from 0 to
    ``len(rows)``) asks for one partial sum per part
    ``rows[cuts[i]:cuts[i + 1]]``, a fleet shard's rows each, instead
    of the total.  The rows are gathered, subtracted and made absolute
    once, and each part reduces its own columns of that block: the same
    bits as a call on that part alone.  Beyond one chunk of rows, each
    part is a call of its own.

    Returns a float64 array of shape ``(d,)``, or ``(len(cuts) - 1, d)``
    with ``cuts``.
    """
    columns = points.T
    if cuts is not None:
        parts = list(zip(cuts, cuts[1:]))
        if len(rows) > _CHUNK_ROWS:
            return np.array([
                abs_diff_dim_sums(points, medoid, rows[low:high])
                for low, high in parts
            ])
        diff = columns.take(rows, axis=1)
        np.subtract(diff, medoid.astype(np.float32)[:, None], out=diff)
        np.abs(diff, out=diff)
        partials = np.empty((len(parts), points.shape[1]), dtype=np.float64)
        for partial, (low, high) in zip(partials, parts):
            np.add.reduce(
                diff[:, low:high], axis=1, dtype=np.float64, out=partial
            )
        return partials
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
    previous: tuple | None = None,
) -> np.ndarray:
    """Manhattan segmental distances from all points to each medoid.

    ``dist[p, i] = sum_{j in D_i} |p_j - m_{i,j}| / |D_i|`` — the
    measure AssignPoints and RemoveOutliers use.

    Each medoid's row is built on its own, as row ``i`` of a ``(k, n)``
    float64 buffer: for each dimension of ``D_i``, in sorted order, the
    subtraction and absolute value of that dimension row run in one
    scratch row (float32 for float32 data), which is then added into
    row ``i``.  The row is divided by ``|D_i|`` last.

    ``previous`` is an earlier call's ``(medoid_points, dimensions,
    result)`` on the same ``data``.  A medoid whose float32 coordinates
    and ``D_i`` both equal those of one of that call's medoids, at any
    slot, gets that medoid's row copied from ``result`` instead of
    built.  The copy has the bits a build would have, since a row's
    terms and the order they are added in follow from those
    coordinates, ``D_i`` and ``data`` alone.

    Returns a float64 array of shape ``(n, k)``: the transpose of that
    buffer.
    """
    columns = data.T
    n = data.shape[0]
    medoid_points = np.asarray(medoid_points, dtype=np.float32)
    built = {}
    if previous is not None:
        points, dims, seg = previous
        built = dict(zip(_row_keys(points, dims), seg.T))
    out = np.empty((len(dimensions), n), dtype=np.float64)
    scratch = np.empty(min(n, _CHUNK_ROWS), np.result_type(data, np.float32))
    keys = _row_keys(medoid_points, dimensions)
    for row, key, point, dims in zip(out, keys, medoid_points, dimensions):
        if key in built:
            row[...] = built[key]
            continue
        first, *rest = dims
        for start in range(0, n, _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            total = row[start:stop]
            term = scratch[: len(total)]
            np.subtract(columns[first, start:stop], point[first], out=term)
            np.abs(term, out=total)
            for j in rest:
                np.subtract(columns[j, start:stop], point[j], out=term)
                np.abs(term, out=term)
                np.add(total, term, out=total)
        np.divide(row, len(dims), out=row)
    return out.T


def _row_keys(medoid_points: np.ndarray, dimensions) -> list[tuple]:
    """What a segmental-distance row depends on besides the data: its
    medoid's float32 coordinates and its subspace."""
    points = np.asarray(medoid_points, dtype=np.float32)
    return [(point.tobytes(), tuple(dims)) for point, dims in zip(points, dimensions)]
