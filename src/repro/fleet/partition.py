"""Deterministic point partitioning and exact partial-sum merging.

The fleet shards the ``n`` points of one job across ``D`` modeled
devices as *contiguous row ranges* — the layout NCCL-style data
parallelism uses, and the one that keeps every per-row kernel
(distances, assignment) trivially order-preserving: concatenating the
per-shard outputs in device order reproduces the solo output bit for
bit.

Two primitives carry the determinism contract:

* :func:`split_exact` — largest-remainder integer apportionment.  The
  returned counts always sum to the total *exactly* (no float drift),
  respect zero weights (a zero-capacity device gets zero points), and
  do not change when every weight is scaled by a power of two.
* :func:`tree_merge` — pairwise reduction of per-shard partial sums in
  a fixed order.  Because every accumulated term is a float32 value in
  ``[0, 2)`` summed into float64 (:mod:`repro.core.distance`), the
  partial sums are exact and *any* merge order gives the same bits;
  fixing the tree order makes that property testable and keeps the
  merge independent of device count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ParameterError

__all__ = [
    "ShardPlan",
    "largest_remainder",
    "row_axis",
    "shard_shape",
    "split_exact",
    "tree_merge",
]


def split_exact(total: int, weights: tuple[float, ...] | list[float]) -> tuple[int, ...]:
    """Apportion ``total`` items over ``weights`` (largest remainder).

    Returns integer counts summing to exactly ``total``.  Zero-weight
    entries receive zero items.  Ties in the fractional remainders are
    broken by lower index, so the split is fully deterministic.

    Scaling every weight by a power of two scales every float quota
    exactly, so it returns the same split.  Other scales may round the
    quotas differently and hand a spare item to another near-tied
    remainder: ``(4, 0, 0)`` for ``split_exact(4, [0.01, 0.001, 0.001])``
    but ``(3, 1, 0)`` for the same weights times 0.001.  Each count
    still lies within one item of its exact share.
    """
    if not isinstance(total, (int, np.integer)) or isinstance(total, bool):
        raise ParameterError(f"total must be an int, got {type(total).__name__}")
    if total < 0:
        raise ParameterError(f"total must be >= 0, got {total}")
    weights = [float(w) for w in weights]
    if not weights:
        raise ParameterError("split_exact needs at least one weight")
    if any(w < 0 for w in weights):
        raise ParameterError(f"weights must be >= 0, got {weights}")
    if sum(weights) <= 0:
        raise ParameterError("at least one weight must be positive")
    return largest_remainder(total, weights)


def largest_remainder(total: int, weights: list[float]) -> tuple[int, ...]:
    """:func:`split_exact` without its argument checks.

    For callers that split many totals over weights checked once: an
    int ``total >= 0`` and float ``weights``, none negative, at least
    one positive.
    """
    weight_sum = sum(weights)
    quotas = [total * w / weight_sum for w in weights]
    counts = [int(q) for q in quotas]
    shortfall = total - sum(counts)
    if not shortfall:
        return tuple(counts)
    # Hand the leftover items to the largest fractional remainders
    # (ties -> lower index), never to zero-weight entries.
    order = sorted(
        range(len(weights)),
        key=lambda i: (-(quotas[i] - counts[i]), i),
    )
    for i in order[:shortfall]:
        if weights[i] > 0:
            counts[i] += 1
        else:  # pragma: no cover - quotas of zero weights are exact
            shortfall += 1
    assigned = sum(counts)
    if assigned != total:  # pragma: no cover - defensive
        # Residual (only reachable when every remainder belongs to a
        # zero-weight entry, which integer quotas prevent).
        for i in order:
            if weights[i] > 0:
                counts[i] += total - assigned
                break
    return tuple(counts)


def row_axis(shape: tuple[int, ...], n: int) -> int | None:
    """The axis of an array of ``shape`` that the fleet shards by rows.

    That is its first ``n``-sized axis; ``None`` when it has none, and
    then every shard holds the whole array.
    """
    for axis, size in enumerate(shape):
        if size == n:
            return axis
    return None


def shard_shape(
    shape: tuple[int, ...], n: int, count: int
) -> tuple[int, ...]:
    """One shard's part of an array of ``shape`` over ``n`` points.

    The :func:`row_axis` is cut to the shard's ``count`` rows; an array
    with no such axis is replicated whole on every shard.
    """
    axis = row_axis(shape, n)
    if axis is None:
        return shape
    return shape[:axis] + (count,) + shape[axis + 1:]


def tree_merge(partials: list[np.ndarray] | np.ndarray) -> np.ndarray:
    """Merge per-shard partial sums with a fixed pairwise tree.

    ``partials`` are float64 arrays of identical shape, one per shard
    in device order: a list, or one array stacking them along its first
    axis.  Adjacent pairs are added until one remains — the reduction
    order a ring/tree all-reduce would realize.  Under the
    exact-accumulation invariant the result is bit-identical to any
    other order, including the solo single-pass sum.
    """
    level = np.asarray(partials, dtype=np.float64)
    if level.ndim == 0 or not len(level):
        raise ParameterError("tree_merge needs at least one partial")
    while len(level) > 1:
        # Each level adds every adjacent pair at once; an odd last
        # partial moves up unchanged.
        merged = level[0:len(level) - 1:2] + level[1::2]
        if len(level) % 2:
            merged = np.concatenate((merged, level[-1:]))
        level = merged
    return level[0]


@dataclass(frozen=True, slots=True)
class ShardPlan:
    """Contiguous row ranges assigning each data point to one device.

    ``counts[i]`` points go to device ``i``; device ``i`` owns rows
    ``[offsets[i], offsets[i] + counts[i])``.  Built by
    :meth:`repro.fleet.fleet.Fleet.shard_plan`.
    """

    n: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if sum(self.counts) != self.n:
            raise ParameterError(
                f"shard counts {self.counts} do not cover n={self.n}"
            )
        if any(c < 0 for c in self.counts):
            raise ParameterError(f"negative shard count in {self.counts}")

    @property
    def num_devices(self) -> int:
        return len(self.counts)

    @property
    def offsets(self) -> tuple[int, ...]:
        """Start row of each device's range."""
        out = []
        start = 0
        for count in self.counts:
            out.append(start)
            start += count
        return tuple(out)

    def ranges(self) -> tuple[tuple[int, int], ...]:
        """Per-device ``(start, stop)`` row ranges (empty allowed)."""
        return tuple(
            (offset, offset + count)
            for offset, count in zip(self.offsets, self.counts)
        )

    def shard(self, array: np.ndarray, index: int, axis: int = 0) -> np.ndarray:
        """View of ``array`` restricted to device ``index``'s rows."""
        start, stop = self.ranges()[index]
        slicer = [slice(None)] * array.ndim
        slicer[axis] = slice(start, stop)
        return array[tuple(slicer)]
