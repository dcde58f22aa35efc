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
  are invariant to the absolute scale of the weights.
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

__all__ = ["ShardPlan", "shard_shape", "split_exact", "tree_merge"]


def split_exact(total: int, weights: tuple[float, ...] | list[float]) -> tuple[int, ...]:
    """Apportion ``total`` items over ``weights`` (largest remainder).

    Returns integer counts summing to exactly ``total``.  Zero-weight
    entries receive zero items.  Ties in the fractional remainders are
    broken by lower index, so the split is fully deterministic.
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
    weight_sum = sum(weights)
    if weight_sum <= 0:
        raise ParameterError("at least one weight must be positive")
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


def shard_shape(
    shape: tuple[int, ...], n: int, count: int
) -> tuple[int, ...]:
    """One shard's part of an array of ``shape`` over ``n`` points.

    The first ``n``-sized axis is cut to the shard's ``count`` rows; an
    array with no such axis is replicated whole on every shard.
    """
    for axis, size in enumerate(shape):
        if size == n:
            return shape[:axis] + (count,) + shape[axis + 1:]
    return shape


def tree_merge(partials: list[np.ndarray]) -> np.ndarray:
    """Merge per-shard partial sums with a fixed pairwise tree.

    ``partials`` are float64 arrays of identical shape (one per shard,
    in device order).  Adjacent pairs are added until one remains —
    the reduction order a ring/tree all-reduce would realize.  Under
    the exact-accumulation invariant the result is bit-identical to
    any other order, including the solo single-pass sum.
    """
    if not partials:
        raise ParameterError("tree_merge needs at least one partial")
    level = [np.asarray(p, dtype=np.float64) for p in partials]
    while len(level) > 1:
        merged = []
        for i in range(0, len(level) - 1, 2):
            merged.append(level[i] + level[i + 1])
        if len(level) % 2:
            merged.append(level[-1])
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
