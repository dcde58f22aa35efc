"""Greedy selection of potential medoids (initialization phase).

PROCLUS greedily picks ``B*k`` potential medoids from the sample
``Data'``: starting from a random seed point, it repeatedly adds the
point whose distance to the already-picked set is largest (a maximin /
farthest-first traversal), which spreads the potential medoids far
apart — the property the FAST strategies later exploit ("the set L_i
only changes for a fraction of the points between iterations since the
potential medoids are selected to be far apart").

Ties in the arg-max are broken toward the lowest index.  CUDA's
Algorithm 2 resolves ties by racing writes; fixing a deterministic rule
lets every variant (and the SIMT-emulated kernel, which adopts the same
rule) produce identical medoid sets.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ParameterError
from .distance import euclidean_to_point

__all__ = ["greedy_select", "draw_sample", "draw_potential_medoids"]


def greedy_select(sample: np.ndarray, count: int, seed_index: int) -> np.ndarray:
    """Greedily pick ``count`` far-apart points from ``sample``.

    Parameters
    ----------
    sample:
        ``(s, d)`` float32 array (the random sample ``Data'``).
    count:
        Number of potential medoids ``B*k`` to pick.
    seed_index:
        Index into ``sample`` of the randomly chosen first medoid.

    Returns
    -------
    numpy.ndarray
        ``(count,)`` int64 indices into ``sample``; the first entry is
        ``seed_index``.
    """
    s = sample.shape[0]
    if not 0 < count <= s:
        raise ParameterError(f"cannot pick {count} medoids from a sample of {s}")
    if not 0 <= seed_index < s:
        raise ParameterError(f"seed index {seed_index} out of range [0, {s})")

    # Column-major like the engines' copy of the dataset, so every
    # pick's distances combine contiguous dimension rows.
    sample = np.asfortranarray(sample)
    chosen = np.empty(count, dtype=np.int64)
    chosen[0] = seed_index
    # Distance from every sample point to its closest chosen medoid.
    min_dist = euclidean_to_point(sample, sample[seed_index])
    for i in range(1, count):
        nxt = int(np.argmax(min_dist))  # ties -> lowest index
        chosen[i] = nxt
        np.minimum(min_dist, euclidean_to_point(sample, sample[nxt]), out=min_dist)
    return chosen


def draw_sample(n: int, params, rng) -> tuple[np.ndarray, int]:
    """The initialization's random draws for ``n`` points.

    ``rng`` (a :class:`~repro.rng.RandomSource`) makes exactly two
    draws, the sample ``Data'`` and then the greedy seed.  Returns
    ``(sample_indices, seed_index)``: the point ids of ``Data'`` and
    the first medoid's index into them.
    """
    sample_size = params.effective_sample_size(n)
    sample_indices = rng.sample_indices(n, sample_size)
    return sample_indices, rng.greedy_seed(sample_size)


def draw_potential_medoids(
    data: np.ndarray, params, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``Data'`` and greedily pick ``M`` for one parameter set.

    The initialization protocol of every run (:func:`draw_sample`,
    then :func:`greedy_select`).  Serving's coalesced groups call this
    with a fresh source of the request's seed, so they pick the very
    ``M`` a solo run with that seed would.

    Returns ``(sample_indices, medoid_ids)``: the point ids of
    ``Data'`` and of ``M``.
    """
    n = data.shape[0]
    sample_indices, seed_index = draw_sample(n, params, rng)
    local = greedy_select(
        data[sample_indices], params.effective_num_potential(n), seed_index
    )
    return sample_indices, sample_indices[local]
