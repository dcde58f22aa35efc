"""Pin the one-call-per-phase-step bodies to their per-medoid loops.

``find_dimensions``, ``cluster_sizes_from_labels`` and the engines'
``_compute_l_and_x`` used to loop once per medoid; they now make one
NumPy call per step over all medoids.  The reference bodies below are
those loops, and the two ablation engines' own bodies.  The library
must return the same bits:

* ``find_dimensions`` on spread matrices with many tied values;
* ``cluster_sizes_from_labels`` with outliers and empty clusters;
* every ``X`` and ``|L|`` a fit computes, iteration by iteration, on
  min-max normalized data and on raw data (values in [0, 100]), where
  the per-dimension sums can round, so a changed order of additions
  would show.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.ablation import FastDistOnlyEngine, FastHOnlyEngine
from repro.core.fast import FastProclusEngine
from repro.core.fast_star import FastStarProclusEngine
from repro.core.phases import cluster_sizes_from_labels, find_dimensions
from repro.core.proclus import ProclusEngine
from repro.data import generate_subspace_data, minmax_normalize
from repro.params import ProclusParams


# ----------------------------------------------------------------------
# Reference bodies
# ----------------------------------------------------------------------
def ref_find_dimensions(x, l):
    k, d = x.shape
    y = x.mean(axis=1)
    deviation = x - y[:, None]
    sigma = np.sqrt(np.sum(deviation**2, axis=1) / (d - 1))
    z = np.zeros_like(deviation)
    np.divide(deviation, sigma[:, None], out=z, where=sigma[:, None] > 0)
    picked = np.zeros((k, d), dtype=bool)
    for i in range(k):
        order = np.argsort(z[i], kind="stable")
        picked[i, order[:2]] = True
    remaining = k * l - 2 * k
    if remaining > 0:
        flat_i, flat_j = np.nonzero(~picked)
        flat_z = z[flat_i, flat_j]
        order = np.lexsort((flat_j, flat_i, flat_z))[:remaining]
        picked[flat_i[order], flat_j[order]] = True
    return tuple(
        tuple(int(j) for j in np.flatnonzero(picked[i])) for i in range(k)
    )


def ref_cluster_sizes(labels, k):
    sizes = np.zeros(k, dtype=np.int64)
    valid = labels >= 0
    np.add.at(sizes, labels[valid], 1)
    return sizes


def ref_fast_l_and_x(engine, mcur):
    data = engine._data
    n, d = data.shape
    k = len(mcur)
    cache = engine._cache
    medoid_ids = engine._medoid_ids[mcur]
    missing = mcur[~cache.dist_found[mcur]]
    for mi in missing:
        cache.dist[mi] = engine._distance_row(data[engine._medoid_ids[mi]])
    cache.dist_found[missing] = True
    medoid_dist = cache.dist[mcur][:, medoid_ids]
    np.fill_diagonal(medoid_dist, np.inf)
    delta = medoid_dist.min(axis=1)
    x = np.zeros((k, d), dtype=np.float64)
    sizes = np.zeros(k, dtype=np.int64)
    for i, mi in enumerate(mcur):
        row = cache.dist[mi]
        previous = cache.prev_delta[mi]
        current = delta[i]
        if current >= previous:
            mask = (row > previous) & (row <= current)
            lam = 1
        else:
            mask = (row > current) & (row <= previous)
            lam = -1
        count = int(np.count_nonzero(mask))
        if count:
            point = data[engine._medoid_ids[mi]]
            cache.h[mi] += lam * engine._dim_sums(mask, point)
            cache.size_l[mi] += lam * count
        cache.prev_delta[mi] = current
        sizes[i] = cache.size_l[mi]
        x[i] = cache.h[mi] / cache.size_l[mi]
    return x, sizes


def ref_fast_star_l_and_x(engine, mcur):
    data = engine._data
    k = len(mcur)
    cache = engine._cache
    medoid_ids = engine._medoid_ids[mcur]
    for i in range(k):
        if engine._slot_ids[i] != medoid_ids[i]:
            cache.reset_row(i)
            cache.dist[i] = engine._distance_row(data[medoid_ids[i]])
            cache.dist_found[i] = True
            engine._slot_ids[i] = medoid_ids[i]
    medoid_dist = cache.dist[:, medoid_ids]
    np.fill_diagonal(medoid_dist, np.inf)
    delta = medoid_dist.min(axis=1)
    x = np.zeros((k, data.shape[1]), dtype=np.float64)
    sizes = np.zeros(k, dtype=np.int64)
    for i in range(k):
        row = cache.dist[i]
        previous = cache.prev_delta[i]
        current = delta[i]
        if current >= previous:
            mask = (row > previous) & (row <= current)
            lam = 1
        else:
            mask = (row > current) & (row <= previous)
            lam = -1
        count = int(np.count_nonzero(mask))
        if count:
            cache.h[i] += lam * engine._dim_sums(mask, data[medoid_ids[i]])
            cache.size_l[i] += lam * count
        cache.prev_delta[i] = current
        sizes[i] = cache.size_l[i]
        x[i] = cache.h[i] / cache.size_l[i]
    return x, sizes


def ref_proclus_l_and_x(engine, mcur):
    data = engine._data
    k = len(mcur)
    medoid_ids = engine._medoid_ids[mcur]
    medoid_points = data[medoid_ids]
    dist = np.empty((k, data.shape[0]), dtype=np.float32)
    for i in range(k):
        dist[i] = engine._distance_row(medoid_points[i])
    medoid_dist = dist[:, medoid_ids].astype(np.float32)
    np.fill_diagonal(medoid_dist, np.inf)
    delta = medoid_dist.min(axis=1)
    x = np.zeros((k, data.shape[1]), dtype=np.float64)
    sizes = np.zeros(k, dtype=np.int64)
    for i in range(k):
        mask = dist[i] <= delta[i]
        count = int(np.count_nonzero(mask))
        sizes[i] = count
        x[i] = engine._dim_sums(mask, medoid_points[i]) / count
    return x, sizes


def ref_dist_only_l_and_x(engine, mcur):
    data = engine._data
    n, d = data.shape
    k = len(mcur)
    cache = engine._cache
    medoid_ids = engine._medoid_ids[mcur]
    missing = mcur[~cache.dist_found[mcur]]
    for mi in missing:
        cache.dist[mi] = engine._distance_row(data[engine._medoid_ids[mi]])
    cache.dist_found[missing] = True
    medoid_dist = cache.dist[mcur][:, medoid_ids]
    np.fill_diagonal(medoid_dist, np.inf)
    delta = medoid_dist.min(axis=1)
    x = np.zeros((k, d), dtype=np.float64)
    sizes = np.zeros(k, dtype=np.int64)
    for i, mi in enumerate(mcur):
        mask = cache.dist[mi] <= delta[i]
        count = int(np.count_nonzero(mask))
        sizes[i] = count
        x[i] = engine._dim_sums(mask, data[engine._medoid_ids[mi]]) / count
    return x, sizes


def ref_h_only_l_and_x(engine, mcur):
    data = engine._data
    n, d = data.shape
    k = len(mcur)
    cache = engine._cache
    medoid_ids = engine._medoid_ids[mcur]
    dist = np.empty((k, n), dtype=np.float32)
    for i, mi in enumerate(mcur):
        dist[i] = engine._distance_row(data[engine._medoid_ids[mi]])
    medoid_dist = dist[:, medoid_ids]
    np.fill_diagonal(medoid_dist, np.inf)
    delta = medoid_dist.min(axis=1)
    x = np.zeros((k, d), dtype=np.float64)
    sizes = np.zeros(k, dtype=np.int64)
    for i, mi in enumerate(mcur):
        row = dist[i]
        previous = cache.prev_delta[mi]
        current = delta[i]
        if current >= previous:
            mask = (row > previous) & (row <= current)
            lam = 1
        else:
            mask = (row > current) & (row <= previous)
            lam = -1
        count = int(np.count_nonzero(mask))
        if count:
            point = data[engine._medoid_ids[mi]]
            cache.h[mi] += lam * engine._dim_sums(mask, point)
            cache.size_l[mi] += lam * count
        cache.prev_delta[mi] = current
        sizes[i] = cache.size_l[mi]
        x[i] = cache.h[mi] / cache.size_l[mi]
    return x, sizes


# ----------------------------------------------------------------------
# Pins
# ----------------------------------------------------------------------
#: Spread matrices drawn from a few values, so Z ties are common.
spreads = st.tuples(st.integers(1, 8), st.integers(2, 12)).flatmap(
    lambda shape: hnp.arrays(
        np.float64, shape, elements=st.sampled_from((0.1, 0.25, 0.5, 0.7, 1.0))
    )
)


@settings(max_examples=200, deadline=None)
@given(x=spreads, data=st.data())
def test_find_dimensions(x, data):
    l = data.draw(st.integers(2, x.shape[1]))
    got = find_dimensions(x, l)
    assert got == ref_find_dimensions(x, l)
    assert all(type(j) is int for dims in got for j in dims)


def test_cluster_sizes_from_labels():
    rng = np.random.default_rng(3)
    for k in (1, 4, 10):
        labels = rng.integers(-1, k, 500)
        labels[labels == k - 1] = -1  # an empty cluster
        got = cluster_sizes_from_labels(labels, k)
        assert got.dtype == np.int64
        assert np.array_equal(got, ref_cluster_sizes(labels, k))


ENGINES = {
    "proclus": (ProclusEngine, ref_proclus_l_and_x),
    "fast": (FastProclusEngine, ref_fast_l_and_x),
    "fast-star": (FastStarProclusEngine, ref_fast_star_l_and_x),
    "fast-dist-only": (FastDistOnlyEngine, ref_dist_only_l_and_x),
    "fast-h-only": (FastHOnlyEngine, ref_h_only_l_and_x),
}


def steps(engine_cls, step, data):
    """Every (X, |L|) a fit computes, and the fit's result."""
    seen = []

    class Recording(engine_cls):
        def _compute_l_and_x(self, mcur):
            x, sizes = step(self, mcur)
            seen.append((x.copy(), sizes.copy()))
            return x, sizes

    result = Recording(
        params=ProclusParams(k=6, l=4, a=30, b=5), seed=4
    ).fit(data)
    return seen, result


@pytest.mark.parametrize("name", sorted(ENGINES))
@pytest.mark.parametrize("normalized", [True, False], ids=["unit", "raw"])
def test_compute_l_and_x(name, normalized):
    data = generate_subspace_data(
        n=2500, d=10, n_clusters=6, subspace_dims=4, std=5.0, seed=9
    ).data
    if normalized:
        data = minmax_normalize(data)
    engine_cls, reference = ENGINES[name]
    got, result = steps(engine_cls, engine_cls._compute_l_and_x, data)
    expected, ref_result = steps(engine_cls, reference, data)
    assert len(got) == len(expected) > 1
    for (x, sizes), (ref_x, ref_sizes) in zip(got, expected):
        assert np.array_equal(x, ref_x)
        assert sizes.dtype == ref_sizes.dtype
        assert np.array_equal(sizes, ref_sizes)
    assert np.array_equal(result.labels, ref_result.labels)
    assert result.cost == ref_result.cost
