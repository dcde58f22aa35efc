"""Pin the numeric primitives to their row-major reference bodies.

The reference functions below are the earlier row-major bodies of
``euclidean_to_point``, ``abs_diff_dim_sums``, ``segmental_distances``,
``assign_points`` and ``evaluate_clusters`` (one chunk at these sizes).
The library functions must return the same bits (``np.array_equal`` /
``==``) on:

* min-max normalized ``generate_subspace_data`` sets at the perfbench
  shapes, where every distance and dimension sum is exact;
* raw quick-tier data (values in [0, 100], std 5.0), where exactness is
  not guaranteed, so a changed summation order shows — above all in
  ``evaluate_clusters``, whose centroid-relative terms are never exact;
* C-ordered input, F-ordered input and a row range of the F-ordered
  copy (what a fleet shard passes);
* labels with outliers (-1) and an empty cluster, subspaces of 2 to d
  dimensions;
* inputs spanning several chunks (``_CHUNK_ROWS`` patched small).

References always run on the C-ordered array, so the library's result
must not depend on the memory layout of its input.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import distance
from repro.core.distance import (
    abs_diff_dim_sums,
    euclidean_to_point,
    segmental_distances,
)
from repro.core.phases import assign_points, evaluate_clusters
from repro.data import generate_subspace_data, minmax_normalize


# ----------------------------------------------------------------------
# Row-major reference bodies
# ----------------------------------------------------------------------
def ref_euclidean_to_point(data, point):
    diff = data - point.astype(np.float32)
    np.multiply(diff, diff, out=diff)
    return np.sqrt(np.sum(diff, axis=1, dtype=np.float64)).astype(np.float32)


def ref_abs_diff_dim_sums(points, medoid):
    if points.shape[0] == 0:
        return np.zeros(points.shape[1], dtype=np.float64)
    return np.sum(
        np.abs(points - medoid.astype(np.float32)), axis=0, dtype=np.float64
    )


def ref_segmental_distances(data, medoid_points, dimensions):
    out = np.empty((data.shape[0], medoid_points.shape[0]), dtype=np.float64)
    for i, dims in enumerate(dimensions):
        dims = list(dims)
        medoid = medoid_points[i, dims].astype(np.float32)
        diff = np.abs(data[:, dims] - medoid)
        out[:, i] = np.sum(diff, axis=1, dtype=np.float64) / len(dims)
    return out


def ref_assign_points(data, medoid_points, dimensions):
    seg = ref_segmental_distances(data, medoid_points, dimensions)
    return np.argmin(seg, axis=1).astype(np.int64), seg


def ref_evaluate_clusters(data, labels, dimensions):
    total = 0.0
    for i, dims in enumerate(dimensions):
        members = data[labels == i][:, list(dims)]
        size = members.shape[0]
        if size == 0:
            continue
        centroid = np.sum(members, axis=0, dtype=np.float64) / size
        v = np.sum(np.abs(members - centroid), axis=0, dtype=np.float64) / size
        total += size * float(v.mean())
    return total / data.shape[0]


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
#: name -> (n, d, normalized): the serve-mix, fit-small and fit-large
#: shapes min-max normalized, and the raw quick-tier workload.
DATASETS = {
    "serve-3000x15": (3000, 15, True),
    "fit-small-4096x15": (4096, 15, True),
    "fit-large-32768x30": (32768, 30, True),
    "quick-raw-8192x15": (8192, 15, False),
}
LAYOUTS = ("C", "F", "F-rows")
K = 10


@pytest.fixture(scope="module", params=sorted(DATASETS))
def dataset(request):
    n, d, normalized = DATASETS[request.param]
    data = generate_subspace_data(
        n=n, d=d, n_clusters=10, subspace_dims=5, std=5.0, seed=n + d
    ).data
    if normalized:
        data = minmax_normalize(data)
    data = np.ascontiguousarray(data, dtype=np.float32)
    rng = np.random.default_rng(n)
    medoid_ids = rng.choice(n, size=K, replace=False)
    # Subspace sizes from 2 up to d, each a random sorted dimension set.
    sizes = np.linspace(2, d, K).round().astype(int)
    dims = tuple(
        tuple(int(j) for j in np.sort(rng.choice(d, size=s, replace=False)))
        for s in sizes
    )
    return data, data[medoid_ids], dims, n


@pytest.fixture(params=LAYOUTS)
def layout(request):
    return request.param


@pytest.fixture(params=["one-chunk", "many-chunks"])
def chunks(request, monkeypatch):
    if request.param == "many-chunks":
        # Several full chunks and a ragged last one at every size.
        monkeypatch.setattr(distance, "_CHUNK_ROWS", 1000)
    return request.param


def arrange(data, layout):
    """``(reference input, library input)`` for one memory layout."""
    if layout == "C":
        return data, np.ascontiguousarray(data)
    if layout == "F":
        return data, np.asfortranarray(data)
    # A row range of the column-major copy, as a fleet shard sees it.
    start, stop = data.shape[0] // 5, data.shape[0] - data.shape[0] // 7
    return data[start:stop], np.asfortranarray(data)[start:stop]


# ----------------------------------------------------------------------
# Pins
# ----------------------------------------------------------------------
def test_euclidean_to_point(dataset, layout, chunks):
    data, medoid_points, _, seed = dataset
    ref_data, lib_data = arrange(data, layout)
    rng = np.random.default_rng(seed)
    off_data = rng.random(data.shape[1], dtype=np.float32) * data.max()
    for point in (*medoid_points[:3], data[-1], off_data):
        got = euclidean_to_point(lib_data, point)
        assert got.dtype == np.float32
        assert np.array_equal(got, ref_euclidean_to_point(ref_data, point))


def test_abs_diff_dim_sums(dataset, layout, chunks):
    data, medoid_points, _, seed = dataset
    rng = np.random.default_rng(seed)
    for fraction in (0.0, 0.02, 0.1, 0.3, 1.0):
        mask = rng.random(data.shape[0]) < fraction
        ref_points, lib_points = arrange(data[mask], layout)
        for medoid in medoid_points[:2]:
            got = abs_diff_dim_sums(lib_points, medoid)
            assert got.dtype == np.float64
            assert got.shape == (data.shape[1],)
            assert np.array_equal(got, ref_abs_diff_dim_sums(ref_points, medoid))


def test_segmental_distances(dataset, layout, chunks):
    data, medoid_points, dims, _ = dataset
    ref_data, lib_data = arrange(data, layout)
    got = segmental_distances(lib_data, medoid_points, dims)
    assert got.dtype == np.float64
    assert got.shape == (ref_data.shape[0], K)
    assert np.array_equal(got, ref_segmental_distances(ref_data, medoid_points, dims))


def test_assign_points(dataset, layout, chunks):
    data, medoid_points, dims, _ = dataset
    ref_data, lib_data = arrange(data, layout)
    labels, seg = assign_points(lib_data, medoid_points, dims)
    ref_labels, ref_seg = ref_assign_points(ref_data, medoid_points, dims)
    assert labels.dtype == np.int64
    assert np.array_equal(labels, ref_labels)
    assert np.array_equal(seg, ref_seg)


def test_evaluate_clusters(dataset, layout, chunks):
    data, medoid_points, dims, seed = dataset
    ref_data, lib_data = arrange(data, layout)
    rng = np.random.default_rng(seed)
    labels, _ = ref_assign_points(ref_data, medoid_points, dims)
    labels[rng.random(labels.shape[0]) < 0.05] = -1  # outliers
    labels[labels == 3] = -1  # an empty cluster
    assert not np.any(labels == 3)
    got = evaluate_clusters(lib_data, labels, dims)
    assert got == ref_evaluate_clusters(ref_data, labels, dims)
