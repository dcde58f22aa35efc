"""Differential conformance: emulated kernels vs the vectorized math.

For each of the seven kernel pipelines, randomized small inputs are run
through the SIMT emulator (under the kernel sanitizer, in-order and
shuffled) and compared against the vectorized reference implementation
the engines use.  Comparisons are bit-exact except for the evaluate
kernel, whose float64 atomic accumulation of cost terms is documented
as order-sensitive in the last bits (compared with rel=1e-12).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.distance import (
    abs_diff_dim_sums,
    euclidean_distances,
    euclidean_to_point,
)
from repro.core.greedy import greedy_select
from repro.core.phases import (
    assign_points,
    evaluate_clusters,
    find_dimensions,
    find_outliers,
)
from repro.core.state import MedoidCache
from repro.gpu_impl.kernels import (
    assign_points_emulated,
    compute_l_emulated,
    evaluate_clusters_emulated,
    fast_compute_l_emulated,
    find_dimensions_emulated,
    find_outliers_emulated,
    greedy_select_emulated,
    pad_sets,
)

pytestmark = pytest.mark.sanitized

#: seed -> (n, d, k, l): deliberately awkward sizes (n not a block
#: multiple, k near d) so indexing corners get exercised.
CASES = {0: (17, 3, 3, 2), 1: (23, 4, 4, 3), 2: (34, 5, 4, 3)}


@pytest.fixture(params=sorted(CASES), ids=lambda s: f"seed{s}")
def case(request):
    n, d, k, l = CASES[request.param]
    rng = np.random.default_rng(request.param)
    data = rng.random((n, d), dtype=np.float32)
    medoid_ids = np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)
    return data, medoid_ids, k, l


class TestGreedyConformance:
    def test_matches_vectorized(self, case, sanitized_emulator):
        data, medoid_ids, k, _ = case
        seed_idx = int(medoid_ids[0])
        ref = greedy_select(data, k + 2, seed_idx)
        got = greedy_select_emulated(
            data, k + 2, seed_idx, emulator=sanitized_emulator,
            threads_per_block=8,
        )
        assert np.array_equal(ref, got)


class TestComputeLConformance:
    def test_matches_vectorized(self, case, sanitized_emulator):
        data, medoid_ids, k, _ = case
        l_sets, delta, dist = compute_l_emulated(
            data, medoid_ids, emulator=sanitized_emulator,
            threads_per_block=8,
        )
        assert np.array_equal(dist, euclidean_distances(data, data[medoid_ids]))
        medoid_dist = dist[:, medoid_ids].copy()
        np.fill_diagonal(medoid_dist, np.inf)
        assert np.array_equal(delta, medoid_dist.min(axis=1))
        for i in range(k):
            expected = set(np.flatnonzero(dist[i] <= delta[i]).tolist())
            assert set(l_sets[i].tolist()) == expected


class TestFindDimensionsConformance:
    def test_matches_vectorized(self, case, sanitized_emulator):
        data, medoid_ids, k, l = case
        l_sets, delta, dist = compute_l_emulated(data, medoid_ids)
        padded, sizes = pad_sets(l_sets, data.shape[0])
        dims, x = find_dimensions_emulated(
            data, medoid_ids, padded, sizes, l,
            emulator=sanitized_emulator, threads_per_block=8,
        )
        for i in range(k):
            mask = dist[i] <= delta[i]
            expected = abs_diff_dim_sums(data[mask], data[medoid_ids[i]])
            assert np.array_equal(x[i], expected / mask.sum())
        assert dims == find_dimensions(x, l)


class TestAssignPointsConformance:
    def test_matches_vectorized(self, case, sanitized_emulator):
        data, medoid_ids, k, l = case
        l_sets, _, _ = compute_l_emulated(data, medoid_ids)
        padded, sizes = pad_sets(l_sets, data.shape[0])
        dims, _ = find_dimensions_emulated(data, medoid_ids, padded, sizes, l)
        labels, c_sets = assign_points_emulated(
            data, data[medoid_ids], dims, emulator=sanitized_emulator,
            threads_per_block=8,
        )
        ref_labels, _ = assign_points(data, data[medoid_ids], dims)
        assert np.array_equal(labels, ref_labels)
        assert sorted(np.concatenate(c_sets).tolist()) == list(
            range(data.shape[0])
        )


class TestEvaluateConformance:
    def test_matches_within_documented_tolerance(self, case, sanitized_emulator):
        data, medoid_ids, k, l = case
        l_sets, _, _ = compute_l_emulated(data, medoid_ids)
        padded, sizes = pad_sets(l_sets, data.shape[0])
        dims, _ = find_dimensions_emulated(data, medoid_ids, padded, sizes, l)
        labels, c_sets = assign_points_emulated(data, data[medoid_ids], dims)
        c_pad, c_sizes = pad_sets(c_sets, data.shape[0])
        cost = evaluate_clusters_emulated(
            data, c_pad, c_sizes, dims, emulator=sanitized_emulator,
            threads_per_block=8,
        )
        # float64 atomic accumulation: order-sensitive in the last bits.
        assert cost == pytest.approx(
            evaluate_clusters(data, labels, dims), rel=1e-12
        )


class TestOutliersConformance:
    def test_matches_vectorized(self, case, sanitized_emulator):
        data, medoid_ids, k, l = case
        l_sets, _, _ = compute_l_emulated(data, medoid_ids)
        padded, sizes = pad_sets(l_sets, data.shape[0])
        dims, _ = find_dimensions_emulated(data, medoid_ids, padded, sizes, l)
        _, segmental = assign_points(data, data[medoid_ids], dims)
        ref = find_outliers(segmental, data[medoid_ids], dims)
        got = find_outliers_emulated(
            data, data[medoid_ids], dims, emulator=sanitized_emulator,
            threads_per_block=8,
        )
        assert np.array_equal(ref, got)


def _fast_reference(
    data: np.ndarray,
    pool: np.ndarray,
    midx: np.ndarray,
    cache: MedoidCache,
) -> tuple[np.ndarray, np.ndarray]:
    """The vectorized FAST ComputeL+X round, mirroring
    FastProclusEngine._compute_l_and_x on an explicit cache."""
    d = data.shape[1]
    k = len(midx)
    medoid_ids = pool[midx]
    for mi in midx[~cache.dist_found[midx]]:
        cache.dist[mi] = euclidean_to_point(data, data[pool[mi]])
        cache.dist_found[mi] = True
    medoid_dist = cache.dist[midx][:, medoid_ids]
    np.fill_diagonal(medoid_dist, np.inf)
    delta = medoid_dist.min(axis=1)
    x = np.zeros((k, d), dtype=np.float64)
    sizes = np.zeros(k, dtype=np.int64)
    for i, mi in enumerate(midx):
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
            point = data[pool[mi]]
            cache.h[mi] += lam * abs_diff_dim_sums(data[mask], point)
            cache.size_l[mi] += lam * count
        cache.prev_delta[mi] = current
        sizes[i] = cache.size_l[mi]
        x[i] = cache.h[mi] / cache.size_l[mi]
    return x, sizes


class TestFastComputeLConformance:
    def test_matches_vectorized_across_rounds(self, case, sanitized_emulator):
        """Two rounds over one persistent cache — the cold path (all
        distance rows missing) and the warm incremental path — stay
        bitwise identical to the vectorized FAST engine's state."""
        data, _, k, _ = case
        n, d = data.shape
        rng = np.random.default_rng(99)
        m = min(n, 2 * k)
        pool = np.sort(rng.choice(n, size=m, replace=False)).astype(np.int64)
        cache_em = MedoidCache.create(m, n, d)
        cache_ref = MedoidCache.create(m, n, d)
        rounds = (
            np.arange(k, dtype=np.int64),
            np.sort(rng.choice(m, size=k, replace=False)).astype(np.int64),
        )
        for midx in rounds:
            x_em, sizes_em = fast_compute_l_emulated(
                data, pool[midx], midx,
                cache_em.dist, cache_em.dist_found, cache_em.h,
                cache_em.prev_delta, cache_em.size_l,
                emulator=sanitized_emulator, threads_per_block=8,
            )
            x_ref, sizes_ref = _fast_reference(data, pool, midx, cache_ref)
            assert np.array_equal(x_em, x_ref)
            assert np.array_equal(sizes_em, sizes_ref)
            for fld in dataclasses.fields(MedoidCache):
                got = getattr(cache_em, fld.name)
                expected = getattr(cache_ref, fld.name)
                assert np.array_equal(got, expected), fld.name
