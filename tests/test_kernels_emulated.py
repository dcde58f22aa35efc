"""Emulated CUDA kernels (Algorithms 2-6) vs the vectorized phase math.

These are the reproduction's kernel-correctness tests: each of the
paper's kernels, executed thread by thread on the SIMT emulator (with
shuffled scheduling to expose ordering bugs), must produce exactly the
results of the vectorized implementations the engines run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distance import abs_diff_dim_sums, euclidean_distances
from repro.core.greedy import greedy_select
from repro.core.phases import (
    assign_points,
    evaluate_clusters,
    find_dimensions,
    find_outliers,
)
from repro.gpu.emulator import SimtEmulator
from repro.gpu.sanitizer import Sanitizer
from repro.gpu_impl.kernels import (
    assign_points_emulated,
    compute_l_emulated,
    evaluate_clusters_emulated,
    find_dimensions_emulated,
    find_outliers_emulated,
    greedy_select_emulated,
    pad_sets,
)

pytestmark = pytest.mark.sanitized

K = 4
L = 3


@pytest.fixture(scope="module")
def setting(tiny_dataset_module):
    data, _ = tiny_dataset_module
    medoid_ids = greedy_select(data, 8, 3)[:K]
    return data, medoid_ids


@pytest.fixture(scope="module")
def tiny_dataset_module():
    from repro.data.normalize import minmax_normalize
    from repro.data.synthetic import generate_subspace_data

    ds = generate_subspace_data(n=150, d=6, n_clusters=3, subspace_dims=3, seed=11)
    return minmax_normalize(ds.data), ds


@pytest.fixture(params=[None, 1, 2], ids=["inorder", "shuffle1", "shuffle2"])
def emulator(request):
    em = SimtEmulator(schedule_seed=request.param, sanitizer=Sanitizer())
    yield em
    report = em.sanitizer.report
    assert report.ok, report.render()


class TestGreedyKernel:
    def test_matches_vectorized(self, tiny_dataset_module, emulator):
        data, _ = tiny_dataset_module
        ref = greedy_select(data, 10, 5)
        got = greedy_select_emulated(data, 10, 5, emulator=emulator)
        assert np.array_equal(ref, got)

    def test_different_seed_point(self, tiny_dataset_module):
        data, _ = tiny_dataset_module
        for seed_idx in (0, 42, 149):
            assert np.array_equal(
                greedy_select(data, 6, seed_idx),
                greedy_select_emulated(data, 6, seed_idx),
            )


class TestComputeLKernel:
    def test_distances_match(self, setting, emulator):
        data, mids = setting
        _, _, dist = compute_l_emulated(data, mids, emulator=emulator)
        assert np.array_equal(dist, euclidean_distances(data, data[mids]))

    def test_delta_is_min_medoid_distance(self, setting, emulator):
        data, mids = setting
        _, delta, dist = compute_l_emulated(data, mids, emulator=emulator)
        md = dist[:, mids].copy()
        np.fill_diagonal(md, np.inf)
        assert np.allclose(delta, md.min(axis=1))

    def test_l_sets_match_sphere_membership(self, setting, emulator):
        data, mids = setting
        l_sets, delta, dist = compute_l_emulated(data, mids, emulator=emulator)
        for i in range(K):
            expected = set(np.flatnonzero(dist[i] <= delta[i]).tolist())
            assert set(l_sets[i].tolist()) == expected

    def test_medoid_inside_own_sphere(self, setting):
        data, mids = setting
        l_sets, _, _ = compute_l_emulated(data, mids)
        for i, mid in enumerate(mids):
            assert mid in set(l_sets[i].tolist())


def _padded_l(data, mids):
    l_sets, delta, dist = compute_l_emulated(data, mids)
    return *pad_sets(l_sets, data.shape[0]), delta, dist


class TestFindDimensionsKernel:
    def test_x_bitwise_equal_to_reference(self, setting, emulator):
        data, mids = setting
        padded, sizes, delta, dist = _padded_l(data, mids)
        _, x = find_dimensions_emulated(data, mids, padded, sizes, L, emulator=emulator)
        for i in range(K):
            mask = dist[i] <= delta[i]
            expected = abs_diff_dim_sums(data[mask], data[mids[i]]) / mask.sum()
            assert np.array_equal(x[i], expected)

    def test_selection_matches_reference(self, setting, emulator):
        data, mids = setting
        padded, sizes, delta, dist = _padded_l(data, mids)
        dims, x = find_dimensions_emulated(
            data, mids, padded, sizes, L, emulator=emulator
        )
        assert dims == find_dimensions(x, L)

    def test_budget(self, setting):
        data, mids = setting
        padded, sizes, _, _ = _padded_l(data, mids)
        dims, _ = find_dimensions_emulated(data, mids, padded, sizes, L)
        assert sum(len(d) for d in dims) == K * L
        assert all(len(d) >= 2 for d in dims)


class TestAssignAndEvaluateKernels:
    @pytest.fixture()
    def dims(self, setting):
        data, mids = setting
        padded, sizes, _, _ = _padded_l(data, mids)
        d, _ = find_dimensions_emulated(data, mids, padded, sizes, L)
        return d

    def test_assignment_matches(self, setting, dims, emulator):
        data, mids = setting
        labels_em, _ = assign_points_emulated(
            data, data[mids], dims, emulator=emulator
        )
        labels_ref, _ = assign_points(data, data[mids], dims)
        assert np.array_equal(labels_em, labels_ref)

    def test_c_sets_partition_points(self, setting, dims):
        data, mids = setting
        _, c_sets = assign_points_emulated(data, data[mids], dims)
        all_points = np.concatenate(c_sets)
        assert sorted(all_points.tolist()) == list(range(data.shape[0]))

    def test_cost_matches_reference(self, setting, dims, emulator):
        data, mids = setting
        labels, c_sets = assign_points_emulated(data, data[mids], dims)
        c_pad, c_sz = pad_sets(c_sets, data.shape[0])
        cost_em = evaluate_clusters_emulated(data, c_pad, c_sz, dims, emulator=emulator)
        cost_ref = evaluate_clusters(data, labels, dims)
        assert cost_em == pytest.approx(cost_ref, rel=1e-12)


class TestOutlierKernel:
    def test_matches_reference(self, setting, emulator):
        data, mids = setting
        padded, sizes, _, _ = _padded_l(data, mids)
        dims, _ = find_dimensions_emulated(data, mids, padded, sizes, L)
        _, seg = assign_points(data, data[mids], dims)
        ref = find_outliers(seg, data[mids], dims)
        got = find_outliers_emulated(data, data[mids], dims, emulator=emulator)
        assert np.array_equal(ref, got)
