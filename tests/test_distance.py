"""Tests for the exact-accumulation distance primitives.

The order-independence (exactness) of these sums is the property that
makes the paper's "all variants produce the same clustering" claim
bitwise-testable; these tests exercise it directly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.distance import (
    MAX_EXACT_POINTS,
    abs_diff_dim_sums,
    euclidean_distances,
    euclidean_to_point,
    segmental_distances,
)
from repro.fleet.partition import tree_merge

unit_floats = st.floats(0.0, 1.0, width=32)


def unit_matrix(max_n=40, max_d=8):
    return hnp.arrays(
        dtype=np.float32,
        shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1,
                               max_side=max_n).filter(lambda s: s[1] <= max_d),
        elements=unit_floats,
    )


class TestEuclidean:
    def test_distance_to_self_is_zero(self):
        data = np.random.default_rng(0).random((50, 6), dtype=np.float32)
        d = euclidean_to_point(data, data[13])
        assert d[13] == 0.0

    def test_matches_numpy_reference(self):
        data = np.random.default_rng(1).random((100, 5), dtype=np.float32)
        point = data[0]
        ref = np.linalg.norm(data.astype(np.float64) - point.astype(np.float64), axis=1)
        got = euclidean_to_point(data, point)
        assert np.allclose(got, ref, atol=1e-5)

    def test_returns_float32(self):
        data = np.random.default_rng(2).random((10, 3), dtype=np.float32)
        assert euclidean_to_point(data, data[0]).dtype == np.float32

    def test_euclidean_distances_stacks_rows(self):
        data = np.random.default_rng(3).random((30, 4), dtype=np.float32)
        points = data[:5]
        full = euclidean_distances(data, points)
        assert full.shape == (5, 30)
        for i in range(5):
            assert np.array_equal(full[i], euclidean_to_point(data, points[i]))

    def test_single_point_promoted_to_2d(self):
        data = np.random.default_rng(4).random((10, 3), dtype=np.float32)
        out = euclidean_distances(data, data[2])
        assert out.shape == (1, 10)

    @given(unit_matrix())
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, data):
        d_ab = euclidean_to_point(data, data[0])
        d_from_each = np.array(
            [euclidean_to_point(data[i : i + 1], data[0])[0] for i in range(len(data))]
        )
        assert np.array_equal(d_ab, d_from_each)


class TestExactness:
    """Sums of f32 terms in [0, 2) accumulate exactly in f64."""

    def test_dim_sums_order_independent(self):
        rng = np.random.default_rng(5)
        points = rng.random((500, 6), dtype=np.float32)
        medoid = points[0]
        full = abs_diff_dim_sums(points, medoid)
        # Any permutation must give the bitwise-identical sum.
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(len(points))
            assert np.array_equal(abs_diff_dim_sums(points[perm], medoid), full)

    def test_dim_sums_split_and_recombine(self):
        """The incremental-H identity: sum(A ∪ B) == sum(A) + sum(B)."""
        rng = np.random.default_rng(6)
        points = rng.random((301, 4), dtype=np.float32)
        medoid = rng.random(4, dtype=np.float32)
        for cut in (1, 57, 150, 300):
            a = abs_diff_dim_sums(points[:cut], medoid)
            b = abs_diff_dim_sums(points[cut:], medoid)
            assert np.array_equal(a + b, abs_diff_dim_sums(points, medoid))

    def test_dim_sums_removal_is_exact(self):
        """sum(A ∪ B) - sum(B) == sum(A): the shrink branch of Thm 3.2."""
        rng = np.random.default_rng(7)
        points = rng.random((200, 5), dtype=np.float32)
        medoid = rng.random(5, dtype=np.float32)
        whole = abs_diff_dim_sums(points, medoid)
        part = abs_diff_dim_sums(points[120:], medoid)
        assert np.array_equal(whole - part, abs_diff_dim_sums(points[:120], medoid))

    def test_empty_set_sums_to_zero(self):
        out = abs_diff_dim_sums(np.zeros((0, 4), dtype=np.float32), np.zeros(4, dtype=np.float32))
        assert out.shape == (4,)
        assert np.all(out == 0.0)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("chunk_rows", [None, 7])
    def test_dim_sums_over_rows_match_the_gathered_points(
        self, order, chunk_rows, monkeypatch
    ):
        """Raw (unnormalized) data, where sums can round: gathering the
        selected rows inside must add in the same order as passing them."""
        from repro.core import distance

        if chunk_rows is not None:
            monkeypatch.setattr(distance, "_CHUNK_ROWS", chunk_rows)
        rng = np.random.default_rng(8)
        points = np.asarray(
            rng.lognormal(0.0, 3.0, (300, 6)).astype(np.float32), order=order
        )
        medoid = points[3]
        for fraction in (0.0, 0.05, 0.5, 1.0):
            rows = np.flatnonzero(rng.random(len(points)) < fraction)
            assert np.array_equal(
                abs_diff_dim_sums(points, medoid, rows),
                abs_diff_dim_sums(points[rows], medoid),
            )

    @pytest.mark.parametrize("chunk_rows", [None, 7])
    def test_partials_at_cuts_match_a_call_per_part(
        self, chunk_rows, monkeypatch
    ):
        """Raw data, where sums can round: each partial of one gathered
        block has the bits of a call on its part's rows alone."""
        from repro.core import distance

        if chunk_rows is not None:
            monkeypatch.setattr(distance, "_CHUNK_ROWS", chunk_rows)
        rng = np.random.default_rng(9)
        points = np.asfortranarray(
            rng.lognormal(0.0, 3.0, (400, 5)).astype(np.float32)
        )
        medoid = points[7]
        for fraction in (0.0, 0.1, 0.6, 1.0):
            rows = np.flatnonzero(rng.random(len(points)) < fraction)
            bounds = [0, 90, 90, 250, 400]
            cuts = np.searchsorted(rows, bounds).tolist()
            partials = abs_diff_dim_sums(points, medoid, rows, cuts)
            assert partials.shape == (4, 5)
            assert partials.dtype == np.float64
            for partial, low, high in zip(partials, cuts, cuts[1:]):
                expected = abs_diff_dim_sums(points, medoid, rows[low:high])
                assert partial.tobytes() == expected.tobytes()

    @given(unit_matrix(max_n=30, max_d=5), st.integers(0, 29))
    @settings(max_examples=30, deadline=None)
    def test_property_split_identity(self, points, cut):
        cut = min(cut, points.shape[0])
        medoid = points[0]
        a = abs_diff_dim_sums(points[:cut], medoid)
        b = abs_diff_dim_sums(points[cut:], medoid)
        assert np.array_equal(a + b, abs_diff_dim_sums(points, medoid))

    def test_max_exact_points_documented_bound(self):
        assert MAX_EXACT_POINTS == 2**28

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 3: a term below 0.5 has bits finer than "
        "2**-24, so sums joining tiny and unit-sized terms can round",
    )
    def test_merged_halves_equal_one_pass_with_tiny_terms(self):
        """The exact-sum hole, checked: 50 rows scaled below 1e-6 and
        the medoid at 0 give terms with bits finer than a float64 sum of
        thousands of unit-sized terms can hold, so the two halves'
        partials merged by ``tree_merge`` differ from the one-pass sum
        (by 1.8e-12 in two of the four dimensions here).  Strict, so it
        fails the day the sums become order-independent."""
        rng = np.random.default_rng(0)
        n = 30_000
        points = rng.random((n, 4), dtype=np.float32)
        points[rng.choice(n, 50, replace=False)] *= np.float32(1e-6)
        medoid = np.zeros(4, dtype=np.float32)
        rows = np.flatnonzero(rng.random(n) < 0.9)
        cuts = [0, len(rows) // 2, len(rows)]
        merged = tree_merge(abs_diff_dim_sums(points, medoid, rows, cuts))
        assert np.array_equal(merged, abs_diff_dim_sums(points, medoid, rows))


class TestSegmental:
    def test_segmental_is_mean_abs_difference(self):
        data = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], dtype=np.float32)
        medoids = np.array([[0.0, 0.0, 0.0]], dtype=np.float32)
        seg = segmental_distances(data, medoids, ((0, 2),))
        assert seg.shape == (2, 1)
        assert seg[0, 0] == 0.0
        assert seg[1, 0] == pytest.approx(1.0)

    def test_uses_only_selected_dimensions(self):
        data = np.array([[0.0, 9.0], [0.0, 0.0]], dtype=np.float32)
        medoids = np.array([[0.0, 0.0]], dtype=np.float32)
        seg = segmental_distances(data, medoids, ((0,),))
        assert seg[0, 0] == 0.0  # dim 1's big difference is ignored

    def test_normalizes_by_subspace_size(self):
        data = np.array([[1.0, 1.0, 1.0, 1.0]], dtype=np.float32)
        medoids = np.array([[0.0, 0.0, 0.0, 0.0]], dtype=np.float32)
        one = segmental_distances(data, medoids, ((0,),))[0, 0]
        four = segmental_distances(data, medoids, ((0, 1, 2, 3),))[0, 0]
        assert one == pytest.approx(four)

    def test_multiple_medoids_different_subspaces(self):
        data = np.random.default_rng(8).random((20, 5), dtype=np.float32)
        medoids = data[:2]
        seg = segmental_distances(data, medoids, ((0, 1), (2, 3, 4)))
        assert seg.shape == (20, 2)
        assert seg[0, 0] == 0.0
        assert seg[1, 1] == 0.0
