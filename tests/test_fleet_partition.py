"""Property tests for the fleet's partitioner and all-reduce merge.

These two primitives carry the determinism contract of
:mod:`repro.fleet` (see ``docs/fleet.md``): `split_exact` must
apportion points with zero drift, and merging per-shard partial sums
must reproduce the single-pass statistics *bit for bit* for any
partition and any shard order.  The float-exactness argument is the
repository's accumulation doctrine: float32 terms in ``[0, 2)`` summed
into float64 accumulators round nowhere, so sums are associative in
practice; data is quantized onto a ``2**-12`` grid here to keep every
intermediate exactly representable by construction.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import abs_diff_dim_sums, euclidean_to_point
from repro.exceptions import ParameterError
from repro.fleet import ShardPlan, split_exact, tree_merge
from repro.fleet.partition import largest_remainder, row_axis, shard_shape

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
weights_strategy = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-3, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=8,
).filter(lambda ws: sum(ws) > 0)


@st.composite
def quantized_data(draw, max_n=64, max_d=6):
    """float32 arrays on the 2**-12 grid in [0, 1] — exactly summable."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    d = draw(st.integers(min_value=1, max_value=max_d))
    grid = draw(
        st.lists(
            st.integers(min_value=0, max_value=4096),
            min_size=n * d, max_size=n * d,
        )
    )
    return (np.array(grid, dtype=np.float32) / 4096.0).reshape(n, d)


@st.composite
def partition_of(draw, n, max_parts=5):
    """Uneven cut points of range(n) into 1..max_parts contiguous parts."""
    parts = draw(st.integers(min_value=1, max_value=max_parts))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=n),
                min_size=parts - 1, max_size=parts - 1,
            )
        )
    )
    bounds = [0, *cuts, n]
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


# ----------------------------------------------------------------------
# split_exact
# ----------------------------------------------------------------------
class TestSplitExact:
    @given(total=st.integers(min_value=0, max_value=100_000),
           weights=weights_strategy)
    def test_counts_sum_to_total_exactly(self, total, weights):
        counts = split_exact(total, weights)
        assert sum(counts) == total
        assert len(counts) == len(weights)
        assert all(count >= 0 for count in counts)

    @given(total=st.integers(min_value=0, max_value=100_000),
           weights=weights_strategy)
    def test_zero_weights_get_zero_points(self, total, weights):
        counts = split_exact(total, weights)
        for weight, count in zip(weights, counts):
            if weight == 0.0:
                assert count == 0

    @given(total=st.integers(min_value=0, max_value=100_000),
           weights=weights_strategy,
           scale=st.integers(min_value=-10, max_value=10).map(lambda e: 2.0**e))
    def test_scale_invariance(self, total, weights, scale):
        """A power-of-two scale scales every float quota exactly."""
        scaled = [weight * scale for weight in weights]
        assert split_exact(total, scaled) == split_exact(total, weights)

    def test_other_scales_keep_the_quota_rule(self):
        """Other scales round the quotas differently, so a spare item
        may go to another near-tied remainder; both splits stay within
        one item of every exact share."""
        weights = [0.01, 0.001, 0.001]
        for scale in (1.0, 0.001):
            scaled = [weight * scale for weight in weights]
            counts = split_exact(4, scaled)
            assert sum(counts) == 4
            for weight, count in zip(weights, counts):
                ideal = 4 * weight / sum(weights)
                assert np.floor(ideal) <= count <= np.ceil(ideal)

    @given(total=st.integers(min_value=0, max_value=100_000),
           weights=weights_strategy)
    def test_quota_property(self, total, weights):
        """Largest remainder stays within one item of the ideal share."""
        counts = split_exact(total, weights)
        total_weight = sum(weights)
        for weight, count in zip(weights, counts):
            ideal = total * weight / total_weight
            assert np.floor(ideal) <= count <= np.ceil(ideal)

    @given(total=st.integers(min_value=0, max_value=10**9),
           weights=weights_strategy)
    def test_unchecked_core_matches(self, total, weights):
        """``largest_remainder`` is ``split_exact`` after its checks."""
        if sum(weights) <= 0:
            return
        floats = [float(w) for w in weights]
        assert largest_remainder(total, floats) == split_exact(total, weights)

    def test_rejects_all_zero_weights(self):
        with pytest.raises(ParameterError):
            split_exact(10, [0.0, 0.0])

    def test_plan_ranges_are_contiguous(self):
        plan = ShardPlan(n=10, counts=(4, 0, 6))
        assert plan.ranges() == ((0, 4), (4, 4), (4, 10))


# ----------------------------------------------------------------------
# tree_merge vs single-pass statistics
# ----------------------------------------------------------------------
class TestMergeExactness:
    @given(data=st.data())
    @settings(max_examples=60)
    def test_dim_sums_merge_any_partition(self, data):
        """Per-part abs-diff sums tree-merge to the solo bits for any
        uneven partition of the rows."""
        points = data.draw(quantized_data())
        medoid = points[data.draw(
            st.integers(min_value=0, max_value=len(points) - 1)
        )]
        parts = data.draw(partition_of(len(points)))
        solo = abs_diff_dim_sums(points, medoid)
        partials = [
            abs_diff_dim_sums(points[start:stop], medoid)
            for start, stop in parts
            if stop > start
        ]
        merged = tree_merge(partials)
        assert merged.dtype == solo.dtype
        assert np.array_equal(merged, solo)

    @given(data=st.data())
    @settings(max_examples=60)
    def test_dim_sums_merge_any_shard_permutation(self, data):
        """The merged statistic is independent of shard order."""
        points = data.draw(quantized_data())
        medoid = points[0]
        parts = [
            part for part in data.draw(partition_of(len(points)))
            if part[1] > part[0]
        ]
        partials = [
            abs_diff_dim_sums(points[start:stop], medoid)
            for start, stop in parts
        ]
        permutation = data.draw(st.permutations(range(len(partials))))
        merged = tree_merge([partials[i] for i in permutation])
        assert np.array_equal(merged, tree_merge(partials))

    @given(data=st.data())
    @settings(max_examples=60)
    def test_per_row_kernels_concatenate(self, data):
        """Per-row outputs (distances) concatenate to the solo bits —
        the row-partition side of the contract."""
        points = data.draw(quantized_data())
        medoid = points[-1]
        parts = data.draw(partition_of(len(points)))
        solo = euclidean_to_point(points, medoid)
        pieces = [
            euclidean_to_point(points[start:stop], medoid)
            for start, stop in parts
            if stop > start
        ]
        assert np.array_equal(np.concatenate(pieces), solo)

    def test_tree_merge_fixed_topology(self):
        """Adjacent-pairs reduction, not a running left fold."""
        parts = [np.array([float(i)]) for i in range(5)]
        assert tree_merge(parts)[0] == 10.0
        single = tree_merge([np.array([7.0])])
        assert single[0] == 7.0

    def test_tree_merge_takes_a_stacked_array(self):
        """A stacked array merges pair by pair like the list of its rows."""
        rng = np.random.default_rng(4)
        for shards in range(1, 7):
            stacked = rng.lognormal(0.0, 3.0, (shards, 5))
            merged = tree_merge(stacked)
            assert merged.tobytes() == tree_merge(list(stacked)).tobytes()
            level = list(stacked)
            while len(level) > 1:
                level = [
                    level[i] + level[i + 1] if i + 1 < len(level) else level[i]
                    for i in range(0, len(level), 2)
                ]
            assert merged.tobytes() == level[0].tobytes()
        with pytest.raises(ParameterError):
            tree_merge(np.zeros((0, 3)))


class TestRowAxis:
    def test_first_n_sized_axis(self):
        assert row_axis((100, 8), 100) == 0
        assert row_axis((4, 100), 100) == 1
        assert row_axis((100, 100), 100) == 0
        assert row_axis((4, 8), 100) is None

    def test_shard_shape_cuts_that_axis(self):
        assert shard_shape((4, 100), 100, 30) == (4, 30)
        assert shard_shape((100, 8), 100, 30) == (30, 8)
        assert shard_shape((4, 8), 100, 30) == (4, 8)
