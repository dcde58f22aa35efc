"""Pin the reuse of segmental-distance rows across calls.

``segmental_distances`` and ``assign_points``, given an earlier call's
``(medoid_points, dimensions, result)`` on the same data, copy the row
of every medoid whose float32 coordinates and subspace that call also
had, at any slot, and build the others.  On mixed-scale data (entries
shrunk by up to 1e-12, so the sums round and a changed order of
additions shows), with ``_CHUNK_ROWS`` patched small and k = 1
included:

* a call given an earlier call's rows returns the bytes of a fresh
  call, whether the earlier call shares none, some (at permuted slots)
  or all of its (coordinates, ``D_i``) pairs;
* a marker planted in the earlier call's rows comes back for exactly
  the pairs that match; a pair that differs by one coordinate bit, or
  by one extra dimension, is built afresh.

An engine lends each ``assign_points`` call's rows to its next call
within one fit and drops them when the fit ends.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import base, distance
from repro.core.api import BACKENDS
from repro.core.distance import segmental_distances
from repro.core.phases import assign_points
from repro.data import generate_subspace_data, minmax_normalize
from repro.params import ProclusParams
from tests.test_chunk_and_launch_pins import mixed_scale, same_bits

#: How a slot of the earlier call relates to a slot of this call.
KINDS = ("same", "bit", "extra", "fresh")


@st.composite
def reuse_problems(draw):
    """Mixed-scale data, this call's medoids and subspaces, an earlier
    call's, which of its slots match this call's, and a chunk size.

    Each slot of the earlier call is an exact copy of one of this
    call's pairs (``same``, at most once per pair), a pair whose
    coordinates differ in one mantissa bit (``bit``) or whose subspace
    has one extra dimension (``extra``), or an unrelated pair.
    """
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 20))
    k = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def subspace():
        size = int(rng.integers(1, d + 1))
        return tuple(sorted(rng.choice(d, size=size, replace=False).tolist()))

    data = mixed_scale(rng, (n, d))
    medoids = mixed_scale(rng, (k, d))
    dims = tuple(subspace() for _ in range(k))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=7))
    shared = iter(rng.permutation(k).tolist())
    old_medoids, old_dims, matches = [], [], {}
    for kind in kinds:
        i = int(rng.integers(k))
        point, subspace_i = medoids[i].copy(), dims[i]
        if kind == "same":
            i = next(shared, None)
            if i is None:
                continue
            point, subspace_i = medoids[i].copy(), dims[i]
            matches[i] = len(old_dims)
        elif kind == "bit":
            point.view(np.uint32)[rng.integers(d)] ^= np.uint32(
                1 << int(rng.integers(23))
            )
        elif kind == "extra":
            spare = sorted(set(range(d)) - set(subspace_i))
            if not spare:
                continue
            subspace_i = tuple(sorted(subspace_i + (int(rng.choice(spare)),)))
        else:
            point, subspace_i = mixed_scale(rng, (d,)), subspace()
        old_medoids.append(point)
        old_dims.append(subspace_i)
    if not old_dims:
        old_medoids, old_dims = [mixed_scale(rng, (d,))], [subspace()]
    chunk = draw(st.sampled_from((1, 2, 3, 7, distance._CHUNK_ROWS)))
    return (
        np.asfortranarray(data), medoids, dims,
        np.array(old_medoids), tuple(old_dims), matches, chunk,
    )


@settings(max_examples=300, deadline=None)
@given(problem=reuse_problems())
def test_reused_rows_give_the_bytes_of_a_fresh_call(problem):
    data, medoids, dims, old_medoids, old_dims, _, chunk = problem
    fresh = segmental_distances(data, medoids, dims)
    fresh_labels, _ = assign_points(data, medoids, dims)
    with mock.patch.object(distance, "_CHUNK_ROWS", chunk):
        old = segmental_distances(data, old_medoids, old_dims)
        previous = (old_medoids, old_dims, old)
        got = segmental_distances(data, medoids, dims, previous)
        labels, seg = assign_points(data, medoids, dims, previous)
    assert same_bits(got, fresh)
    assert same_bits(seg, fresh)
    assert same_bits(labels, fresh_labels)


@settings(max_examples=300, deadline=None)
@given(problem=reuse_problems())
def test_planted_rows_come_back_for_exactly_the_matching_pairs(problem):
    data, medoids, dims, old_medoids, old_dims, matches, chunk = problem
    fresh = segmental_distances(data, medoids, dims)
    # A distance is never negative: each planted row is told apart.
    planted = np.empty((len(data), len(old_dims)), dtype=np.float64)
    planted[:] = -1.0 - np.arange(len(old_dims))
    with mock.patch.object(distance, "_CHUNK_ROWS", chunk):
        got = segmental_distances(
            data, medoids, dims, (old_medoids, old_dims, planted)
        )
    for i in range(len(dims)):
        expected = planted[:, matches[i]] if i in matches else fresh[:, i]
        assert same_bits(got[:, i], expected)


@pytest.mark.parametrize("backend", ["fast", "gpu-fast", "fleet-gpu-fast"])
def test_each_fit_lends_an_assign_call_s_rows_to_the_next(backend):
    data = minmax_normalize(generate_subspace_data(n=600, d=8, seed=4).data)
    params = ProclusParams(k=4, l=3, patience=6, max_iterations=6)
    calls = []

    def spy(columns, medoid_points, dims, previous=None):
        labels, seg = assign_points(columns, medoid_points, dims, previous)
        calls.append((previous, seg))
        return labels, seg

    engine = BACKENDS[backend](params=params, seed=2)
    with mock.patch.object(base, "assign_points", spy):
        result = engine.fit(data)
    # Every iteration's call, then the refinement's.
    assert len(calls) == result.iterations + 1
    assert calls[0][0] is None
    for (_, seg), (previous, _) in zip(calls, calls[1:]):
        assert previous[2] is seg
    assert engine._last_assign is None
