"""Pin the chunked primitives, the label pass and the launch memo.

No per-point value may depend on where chunks fall or which rows share
a call: for random shapes and data, with ``_CHUNK_ROWS`` patched small
(so one-row chunks occur), ``euclidean_to_point``,
``segmental_distances`` and ``assign_points`` must return the bits of
the unchunked call, and a call on any row range the bits of those rows
of the call on all rows.  The data mixes scales (entries shrunk by up
to 1e-12), so the sums round and a changed order of additions shows.

``assign_points`` labels from the ``(k, n)`` buffer behind ``seg``:
:func:`_first_min_rows` must equal ``np.argmin(seg, axis=1)`` as int64
on buffers with planted ties, ``+inf`` entries, k = 1 and k = 100.

``GpuModel`` keeps each launch geometry's utilizations: every launch
must cost what a fresh model makes of it.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import distance
from repro.core.distance import euclidean_to_point, segmental_distances
from repro.core.phases import _first_min_rows, assign_points
from repro.hardware.cost_model import GpuModel
from repro.hardware.counters import KernelLaunch
from repro.hardware.specs import GTX_1660_TI, RTX_3090


def same_bits(got, expected):
    got, expected = np.ascontiguousarray(got), np.ascontiguousarray(expected)
    return (
        got.dtype == expected.dtype
        and got.shape == expected.shape
        and got.tobytes() == expected.tobytes()
    )


def mixed_scale(rng, shape):
    return (rng.random(shape) * 10.0 ** rng.integers(-12, 3, size=shape)
            ).astype(np.float32)


@st.composite
def problems(draw):
    """Mixed-scale data, medoids, subspaces, a row range, a chunk size."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 20))
    k = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = mixed_scale(rng, (n, d))
    medoids = mixed_scale(rng, (k, d))
    dims = tuple(
        tuple(sorted(rng.choice(d, size=int(rng.integers(1, d + 1)),
                                replace=False).tolist()))
        for _ in range(k)
    )
    low = draw(st.integers(0, n - 1))
    high = draw(st.integers(low + 1, n))
    chunk = draw(st.sampled_from((1, 2, 3, 7, distance._CHUNK_ROWS)))
    return data, medoids, dims, (low, high), chunk


def chunked(fn, data, *args, chunk):
    """``fn`` on the column-major copy, with ``chunk``-row chunks."""
    with mock.patch.object(distance, "_CHUNK_ROWS", chunk):
        return fn(np.asfortranarray(data), *args)


class TestChunkingChangesNoBit:
    @settings(max_examples=300, deadline=None)
    @given(problem=problems())
    def test_euclidean_to_point(self, problem):
        data, medoids, _, (low, high), chunk = problem
        expected = euclidean_to_point(data, medoids[0])
        assert same_bits(
            chunked(euclidean_to_point, data, medoids[0], chunk=chunk),
            expected,
        )
        assert same_bits(
            euclidean_to_point(data[low:high], medoids[0]),
            expected[low:high],
        )

    @settings(max_examples=300, deadline=None)
    @given(problem=problems())
    def test_segmental_distances(self, problem):
        data, medoids, dims, (low, high), chunk = problem
        expected = segmental_distances(data, medoids, dims)
        assert same_bits(
            chunked(segmental_distances, data, medoids, dims, chunk=chunk),
            expected,
        )
        assert same_bits(
            segmental_distances(data[low:high], medoids, dims),
            expected[low:high],
        )

    @settings(max_examples=300, deadline=None)
    @given(problem=problems())
    def test_assign_points(self, problem):
        data, medoids, dims, (low, high), chunk = problem
        labels, seg = assign_points(data, medoids, dims)
        got_labels, got_seg = chunked(assign_points, data, medoids, dims,
                                      chunk=chunk)
        assert same_bits(got_labels, labels)
        assert same_bits(got_seg, seg)
        part_labels, part_seg = assign_points(data[low:high], medoids, dims)
        assert same_bits(part_labels, labels[low:high])
        assert same_bits(part_seg, seg[low:high])

    def test_one_point_of_many_dimensions(self):
        # A one-point call must add its terms in dimension order, as
        # every wider call does (NumPy would sum one column pairwise).
        # The float64 segmental distances show a changed order; the
        # Euclidean ones round to float32, which hides it, so the
        # shared helper is pinned on its own as well.
        rng = np.random.default_rng(5)
        n, d = 12, 40
        block = mixed_scale(rng, (d, 2))
        assert same_bits(distance._add_rows(block[:, :1]),
                         distance._add_rows(block)[:1])
        data = mixed_scale(rng, (n, d))
        medoids = data[[0, 5]]
        dims = (tuple(range(d)), tuple(range(0, d, 2)))
        distances = euclidean_to_point(data, medoids[0])
        seg = segmental_distances(data, medoids, dims)
        for row in range(n):
            one = data[row:row + 1]
            assert same_bits(euclidean_to_point(one, medoids[0]),
                             distances[row:row + 1])
            assert same_bits(segmental_distances(one, medoids, dims),
                             seg[row:row + 1])


# ----------------------------------------------------------------------
# First-match labels
# ----------------------------------------------------------------------
def ref_labels(buffer):
    return np.argmin(buffer.T, axis=1).astype(np.int64)


#: Buffers drawn from a few values, so ties (and all-inf columns) are
#: common.
buffers = st.tuples(st.integers(1, 12), st.integers(0, 30)).flatmap(
    lambda shape: hnp.arrays(
        np.float64, shape,
        elements=st.sampled_from((0.0, 0.25, 0.5, 1.0, 3.0, np.inf)),
    )
)


@settings(max_examples=300, deadline=None)
@given(buffer=buffers)
def test_first_min_rows_with_ties_and_inf(buffer):
    got = _first_min_rows(buffer)
    assert got.dtype == np.int64
    assert np.array_equal(got, ref_labels(buffer))


@pytest.mark.parametrize("k", [1, 2, 100])
def test_first_min_rows_random(k):
    rng = np.random.default_rng(k)
    buffer = rng.random((k, 5000)).round(2)  # rounding plants ties
    buffer[rng.random((k, 5000)) < 0.1] = np.inf
    buffer[:, :50] = np.inf  # whole columns of inf
    assert np.array_equal(_first_min_rows(buffer), ref_labels(buffer))
    # What assign_points passes: the C-ordered buffer behind seg.
    seg = np.ascontiguousarray(buffer).T
    assert np.array_equal(_first_min_rows(seg.T), ref_labels(buffer))


# ----------------------------------------------------------------------
# Launch geometry memo
# ----------------------------------------------------------------------
#: Few values per geometry field, so a stream often repeats a geometry
#: in all fields but one (each of which can change the occupancy).
launches = st.builds(
    KernelLaunch,
    name=st.sampled_from(("assign_points", "greedy.pick")),
    phase=st.just("assign_points"),
    grid_blocks=st.sampled_from((1, 24, 300, 20_000)),
    threads_per_block=st.sampled_from((32, 96, 1024)),
    flops=st.floats(0.0, 1e10),
    gmem_bytes=st.floats(0.0, 1e10),
    atomic_ops=st.floats(0.0, 1e6),
    smem_bytes_per_block=st.sampled_from((0, 49_152)),
    registers_per_thread=st.sampled_from((0, 32, 64, 255)),
    ipc=st.sampled_from((0.25, 1.0)),
)


@settings(max_examples=100, deadline=None)
@given(stream=st.lists(launches, min_size=1, max_size=30),
       spec=st.sampled_from((GTX_1660_TI, RTX_3090)))
def test_geometry_memo_matches_a_fresh_model(stream, spec):
    model = GpuModel(spec)
    for launch in stream:
        fresh = GpuModel(spec)
        assert model._utilization(launch) == fresh._utilization(launch)
        assert model.roofline_terms(launch) == fresh.roofline_terms(launch)
        assert model.launch_time(launch) == fresh.launch_time(launch)
        assert model.dominant_component(launch) == (
            fresh.dominant_component(launch)
        )
        assert model.launch(launch) == fresh.launch(launch)
        assert model.events[-1] == fresh.events[-1]
