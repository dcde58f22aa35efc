"""Cross-validation: the cost model's accounting vs the emulator's reality.

The performance model charges each simulated launch with flop/byte/
atomic counts derived from formulas; the emulator actually *executes*
the kernels.  These tests run both on identical inputs and check that
the accounted quantities match what the emulated kernels really did —
the strongest internal-consistency check the substitution admits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.greedy import greedy_select
from repro.data.normalize import minmax_normalize
from repro.data.synthetic import generate_subspace_data
from repro.gpu.atomics import count_atomics
from repro.gpu.emulator import SimtEmulator
from repro.gpu_impl.kernels import (
    assign_points_emulated,
    compute_l_emulated,
    find_dimensions_emulated,
    pad_sets,
)


@pytest.fixture(scope="module")
def setting():
    ds = generate_subspace_data(n=200, d=6, n_clusters=3, subspace_dims=3, seed=9)
    data = minmax_normalize(ds.data)
    mids = greedy_select(data, 8, 2)[:4]
    return data, mids


class TestAtomicTrafficMatchesAccounting:
    def test_build_l_appends_once_per_sphere_member(self, setting):
        """Accounting charges `appended + k` atomics for build_l; the
        emulated kernel performs exactly |L_i| atomicIncs."""
        data, mids = setting
        with count_atomics() as counter:
            l_sets, delta, dist = compute_l_emulated(data, mids)
        appended = sum(len(s) for s in l_sets)
        # Atomics executed: delta kernel k*(k-1) atomicMins + appends.
        k = len(mids)
        assert counter[0] == appended + k * (k - 1)

    def test_assign_appends_once_per_point(self, setting):
        data, mids = setting
        l_sets, _, _ = compute_l_emulated(data, mids)
        n = data.shape[0]
        l_pad, l_sz = pad_sets(l_sets, n)
        dims, _ = find_dimensions_emulated(data, mids, l_pad, l_sz, 3)
        with count_atomics() as counter:
            labels, c_sets = assign_points_emulated(data, data[mids], dims)
        # Per point: k shared-memory atomicMins + 1 append.
        assert counter[0] == n * len(mids) + n
        assert sum(len(c) for c in c_sets) == n

    def test_x_sums_one_atomic_per_nonzero_block_thread(self, setting):
        """The paper's 'one atomic per thread at the end' strategy: the
        x-sums kernel performs at most (threads x k x d) atomics, far
        fewer than the sum's term count."""
        data, mids = setting
        l_sets, _, _ = compute_l_emulated(data, mids)
        l_pad, l_sz = pad_sets(l_sets, data.shape[0])
        threads = 32
        with count_atomics() as counter:
            find_dimensions_emulated(
                data, mids, l_pad, l_sz, 3, threads_per_block=threads
            )
        d = data.shape[1]
        k = len(mids)
        terms = sum(l_sz) * d
        # Far fewer atomics than terms (the local-partial strategy)...
        assert counter[0] < terms / 2
        # ...and bounded by one per (block, thread): the Z kernel adds
        # its terms from shared memory, with no atomics.
        assert counter[0] <= k * d * threads


class TestEmulatorLaunchCounts:
    def test_greedy_launch_count_matches_accounting(self, setting):
        """Accounting records 2 launches per pick; the emulated greedy
        performs exactly that (one distance pass + one arg-max check,
        with the first pick needing no check)."""
        from repro.gpu_impl.kernels import greedy_select_emulated

        data, _ = setting
        em = SimtEmulator()
        greedy_select_emulated(data, 6, 0, emulator=em)
        # 1 initial distance launch + 5 x (argmax + distance update).
        assert em.launches == 1 + 2 * 5

    def test_compute_l_is_three_kernels(self, setting):
        data, mids = setting
        em = SimtEmulator()
        compute_l_emulated(data, mids, emulator=em)
        assert em.launches == 3
