"""Any GPU atomic order gives the same sums, checked at kernel level.

The ``X`` and ``H`` kernels below add float64 values with
``atomic_add`` in whatever order their threads run;
:func:`repro.gpu.checker.check_schedule_independence` replays each
launch under shuffled warp schedules and compares every output bit for
bit.  The ``X`` sums (Algorithm 4) and FAST's incremental ``H`` update
(Theorem 3.2) add float64 sums of float32 terms, which are exact on
min-max-normalized generator data, so every order gives the same bits.
Inputs whose tiny terms break that exactness are pinned by the strict
xfail in ``tests/test_distance.py``.

The ``Z`` kernel's ``Y`` and ``sigma`` add float64 quotients and
squares that round, so it adds them in one fixed order from
block-shared arrays instead of with atomics, and its ``Y``, ``sigma``
and ``Z`` keep their bits under every schedule too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distance import abs_diff_dim_sums, euclidean_distances
from repro.data import generate_subspace_data, minmax_normalize
from repro.gpu.checker import check_schedule_independence
from repro.gpu.emulator import SimtEmulator
from repro.gpu_impl.kernels.compute_l import pad_sets
from repro.gpu_impl.kernels.fast_compute_l import _h_update_kernel
from repro.gpu_impl.kernels.find_dimensions import (
    _x_sums_kernel,
    _z_kernel,
    x_emulated,
)

N, D, K = 300, 6, 4
#: The engines' threads per block.
THREADS = 32
SCHEDULES = 8
SEEDS = (0, 1, 2)


def _spheres(seed: int):
    """Normalized generator data, ``K`` medoids, their ``(K, N)``
    distance rows and Algorithm 3's sphere ``L_i`` of each medoid."""
    data = minmax_normalize(
        generate_subspace_data(n=N, d=D, n_clusters=K, seed=seed).data
    )
    medoids = np.random.default_rng(seed).choice(N, K, replace=False)
    dist = euclidean_distances(data, data[medoids])
    spheres = []
    for i in range(K):
        delta = min(dist[i, medoids[j]] for j in range(K) if j != i)
        spheres.append(np.flatnonzero(dist[i] <= delta))
    return data, medoids, dist, spheres


@pytest.mark.parametrize("seed", SEEDS)
def test_x_sums_are_schedule_independent(seed):
    data, medoids, _, spheres = _spheres(seed)
    l_sets, l_sizes = pad_sets(spheres, N)
    result = check_schedule_independence(
        _x_sums_kernel, (D, K), THREADS,
        data, data[medoids], l_sets, l_sizes, np.zeros((K, D)),
        schedules=SCHEDULES, exact=True,
    )
    assert result.independent, result.max_differences


@pytest.mark.parametrize("seed", SEEDS)
def test_h_update_is_schedule_independent(seed):
    """Even medoids' spheres grow (lambda = +1) and odd ones shrink
    (lambda = -1): ``H`` starts as the exact sums over the previous
    sphere, and the kernel adds lambda times the sums over the points
    between the two radii."""
    data, medoids, dist, _ = _spheres(seed)
    inner = np.quantile(dist, 0.3, axis=1)
    outer = np.quantile(dist, 0.6, axis=1)
    lam = np.where(np.arange(K) % 2 == 0, 1, -1).astype(np.int64)
    previous = np.where(lam > 0, inner, outer)
    h = np.stack([
        abs_diff_dim_sums(
            data, data[medoid], np.flatnonzero(dist[i] <= previous[i])
        )
        for i, medoid in enumerate(medoids)
    ])
    dl_sets, dl_sizes = pad_sets(
        [
            np.flatnonzero((dist[i] > inner[i]) & (dist[i] <= outer[i]))
            for i in range(K)
        ],
        N,
    )
    result = check_schedule_independence(
        _h_update_kernel, (D, K), THREADS,
        data, medoids, np.arange(K), lam, dl_sets, dl_sizes, h,
        schedules=SCHEDULES, exact=True,
    )
    assert result.independent, result.max_differences


def test_z_is_schedule_independent():
    for seed in SEEDS:
        data, medoids, _, spheres = _spheres(seed)
        l_sets, l_sizes = pad_sets(spheres, N)
        x = x_emulated(data, data[medoids], l_sets, l_sizes, SimtEmulator())
        result = check_schedule_independence(
            _z_kernel, K, min(THREADS, D),
            x, np.zeros(K), np.zeros(K), np.zeros((K, D)),
            schedules=SCHEDULES, exact=True,
        )
        assert result.independent, (seed, result.max_differences)
