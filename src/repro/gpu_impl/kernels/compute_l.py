"""Algorithm 3 (ComputeL) as emulated SIMT kernels."""

from __future__ import annotations

import math

import numpy as np

from ...gpu.atomics import atomic_inc, atomic_min
from ...gpu.emulator import SimtEmulator, ThreadContext
from .greedy import _euclidean_f32

__all__ = ["compute_l_emulated", "pad_sets"]


def pad_sets(sets: list[np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pack ``k`` index sets over ``n`` points into the device layout
    of ``L`` and ``C``: a ``(k, n)`` array padded with -1 and the
    ``(k,)`` set sizes."""
    k = len(sets)
    padded = np.full((k, n), -1, dtype=np.int64)
    sizes = np.zeros(k, dtype=np.int64)
    for i, members in enumerate(sets):
        padded[i, : len(members)] = members
        sizes[i] = len(members)
    return padded, sizes


def _distances_kernel(
    ctx: ThreadContext,
    data: np.ndarray,
    medoid_points: np.ndarray,
    dist: np.ndarray,
) -> None:
    """Lines 1-3: distances from each medoid (block y) to each point."""
    i = ctx.by  # medoid block
    for p in ctx.grid_stride_x(data.shape[0]):
        dist[i, p] = _euclidean_f32(data[p], medoid_points[i])


def _delta_kernel(
    ctx: ThreadContext,
    medoid_ids: np.ndarray,
    dist: np.ndarray,
    delta: np.ndarray,
) -> None:
    """Lines 4-7: radius = distance to the closest other medoid."""
    i = ctx.bx
    j = ctx.tx
    if j < len(medoid_ids) and j != i:
        atomic_min(delta, i, dist[i, medoid_ids[j]])


def _build_l_kernel(
    ctx: ThreadContext,
    dist: np.ndarray,
    delta: np.ndarray,
    l_sets: np.ndarray,
    l_sizes: np.ndarray,
) -> None:
    """Lines 8-12: append the in-sphere points with atomicInc."""
    i = ctx.by
    for p in ctx.grid_stride_x(dist.shape[1]):
        if dist[i, p] <= delta[i]:
            slot = atomic_inc(l_sizes, i)
            l_sets[i, slot] = p


def compute_l_emulated(
    data: np.ndarray,
    medoid_ids: np.ndarray,
    emulator: SimtEmulator | None = None,
    threads_per_block: int = 32,
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Run Algorithm 3 on the emulator.

    Returns ``(l_sets, delta, dist)`` where ``l_sets[i]`` holds the
    point indices of ``L_i`` (in nondeterministic append order — the
    sets, not the order, are the algorithm's output), ``delta`` the
    sphere radii and ``dist`` the ``(k, n)`` distance matrix.
    """
    em = emulator if emulator is not None else SimtEmulator()
    n = data.shape[0]
    k = len(medoid_ids)
    medoid_points = data[medoid_ids]

    dist = np.empty((k, n), dtype=np.float32)
    em.launch(
        _distances_kernel,
        (max(1, math.ceil(n / threads_per_block)), k),
        threads_per_block,
        data,
        medoid_points,
        dist,
    )

    delta = np.full(k, np.inf, dtype=np.float32)
    em.launch(_delta_kernel, k, max(1, k), medoid_ids, dist, delta)

    l_sets = np.full((k, n), -1, dtype=np.int64)
    l_sizes = np.zeros(k, dtype=np.int64)
    em.launch(
        _build_l_kernel,
        (max(1, math.ceil(n / threads_per_block)), k),
        threads_per_block,
        dist,
        delta,
        l_sets,
        l_sizes,
    )
    sets = [l_sets[i, : l_sizes[i]] for i in range(k)]
    return sets, delta, dist
