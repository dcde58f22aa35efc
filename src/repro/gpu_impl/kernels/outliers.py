"""RemoveOutliers (Section 4.1, last paragraph) as emulated kernels."""

from __future__ import annotations

import math

import numpy as np

from ...gpu.atomics import atomic_min
from ...gpu.emulator import SimtEmulator, ThreadContext
from .assign_points import _segmental_f32, pad_dims

__all__ = ["find_outliers_emulated"]


def _medoid_delta_kernel(
    ctx: ThreadContext,
    medoid_points: np.ndarray,
    dims_padded: np.ndarray,
    dims_count: np.ndarray,
    delta: np.ndarray,
) -> None:
    """Block per medoid i, thread per medoid j: smallest segmental
    distance between medoids within D_i."""
    i = ctx.bx
    k = medoid_points.shape[0]
    for j in ctx.block_stride(k):
        if j != i:
            dims = tuple(int(t) for t in dims_padded[i, : dims_count[i]])
            dist = _segmental_f32(medoid_points[j], medoid_points[i], dims)
            atomic_min(delta, i, dist)


def _check_kernel(
    ctx: ThreadContext,
    data: np.ndarray,
    medoid_points: np.ndarray,
    dims_padded: np.ndarray,
    dims_count: np.ndarray,
    delta: np.ndarray,
    outlier: np.ndarray,
) -> None:
    """Each point is an outlier unless it lies within some sphere."""
    k = medoid_points.shape[0]
    for p in ctx.grid_stride(data.shape[0]):
        inside = False
        for i in range(k):
            dims = tuple(int(t) for t in dims_padded[i, : dims_count[i]])
            if _segmental_f32(data[p], medoid_points[i], dims) <= delta[i]:
                inside = True
                break
        outlier[p] = not inside


def find_outliers_emulated(
    data: np.ndarray,
    medoid_points: np.ndarray,
    dimensions: tuple[tuple[int, ...], ...],
    emulator: SimtEmulator | None = None,
    threads_per_block: int = 32,
) -> np.ndarray:
    """Run the outlier detection on the emulator; returns a bool mask."""
    em = emulator if emulator is not None else SimtEmulator()
    n = data.shape[0]
    k = len(medoid_points)
    dims_padded, dims_count = pad_dims(dimensions)

    delta = np.full(k, np.inf, dtype=np.float64)
    em.launch(
        _medoid_delta_kernel,
        k,
        max(1, min(threads_per_block, k)),
        medoid_points,
        dims_padded,
        dims_count,
        delta,
    )

    outlier = np.zeros(n, dtype=bool)
    em.launch(
        _check_kernel,
        max(1, math.ceil(n / threads_per_block)),
        threads_per_block,
        data,
        medoid_points,
        dims_padded,
        dims_count,
        delta,
        outlier,
    )
    return outlier
