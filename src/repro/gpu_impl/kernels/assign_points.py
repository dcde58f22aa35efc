"""Algorithm 5 (AssignPoints) as an emulated SIMT kernel."""

from __future__ import annotations

import numpy as np

from ...gpu.atomics import atomic_inc, atomic_min
from ...gpu.emulator import SimtEmulator, ThreadContext

__all__ = ["assign_points_emulated", "pad_dims"]


def pad_dims(
    dimensions: tuple[tuple[int, ...], ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Pack the ``k`` subspaces into the device layout: a
    ``(k, max |D_i|)`` index array and the ``(k,)`` sizes ``|D_i|``."""
    k = len(dimensions)
    padded = np.zeros((k, max(len(dims) for dims in dimensions)), dtype=np.int64)
    sizes = np.zeros(k, dtype=np.int64)
    for i, dims in enumerate(dimensions):
        sizes[i] = len(dims)
        padded[i, : len(dims)] = dims
    return padded, sizes


def _segmental_f32(
    point: np.ndarray, medoid: np.ndarray, dims: tuple[int, ...]
) -> float:
    """Manhattan segmental distance with exact f64 accumulation."""
    acc = 0.0
    for j in dims:
        acc += float(np.float32(abs(np.float32(point[j] - medoid[j]))))
    return acc / len(dims)


def _assign_kernel(
    ctx: ThreadContext,
    data: np.ndarray,
    medoid_points: np.ndarray,
    dims_padded: np.ndarray,
    dims_count: np.ndarray,
    c_sets: np.ndarray,
    c_sizes: np.ndarray,
    labels: np.ndarray,
):
    """One block handles one point; its threads cover the k medoids.

    ``minDist_p`` lives in shared memory and is reduced with atomicMin;
    after the barrier, the winning medoid (lowest index on ties, for
    determinism) appends the point.
    """
    p = ctx.bx
    k = medoid_points.shape[0]
    min_dist = ctx.shared.array("min_dist", 1, np.float64, fill=np.inf)
    local = np.full(k, np.inf)
    for i in ctx.block_stride(k):
        dims = tuple(int(j) for j in dims_padded[i, : dims_count[i]])
        local[i] = _segmental_f32(data[p], medoid_points[i], dims)
        atomic_min(min_dist, 0, local[i])
    yield  # __syncthreads: all medoids checked before selecting
    # Deterministic tie-break: thread 0 scans medoids in order and the
    # first one matching the minimum wins (the paper lets any matching
    # thread append, which ties nondeterministically).
    if ctx.tx == 0:
        for i in range(k):
            dims = tuple(int(j) for j in dims_padded[i, : dims_count[i]])
            dist = _segmental_f32(data[p], medoid_points[i], dims)
            if dist == min_dist[0]:
                slot = atomic_inc(c_sizes, i)
                c_sets[i, slot] = p
                labels[p] = i
                break


def assign_points_emulated(
    data: np.ndarray,
    medoid_points: np.ndarray,
    dimensions: tuple[tuple[int, ...], ...],
    emulator: SimtEmulator | None = None,
    threads_per_block: int = 8,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run Algorithm 5 on the emulator; returns ``(labels, c_sets)``."""
    em = emulator if emulator is not None else SimtEmulator()
    n = data.shape[0]
    k = len(medoid_points)
    dims_padded, dims_count = pad_dims(dimensions)

    c_sets = np.full((k, n), -1, dtype=np.int64)
    c_sizes = np.zeros(k, dtype=np.int64)
    labels = np.full(n, -1, dtype=np.int64)
    em.launch(
        _assign_kernel,
        n,
        min(threads_per_block, max(1, k)),
        data,
        medoid_points,
        dims_padded,
        dims_count,
        c_sets,
        c_sizes,
        labels,
    )
    return labels, [c_sets[i, : c_sizes[i]] for i in range(k)]
