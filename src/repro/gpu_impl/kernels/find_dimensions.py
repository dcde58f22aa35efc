"""Algorithm 4 (FindDimensions) as emulated SIMT kernels."""

from __future__ import annotations

import math

import numpy as np

from ...gpu.atomics import atomic_add
from ...gpu.emulator import SimtEmulator, ThreadContext
from ...core.phases import pick_dimensions

__all__ = ["find_dimensions_emulated", "x_emulated", "z_emulated"]


def _x_sums_kernel(
    ctx: ThreadContext,
    data: np.ndarray,
    medoid_points: np.ndarray,
    l_sets: np.ndarray,
    l_sizes: np.ndarray,
    x: np.ndarray,
) -> None:
    """Lines 1-6: per-(medoid, dimension) average of |p_j - m_ij|.

    Each thread accumulates a local partial sum over its share of
    ``L_i`` and performs a single atomic add at the end — the paper's
    strategy for reducing atomic traffic.  The raw sum of float32 terms
    is exact in float64, so the atomic ordering cannot change it; the
    driver divides by ``|L_i|`` once afterwards (the paper's pseudocode
    divides each partial, which is the same value up to one rounding).
    """
    i, j = ctx.by, ctx.bx
    size = int(l_sizes[i])
    local = 0.0
    for t in ctx.block_stride(size):
        p = l_sets[i, t]
        local += float(np.float32(abs(np.float32(data[p, j] - medoid_points[i, j]))))
    if local:
        atomic_add(x, (i, j), local)


def _z_kernel(
    ctx: ThreadContext,
    x: np.ndarray,
    y: np.ndarray,
    sigma: np.ndarray,
    z: np.ndarray,
):
    """Lines 7-14: combined Y / sigma / Z computation with barriers."""
    i = ctx.bx
    d = x.shape[1]
    for j in ctx.block_stride(d):
        atomic_add(y, i, x[i, j] / d)
    yield  # __syncthreads: Y_i complete before deviations
    for j in ctx.block_stride(d):
        dev = x[i, j] - y[i]
        atomic_add(sigma, i, dev * dev)
    yield  # __syncthreads: sigma sum complete
    if ctx.tx == 0 and d > 1:
        sigma[i] = math.sqrt(sigma[i] / (d - 1))
    yield  # __syncthreads: sigma finalized
    for j in ctx.block_stride(d):
        z[i, j] = (x[i, j] - y[i]) / sigma[i] if sigma[i] > 0 else 0.0


def x_emulated(
    data: np.ndarray,
    medoid_points: np.ndarray,
    sets: np.ndarray,
    sizes: np.ndarray,
    emulator: SimtEmulator,
    threads_per_block: int = 32,
) -> np.ndarray:
    """Lines 1-6 on the emulator: each medoid's ``X`` row, averaged over
    its padded index set (``sets``/``sizes`` as from
    :func:`~repro.gpu_impl.kernels.compute_l.pad_sets`;
    an empty set's row stays zero)."""
    k = len(medoid_points)
    x = np.zeros((k, data.shape[1]), dtype=np.float64)
    emulator.launch(
        _x_sums_kernel,
        (data.shape[1], k),
        threads_per_block,
        data,
        medoid_points,
        sets,
        sizes,
        x,
    )
    x /= np.maximum(sizes[:k].astype(np.float64), 1.0)[:, None]
    return x


def z_emulated(
    x: np.ndarray, emulator: SimtEmulator, threads_per_block: int = 32
) -> np.ndarray:
    """Lines 7-14 on the emulator: the standardized ``Z`` of ``X``."""
    k, d = x.shape
    y = np.zeros(k, dtype=np.float64)
    sigma = np.zeros(k, dtype=np.float64)
    z = np.zeros((k, d), dtype=np.float64)
    emulator.launch(_z_kernel, k, min(threads_per_block, d), x, y, sigma, z)
    return z


def find_dimensions_emulated(
    data: np.ndarray,
    medoid_ids: np.ndarray,
    l_sets: np.ndarray,
    l_sizes: np.ndarray,
    l: int,
    emulator: SimtEmulator | None = None,
    threads_per_block: int = 32,
) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Run Algorithm 4 on the emulator; returns ``(dimensions, x)``.

    ``l_sets``/``l_sizes`` are the padded sphere arrays produced by
    :func:`~repro.gpu_impl.kernels.compute_l.compute_l_emulated`'s
    kernels.  The final pick of the ``k*l`` lowest-Z dimensions (lines
    15-16) is the shared host-side
    :func:`~repro.core.phases.pick_dimensions`, as the CUDA code does
    for this tiny ``k x d`` problem.
    """
    em = emulator if emulator is not None else SimtEmulator()
    x = x_emulated(
        data, data[medoid_ids], l_sets, l_sizes, em, threads_per_block
    )
    return pick_dimensions(z_emulated(x, em, threads_per_block), l), x
