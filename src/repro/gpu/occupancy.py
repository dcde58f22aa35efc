"""CUDA occupancy calculator, reproducing the Section 5.4 utilization study.

The paper reports NVIDIA Nsight Compute readings (theoretical occupancy,
achieved occupancy, memory throughput) for the most interesting kernels.
Both quantities are closed-form functions of the launch configuration
and the SM resource limits:

* *theoretical occupancy* — resident warps per SM divided by the SM's
  maximum warps, where the number of resident blocks is limited by the
  per-SM thread, block, register, and shared-memory budgets;
* *achieved occupancy* — the same ratio using the number of blocks that
  actually land on an SM: when a launch has fewer blocks than would fill
  the device (e.g. the ``k x k`` medoid-distance kernel of Algorithm 3),
  each active SM holds only one small block and the achieved occupancy
  collapses, exactly as the paper's 3.12 % reading shows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..hardware.specs import GpuSpec

__all__ = ["OccupancyReport", "occupancy_report"]


@dataclass(frozen=True, slots=True)
class OccupancyReport:
    """Occupancy figures for one kernel launch on one GPU."""

    gpu: str
    grid_blocks: int
    threads_per_block: int
    resident_blocks_per_sm: int
    theoretical_occupancy: float
    achieved_occupancy: float
    limiter: str

    def as_percentages(self) -> tuple[float, float]:
        """Return ``(theoretical %, achieved %)`` like Nsight prints them."""
        return (
            round(self.theoretical_occupancy * 100.0, 2),
            round(self.achieved_occupancy * 100.0, 2),
        )


def occupancy_report(
    spec: GpuSpec,
    grid_blocks: int,
    threads_per_block: int,
    registers_per_thread: int = 32,
    smem_bytes_per_block: int = 0,
) -> OccupancyReport:
    """Compute theoretical and achieved occupancy for a launch."""
    if grid_blocks < 1 or threads_per_block < 1:
        raise ValueError(
            f"invalid launch grid={grid_blocks} block={threads_per_block}"
        )
    if threads_per_block > spec.max_threads_per_block:
        raise ValueError(
            f"block size {threads_per_block} exceeds device limit "
            f"{spec.max_threads_per_block}"
        )
    resident, limiter = spec.resident_blocks(
        threads_per_block, registers_per_thread, smem_bytes_per_block
    )
    if resident < 1:
        raise ValueError(
            f"a {threads_per_block}-thread block with "
            f"{registers_per_thread} registers/thread and "
            f"{smem_bytes_per_block} B shared memory cannot launch on "
            f"{spec.name} (per-SM {limiter} budget exceeded)"
        )
    warps_per_block = math.ceil(threads_per_block / spec.warp_size)
    max_warps = spec.max_threads_per_sm // spec.warp_size
    theoretical = min(1.0, resident * warps_per_block / max_warps)
    # Blocks that actually land on each active SM (round-robin placement).
    # A launch with fewer blocks than SMs leaves each active SM with a
    # single block, so achieved occupancy is that one block's warps over
    # the SM's warp capacity (the paper's 3.12 % for the k x k kernel).
    blocks_on_active_sm = min(resident, math.ceil(grid_blocks / spec.sm_count))
    achieved = min(1.0, blocks_on_active_sm * warps_per_block / max_warps)
    achieved = min(achieved, theoretical)
    return OccupancyReport(
        gpu=spec.name,
        grid_blocks=grid_blocks,
        threads_per_block=threads_per_block,
        resident_blocks_per_sm=resident,
        theoretical_occupancy=theoretical,
        achieved_occupancy=achieved,
        limiter=limiter,
    )
