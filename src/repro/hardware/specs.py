"""Hardware specifications of the paper's two evaluation machines.

The paper (Section 5) uses:

* a workstation with an Intel Core i7-9750H (2.6 GHz) and a GeForce
  GTX 1660 Ti (6 GB) for real-world and small/medium synthetic data, and
* a workstation with an Intel Core i9-10940X (3.3 GHz) and a GeForce
  RTX 3090 (24 GB) for the larger synthetic datasets.

The published architectural numbers below (SM counts, clocks, memory
bandwidth, occupancy limits) come from the vendor datasheets.  The
``*_eff`` fields are *calibration constants*: effective sustained
throughputs for the memory-access patterns PROCLUS exhibits (strided
float reads, atomic appends).  They are the only tuned quantities in
the cost models and are chosen once so that the modeled baseline
running time at the paper's default workload is in the paper's ballpark;
all *relative* results (speedups, crossovers, scaling shapes) follow
from the operation counts, not from these constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "CpuSpec",
    "GpuSpec",
    "INTEL_I7_9750H",
    "INTEL_I9_10940X",
    "GTX_1660_TI",
    "RTX_3090",
    "gpu_for_problem",
    "cpu_for_problem",
]


@dataclass(frozen=True, slots=True)
class CpuSpec:
    """A CPU model used by the scalar and multi-core cost models.

    Attributes
    ----------
    name:
        Marketing name of the part.
    cores:
        Number of physical cores available to the multi-core model.
    clock_hz:
        Base clock.
    scalar_ops_per_s:
        Calibrated sustained scalar-operation throughput of a single
        core on PROCLUS-like loop nests (includes cache-miss stalls).
    vector_ops_per_s:
        Calibrated sustained throughput of a single core for the
        *vectorizable* inner loops (the compiler SIMD-izes the
        contiguous per-dimension loops of the C++ baseline).
    parallel_efficiency:
        Fraction of linear scaling achieved by the OpenMP version
        (below 1 because of scheduling and memory-bandwidth sharing).
    fork_join_overhead_s:
        Cost of entering/leaving one parallel region.
    """

    name: str
    cores: int
    clock_hz: float
    scalar_ops_per_s: float
    vector_ops_per_s: float
    parallel_efficiency: float
    fork_join_overhead_s: float


@dataclass(frozen=True, slots=True)
class GpuSpec:
    """A GPU model used by the kernel-level roofline cost model.

    Architectural limits mirror the CUDA occupancy rules; the two
    ``*_eff`` throughputs are calibrated sustained rates.
    """

    name: str
    sm_count: int
    cores_per_sm: int
    clock_hz: float
    memory_bytes: int
    mem_bandwidth_bytes_per_s: float
    #: Fraction of peak bandwidth a well-coalesced kernel sustains
    #: (the paper's Nsight numbers show ~86% for the heavy kernels).
    mem_bandwidth_efficiency: float
    #: Sustained global atomic operations per second across the device.
    atomic_ops_per_s: float
    #: Fixed host-side cost of launching one kernel.
    kernel_launch_overhead_s: float
    # --- occupancy limits (per SM) ---
    max_threads_per_sm: int
    max_threads_per_block: int
    max_blocks_per_sm: int
    registers_per_sm: int
    shared_mem_per_sm: int
    warp_size: int = 32
    #: Memory unavailable to the application (CUDA context, display).
    #: The paper reports only "4.2 GB of free memory" on the 6 GB card.
    reserved_bytes: int = 0
    # --- interconnect (multi-device fleets) ---
    #: Sustained device-to-device bandwidth for collective steps.  PCIe
    #: 3.0 x16 class by default; NVLink-class parts override it.  A
    #: link between two devices runs at the slower endpoint's rate.
    interconnect_bandwidth_bytes_per_s: float = 12e9
    #: Per-hop latency of one collective step on this device's link.
    interconnect_latency_s: float = 1.5e-6

    @property
    def usable_bytes(self) -> int:
        """Memory available to the application."""
        return self.memory_bytes - self.reserved_bytes

    @property
    def core_count(self) -> int:
        """Total CUDA core count."""
        return self.sm_count * self.cores_per_sm

    @property
    def peak_flops(self) -> float:
        """Peak single-precision FLOP/s (FMA counted as two)."""
        return self.core_count * self.clock_hz * 2.0

    @property
    def effective_bandwidth(self) -> float:
        """Sustained global-memory bandwidth in bytes/s."""
        return self.mem_bandwidth_bytes_per_s * self.mem_bandwidth_efficiency

    def resident_blocks(
        self,
        threads_per_block: int,
        registers_per_thread: int,
        smem_bytes_per_block: int,
    ) -> tuple[int, str]:
        """Blocks of a launch that fit on one SM, and the binding limit.

        The CUDA occupancy rules: per-SM block, thread, register and
        shared-memory budgets, threads rounded up to whole warps.  0
        blocks means the launch cannot run at all.
        """
        threads_rounded = (
            math.ceil(threads_per_block / self.warp_size) * self.warp_size
        )
        limits = {
            "blocks": self.max_blocks_per_sm,
            "threads": max(
                1, self.max_threads_per_sm // max(threads_rounded, 1)
            ),
        }
        regs_per_block = registers_per_thread * threads_rounded
        if regs_per_block > 0:
            # A block whose registers exceed the SM's file cannot launch
            # at all (cudaErrorLaunchOutOfResources on real hardware).
            limits["registers"] = self.registers_per_sm // regs_per_block
        if smem_bytes_per_block > 0:
            limits["shared memory"] = (
                self.shared_mem_per_sm // smem_bytes_per_block
            )
        limiter = min(limits, key=limits.get)  # type: ignore[arg-type]
        return limits[limiter], limiter


#: CPU of the small/medium workstation (6 physical cores, 12 threads).
INTEL_I7_9750H = CpuSpec(
    name="Intel Core i7-9750H",
    cores=6,
    clock_hz=2.6e9,
    scalar_ops_per_s=6.0e7,
    vector_ops_per_s=4.2e8,
    parallel_efficiency=0.85,
    fork_join_overhead_s=8e-6,
)

#: CPU of the large workstation (14 physical cores).
INTEL_I9_10940X = CpuSpec(
    name="Intel Core i9-10940X",
    cores=14,
    clock_hz=3.3e9,
    scalar_ops_per_s=7.5e7,
    vector_ops_per_s=5.2e8,
    parallel_efficiency=0.85,
    fork_join_overhead_s=8e-6,
)

#: GPU of the small/medium workstation (Turing TU116, 6 GB).
GTX_1660_TI = GpuSpec(
    name="GeForce GTX 1660 Ti",
    sm_count=24,
    cores_per_sm=64,
    clock_hz=1.77e9,
    memory_bytes=6 * 1024**3,
    mem_bandwidth_bytes_per_s=288e9,
    mem_bandwidth_efficiency=0.86,
    atomic_ops_per_s=2.0e9,
    kernel_launch_overhead_s=4.0e-6,
    max_threads_per_sm=1024,
    max_threads_per_block=1024,
    max_blocks_per_sm=16,
    registers_per_sm=65536,
    shared_mem_per_sm=64 * 1024,
    reserved_bytes=int(1.8 * 1024**3),
)

#: GPU of the large workstation (Ampere GA102, 24 GB).
RTX_3090 = GpuSpec(
    name="GeForce RTX 3090",
    sm_count=82,
    cores_per_sm=128,
    clock_hz=1.70e9,
    memory_bytes=24 * 1024**3,
    mem_bandwidth_bytes_per_s=936e9,
    mem_bandwidth_efficiency=0.86,
    atomic_ops_per_s=4.0e9,
    kernel_launch_overhead_s=4.0e-6,
    max_threads_per_sm=1536,
    max_threads_per_block=1024,
    max_blocks_per_sm=16,
    registers_per_sm=65536,
    shared_mem_per_sm=100 * 1024,
    reserved_bytes=int(1.2 * 1024**3),
    # GA102 exposes NVLink (112.5 GB/s per direction on the 3090);
    # model a conservative sustained rate and a shorter hop latency.
    interconnect_bandwidth_bytes_per_s=56e9,
    interconnect_latency_s=0.7e-6,
)

#: Threshold above which the paper moves experiments to the big machine.
_LARGE_PROBLEM_POINTS = 2**21


def gpu_for_problem(n: int) -> GpuSpec:
    """Return the GPU the paper would use for an ``n``-point dataset.

    The paper runs datasets up to about a million points on the
    GTX 1660 Ti and moves larger synthetic sweeps to the RTX 3090.
    """
    return RTX_3090 if n >= _LARGE_PROBLEM_POINTS else GTX_1660_TI


def cpu_for_problem(n: int) -> CpuSpec:
    """Return the CPU paired with :func:`gpu_for_problem`."""
    return INTEL_I9_10940X if n >= _LARGE_PROBLEM_POINTS else INTEL_I7_9750H
