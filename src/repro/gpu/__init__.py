"""Simulated CUDA-like GPU substrate.

The paper's contribution is a set of CUDA kernels; this environment has
no GPU, so the package provides:

* :mod:`repro.gpu.memory` — a device memory manager that books each
  allocation's bytes (no kernel reads device contents: the numeric
  executor computes on host arrays) with capacity enforcement (a 6 GB
  GTX 1660 Ti really does run out of memory at ~8M points, as the
  paper reports) and peak tracking used by the Fig. 3f space
  experiment;
* :mod:`repro.gpu.emulator` — a faithful SIMT emulator (grids, blocks,
  threads, ``__syncthreads`` barriers, shared memory, atomics) used to
  validate the vectorized kernel implementations thread-for-thread on
  small inputs;
* :mod:`repro.gpu.occupancy` — a CUDA occupancy calculator reproducing
  the Nsight-style theoretical/achieved occupancy numbers of Sec. 5.4;
* :mod:`repro.gpu.device` — the device facade tying memory, kernel
  launches, and the roofline cost model together.
"""

from .device import Device
from .memory import MemoryManager
from .emulator import SimtEmulator, ThreadContext
from .occupancy import OccupancyReport, occupancy_report
from .profiler import KernelProfile, format_kernel_profile, profile_kernels
from .checker import ScheduleCheckResult, check_schedule_independence
from .sanitizer import (
    Diagnostic,
    Sanitizer,
    SanitizerReport,
    TrackedArray,
    sanitize_launch,
)
from . import atomics

__all__ = [
    "Device",
    "MemoryManager",
    "SimtEmulator",
    "ThreadContext",
    "OccupancyReport",
    "occupancy_report",
    "KernelProfile",
    "profile_kernels",
    "format_kernel_profile",
    "ScheduleCheckResult",
    "check_schedule_independence",
    "Diagnostic",
    "Sanitizer",
    "SanitizerReport",
    "TrackedArray",
    "sanitize_launch",
    "atomics",
]
