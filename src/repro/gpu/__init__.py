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

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "device": ("Device",),
    "memory": ("MemoryManager",),
    "emulator": ("SimtEmulator", "ThreadContext"),
    "occupancy": ("OccupancyReport", "occupancy_report"),
    "profiler": ("KernelProfile", "profile_kernels", "format_kernel_profile"),
    "checker": ("ScheduleCheckResult", "check_schedule_independence"),
    "sanitizer": (
        "Diagnostic",
        "Sanitizer",
        "SanitizerReport",
        "TrackedArray",
        "sanitize_launch",
    ),
    "atomics": ("atomics",),
})
