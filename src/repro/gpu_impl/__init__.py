"""GPU-parallelized PROCLUS variants (Section 4 of the paper).

The engines here execute the same exact mathematics as their CPU
counterparts (guaranteeing identical clusterings) while routing every
piece of work through simulated kernel launches on a
:class:`~repro.gpu.device.Device`: allocations live in (and are limited
by) device memory, and each launch is costed by the roofline model with
the launch geometry of the paper's Algorithms 2-6.

:mod:`repro.gpu_impl.kernels` additionally contains faithful SIMT
implementations of the paper's kernels for the emulator; tests verify
them thread-for-thread against the vectorized phase math.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "gpu_proclus": ("GpuProclusEngine",),
    "gpu_fast": ("GpuFastProclusEngine",),
    "gpu_fast_star": ("GpuFastStarProclusEngine",),
})
