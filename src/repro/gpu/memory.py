"""Simulated device (global) memory as a byte ledger.

GPU-PROCLUS allocates all required memory once up front and reuses it
across iterations (Section 4.1).  No kernel reads device contents (the
numeric executor computes on host arrays), so an allocation is just its
size: the memory manager books bytes against the modeled card's
capacity — the paper reports that at 8,000,000 points space becomes the
limiting factor on the 6 GB GTX 1660 Ti — and tracks the peak
footprint, which the Fig. 3f experiment compares across algorithm
variants.
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import DeviceOutOfMemoryError, ParameterError
from ..obs.tracer import current_run

__all__ = ["MemoryManager"]


class MemoryManager:
    """Books allocations, in bytes, against a fixed device capacity."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ParameterError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = int(capacity_bytes)
        self.allocated_bytes = 0
        self.peak_bytes = 0

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.allocated_bytes

    def alloc(
        self,
        shape: int | tuple[int, ...],
        dtype: np.dtype | type = np.float32,
        name: str = "unnamed",
    ) -> None:
        """Book an array of ``shape`` and ``dtype`` (raises when full)."""
        if isinstance(shape, (int, np.integer)):
            shape = (shape,)
        nbytes = math.prod(map(int, shape)) * np.dtype(dtype).itemsize
        injector = current_run().injector
        if injector is not None:
            injector.on_alloc(name, nbytes, self.free_bytes, self.capacity_bytes)
        if nbytes > self.free_bytes:
            raise DeviceOutOfMemoryError(nbytes, self.free_bytes, self.capacity_bytes)
        self.allocated_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.allocated_bytes)

    def free_all(self) -> None:
        """Release every booking (device reset); the peak stays."""
        self.allocated_bytes = 0
