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
import threading

import numpy as np

from ..exceptions import DeviceError, DeviceOutOfMemoryError, ParameterError
from ..obs.tracer import current_run

__all__ = ["MemoryManager", "MemoryBudget"]


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


class MemoryBudget:
    """Thread-safe reservation ledger against a modeled device capacity.

    Where :class:`MemoryManager` tracks the *actual* allocations of one
    engine run, ``MemoryBudget`` tracks *planned* footprints across
    concurrent runs: the serving layer reserves each job's estimated
    device bytes before it starts and releases them when it finishes,
    so the sum of concurrently running jobs never exceeds the modeled
    card's capacity (:attr:`~repro.hardware.specs.GpuSpec.usable_bytes`).

    :meth:`reserve` blocks until the reservation fits (or the timeout
    expires); a request larger than the whole capacity is permanently
    infeasible and raises :class:`~repro.exceptions.DeviceOutOfMemoryError`
    immediately.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if not isinstance(capacity_bytes, (int, np.integer)) or isinstance(
            capacity_bytes, bool
        ):
            raise ParameterError(
                f"capacity must be an int, got {type(capacity_bytes).__name__}"
            )
        if capacity_bytes <= 0:
            raise ParameterError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = int(capacity_bytes)
        self.reserved_bytes = 0
        self.peak_reserved_bytes = 0
        self.waits = 0  #: reservations that had to block for space
        self._cond = threading.Condition()

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.reserved_bytes

    def fits(self, nbytes: int) -> bool:
        """Whether ``nbytes`` could ever be reserved (ignores current load)."""
        return int(nbytes) <= self.capacity_bytes

    def reserve(self, nbytes: int, timeout: float | None = None) -> None:
        """Reserve ``nbytes``, blocking while the device is full.

        Raises
        ------
        DeviceOutOfMemoryError
            When ``nbytes`` exceeds the total capacity (never fits), or
            when ``timeout`` seconds pass without space freeing up.
        """
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ParameterError(f"cannot reserve {nbytes} bytes")
        if nbytes > self.capacity_bytes:
            raise DeviceOutOfMemoryError(
                nbytes, self.free_bytes, self.capacity_bytes
            )
        with self._cond:
            if nbytes > self.capacity_bytes - self.reserved_bytes:
                self.waits += 1
                satisfied = self._cond.wait_for(
                    lambda: nbytes <= self.capacity_bytes - self.reserved_bytes,
                    timeout=timeout,
                )
                if not satisfied:
                    raise DeviceOutOfMemoryError(
                        nbytes, self.capacity_bytes - self.reserved_bytes,
                        self.capacity_bytes,
                    )
            self.reserved_bytes += nbytes
            self.peak_reserved_bytes = max(
                self.peak_reserved_bytes, self.reserved_bytes
            )

    def release(self, nbytes: int) -> None:
        """Release a reservation made with :meth:`reserve`."""
        nbytes = int(nbytes)
        with self._cond:
            if nbytes > self.reserved_bytes:
                raise DeviceError(
                    f"releasing {nbytes} B but only "
                    f"{self.reserved_bytes} B are reserved"
                )
            self.reserved_bytes -= nbytes
            self._cond.notify_all()
