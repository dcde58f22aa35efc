"""Simulated device (global) memory with capacity and peak tracking.

GPU-PROCLUS allocates all required memory once up front and reuses it
across iterations (Section 4.1).  The memory manager enforces the
modeled card's capacity — the paper reports that at 8,000,000 points
space becomes the limiting factor on the 6 GB GTX 1660 Ti — and tracks
the peak footprint, which the Fig. 3f experiment compares across
algorithm variants.
"""

from __future__ import annotations

import threading
from typing import Iterator

import numpy as np

from ..exceptions import DeviceError, DeviceOutOfMemoryError, ParameterError
from ..obs.tracer import current_run

__all__ = ["DeviceArray", "MemoryManager", "MemoryBudget"]


class DeviceArray:
    """A named array living in simulated device global memory.

    The backing store is a NumPy array; ``DeviceArray`` exists to make
    allocation explicit (so footprints are accountable) and to prevent
    use-after-free in kernel code.
    """

    def __init__(self, manager: "MemoryManager", name: str, data: np.ndarray) -> None:
        self._manager = manager
        self.name = name
        self._data: np.ndarray | None = data

    @property
    def data(self) -> np.ndarray:
        """The backing NumPy array (raises if the array was freed)."""
        if self._data is None:
            raise DeviceError(f"use after free of device array {self.name!r}")
        return self._data

    @property
    def freed(self) -> bool:
        return self._data is None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def fill(self, value: float) -> None:
        """Fill the array with a constant (device-side memset)."""
        self.data.fill(value)

    def copy_to_host(self) -> np.ndarray:
        """Return a host copy of the array contents."""
        return self.data.copy()

    def tracked(self, sanitizer) -> np.ndarray:
        """Sanitizer-instrumented view of the backing store.

        Pass the returned array (instead of ``.data``) into an emulated
        kernel launch to have the kernel sanitizer attribute accesses —
        and out-of-bounds diagnostics — to this allocation by name.
        """
        return sanitizer.track(self.data, label=self.name)

    def free(self) -> None:
        """Release the allocation back to the device."""
        if self._data is not None:
            self._manager._release(self)
            self._data = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self._data is None:
            return f"DeviceArray({self.name!r}, freed)"
        return f"DeviceArray({self.name!r}, shape={self.shape}, dtype={self.dtype})"


class MemoryManager:
    """Tracks allocations against a fixed device capacity."""

    def __init__(self, capacity_bytes: int, fires_injector: bool = True) -> None:
        if capacity_bytes <= 0:
            raise ParameterError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = int(capacity_bytes)
        self.allocated_bytes = 0
        self.peak_bytes = 0
        #: Whether allocations consult the run's fault injector (the
        #: fleet's accounting-only logical device opts out).
        self.fires_injector = fires_injector
        self._live: dict[int, DeviceArray] = {}

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.allocated_bytes

    def alloc(
        self,
        shape: int | tuple[int, ...],
        dtype: np.dtype | type = np.float32,
        name: str = "unnamed",
        fill: float | None = None,
    ) -> DeviceArray:
        """Allocate a device array, raising when the card is full."""
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        injector = current_run().injector if self.fires_injector else None
        if injector is not None:
            injector.on_alloc(name, nbytes, self.free_bytes, self.capacity_bytes)
        if nbytes > self.free_bytes:
            raise DeviceOutOfMemoryError(nbytes, self.free_bytes, self.capacity_bytes)
        if fill is None:
            data = np.empty(shape, dtype=dtype)
        else:
            data = np.full(shape, fill, dtype=dtype)
        array = DeviceArray(self, name, data)
        self.allocated_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.allocated_bytes)
        self._live[id(array)] = array
        return array

    def _release(self, array: DeviceArray) -> None:
        live = self._live.pop(id(array), None)
        if live is None:
            raise DeviceError(f"double free of device array {array.name!r}")
        self.allocated_bytes -= array.nbytes

    def live_arrays(self) -> Iterator[DeviceArray]:
        """Iterate over currently live allocations."""
        return iter(list(self._live.values()))

    def free_all(self) -> None:
        """Release every live allocation (device reset)."""
        for array in self.live_arrays():
            array.free()

    def footprint_by_name(self) -> dict[str, int]:
        """Bytes currently allocated, grouped by allocation name."""
        sizes: dict[str, int] = {}
        for array in self._live.values():
            sizes[array.name] = sizes.get(array.name, 0) + array.nbytes
        return sizes


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
