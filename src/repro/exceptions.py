"""Exception hierarchy for the GPU-FAST-PROCLUS reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type to handle any library failure.  More specific
subclasses distinguish user errors (bad parameters, bad data) from
resource errors (simulated device out of memory) and internal invariant
violations in the GPU substrate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ParameterError",
    "DataValidationError",
    "DeviceError",
    "DeviceOutOfMemoryError",
    "DeviceLostError",
    "KernelLaunchError",
    "TransientDeviceError",
    "TransferCorruptionError",
    "KernelTimeoutError",
    "EmulationError",
    "SanitizerError",
    "CheckpointError",
    "ResilienceExhaustedError",
    "ServeError",
    "AdmissionError",
    "PostmortemError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ParameterError(ReproError, ValueError):
    """An algorithm parameter is out of its valid range."""


class DataValidationError(ReproError, ValueError):
    """The input dataset is malformed (wrong shape, dtype, NaN, ...)."""


class DeviceError(ReproError, RuntimeError):
    """A simulated GPU device operation failed."""


class DeviceOutOfMemoryError(DeviceError):
    """A simulated device allocation exceeded the device's memory."""

    def __init__(self, requested: int, free: int, total: int) -> None:
        self.requested = int(requested)
        self.free = int(free)
        self.total = int(total)
        super().__init__(
            f"device out of memory: requested {requested} B, "
            f"free {free} B of {total} B"
        )


class DeviceLostError(DeviceError):
    """A device fell off the bus and every operation on it fails.

    Unlike :class:`TransientDeviceError`, a lost device does not come
    back with a context reset: the failure is permanent for the rest of
    the process (until the fault injector's :meth:`revive`).  ``device``
    carries the lost member's tag (``"dev1"`` for fleet shard 1,
    ``"device"`` for a solo card) so recovery code can re-shard around
    it.
    """

    def __init__(self, message: str, device: str = "device") -> None:
        super().__init__(message)
        self.device = device


class KernelLaunchError(DeviceError):
    """A kernel was launched with an invalid configuration."""


class TransientDeviceError(DeviceError):
    """A device operation failed transiently (retryable after a reset).

    Models CUDA's "sticky" context errors (e.g. ``cudaErrorIllegalAddress``):
    once raised, every subsequent operation on the same device generation
    fails until the context is torn down and rebuilt.  Instances carry
    ``sticky`` so handlers know whether a reset is required before
    retrying.
    """

    def __init__(self, message: str, sticky: bool = True) -> None:
        super().__init__(message)
        self.sticky = bool(sticky)


class TransferCorruptionError(DeviceError):
    """A host<->device transfer was flagged as corrupted (ECC-style).

    The corruption is *detected* (as an ECC double-bit error would be)
    rather than silently propagated, so the transfer's consumer never
    sees bad data — the operation fails and can be retried.
    """


class KernelTimeoutError(DeviceError):
    """A kernel exceeded the (simulated) watchdog time limit."""


class EmulationError(ReproError, RuntimeError):
    """The SIMT emulator detected an invalid kernel behaviour.

    Raised, for example, when threads of one block reach different
    barriers (divergent ``syncthreads``), which on real hardware is
    undefined behaviour.
    """


class SanitizerError(EmulationError):
    """The kernel sanitizer detected a fatal memory error.

    Raised for out-of-bounds accesses (including negative indices,
    which NumPy would silently wrap), where continuing the launch would
    corrupt unrelated memory.  The triggering
    :class:`~repro.gpu.sanitizer.Diagnostic` is attached as
    ``.diagnostic`` and also recorded in the sanitizer's report.
    """

    def __init__(self, message: str, diagnostic: object | None = None) -> None:
        super().__init__(message)
        self.diagnostic = diagnostic


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint is missing, corrupt, or incompatible with the run.

    Raised when resuming against different data, a different parameter
    set, or an unreadable/older-format checkpoint directory.
    """


class ServeError(ReproError, RuntimeError):
    """A clustering-service operation failed (unknown dataset, closed
    service, malformed spool request, ...)."""


class AdmissionError(ServeError):
    """The service refused to enqueue a request (admission control).

    Raised at submit time when the queue is full, the modeled-device
    backlog exceeds the configured budget, or no admitting modeled card
    can hold the request.  Carries ``reason`` (``"queue"``,
    ``"backlog"``, or ``"memory"``) so clients can distinguish
    back-off-and-retry conditions from permanently infeasible requests.
    """

    def __init__(self, message: str, reason: str = "") -> None:
        super().__init__(message)
        self.reason = reason


class PostmortemError(ReproError, RuntimeError):
    """A postmortem bundle is missing, malformed, or not replayable.

    Raised by :mod:`repro.obs.postmortem` when a bundle fails schema
    validation, references data that was not embedded, or lacks the job
    context needed for ``repro postmortem --replay``.
    """


class ResilienceExhaustedError(ReproError, RuntimeError):
    """Retries and the degradation ladder were exhausted without success.

    Carries the final underlying error as ``last_error`` and the list of
    :class:`~repro.resilience.runner.ResilienceEvent` records describing
    every retry/degradation attempted as ``events``.
    """

    def __init__(
        self, message: str, last_error: BaseException | None = None,
        events: list | None = None,
    ) -> None:
        super().__init__(message)
        self.last_error = last_error
        self.events = events if events is not None else []
