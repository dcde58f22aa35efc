"""Error taxonomy and retry/degradation policy.

Every error the substrate can raise is classified into one of three
classes, which determines the recovery action:

* **TRANSIENT** — launch failures, sticky context errors, detected
  transfer corruption, watchdog timeouts.  The operation is expected to
  succeed on retry after a device reset; retried up to
  :attr:`RetryPolicy.max_retries` times per ladder rung with
  deterministic exponential backoff.
* **CAPACITY** — the working set exceeded device memory.  Retrying the
  same configuration cannot succeed; the runner immediately steps down
  the degradation ladder to a configuration with a smaller resident
  working set (chunked ``Dist`` cache) or a cheaper backend.
* **DEVICE_LOSS** — a fleet member (or the solo card) fell off the bus
  permanently.  A fleet run re-shards over the surviving members and
  retries the same rung (:mod:`repro.fleet.recovery`); a solo run can
  only degrade to a rung that avoids the dead device.
* **FATAL** — user errors (bad data, bad parameters) and internal
  invariant violations (sanitizer findings, emulation errors).  Never
  retried; re-raised unchanged.

The **degradation ladder** orders configurations from fastest to most
conservative.  Because every PROCLUS variant in this repository
produces the identical clustering for the same seed (the paper's
correctness claim, enforced by the equivalence tests), stepping down
the ladder changes *where* the work runs, never *what* is computed —
a degraded run returns the bit-identical result.

The documented default ladder for ``gpu-fast`` is::

    gpu-fast  ->  gpu-fast (Dist cache chunked 2x, then 4x)
              ->  gpu      (GPU-PROCLUS: no resident cache)
              ->  fast     (CPU FAST-PROCLUS)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..exceptions import (
    DataValidationError,
    DeviceError,
    DeviceLostError,
    DeviceOutOfMemoryError,
    EmulationError,
    KernelLaunchError,
    KernelTimeoutError,
    ParameterError,
    ReproError,
    TransferCorruptionError,
    TransientDeviceError,
)

__all__ = [
    "ErrorClass",
    "classify_error",
    "LadderStep",
    "RetryPolicy",
    "default_ladder",
]


class ErrorClass(enum.Enum):
    """Recovery class of an error (see module docstring)."""

    TRANSIENT = "transient"
    CAPACITY = "capacity"
    DEVICE_LOSS = "device-loss"
    FATAL = "fatal"


def classify_error(error: BaseException) -> ErrorClass:
    """Classify an exception into its recovery class.

    Order matters: the loss and capacity subclasses are checked before
    the generic device classes, and user errors before the
    :class:`ReproError` catch-all.
    """
    if isinstance(error, DeviceLostError):
        return ErrorClass.DEVICE_LOSS
    if isinstance(error, DeviceOutOfMemoryError):
        return ErrorClass.CAPACITY
    if isinstance(
        error,
        (
            TransientDeviceError,
            TransferCorruptionError,
            KernelTimeoutError,
            KernelLaunchError,
        ),
    ):
        return ErrorClass.TRANSIENT
    if isinstance(error, (DataValidationError, ParameterError)):
        return ErrorClass.FATAL
    if isinstance(error, (DeviceError, EmulationError, ReproError)):
        # Sanitizer findings, emulator divergence: deterministic
        # bugs, not conditions to retry.
        return ErrorClass.FATAL
    return ErrorClass.FATAL


@dataclass(frozen=True, slots=True)
class LadderStep:
    """One rung of the degradation ladder.

    ``engine_kwargs`` are merged over the caller's kwargs when the rung
    is tried (e.g. ``{"dist_chunks": 2}`` to chunk the resident Dist
    cache).
    """

    backend: str
    engine_kwargs: dict = field(default_factory=dict)

    def describe(self) -> str:
        if not self.engine_kwargs:
            return self.backend
        rendered = ", ".join(
            f"{key}={value}" for key, value in sorted(self.engine_kwargs.items())
        )
        return f"{self.backend}({rendered})"


#: Default degradation ladders per starting backend.  Backends without
#: an entry degrade only by retrying in place (a one-rung ladder).
DEFAULT_LADDERS: dict[str, tuple[LadderStep, ...]] = {
    "gpu-fast": (
        LadderStep("gpu-fast"),
        LadderStep("gpu-fast", {"dist_chunks": 2}),
        LadderStep("gpu-fast", {"dist_chunks": 4}),
        LadderStep("gpu"),
        LadderStep("fast"),
    ),
    "gpu-fast-star": (
        LadderStep("gpu-fast-star"),
        LadderStep("gpu"),
        LadderStep("fast-star"),
    ),
    "gpu": (
        LadderStep("gpu"),
        LadderStep("fast"),
    ),
    # Sharded fleet backends degrade within the fleet first (chunked
    # cache, simpler variant), then fall back to the solo card, then to
    # CPU — the same answer at every rung, only the substrate changes.
    "fleet-gpu-fast": (
        LadderStep("fleet-gpu-fast"),
        LadderStep("fleet-gpu-fast", {"dist_chunks": 2}),
        LadderStep("fleet-gpu"),
        LadderStep("gpu-fast"),
        LadderStep("gpu"),
        LadderStep("fast"),
    ),
    "fleet-gpu-fast-star": (
        LadderStep("fleet-gpu-fast-star"),
        LadderStep("fleet-gpu"),
        LadderStep("gpu-fast-star"),
        LadderStep("fast-star"),
    ),
    "fleet-gpu": (
        LadderStep("fleet-gpu"),
        LadderStep("gpu"),
        LadderStep("fast"),
    ),
}


def default_ladder(backend: str) -> tuple[LadderStep, ...]:
    """The documented ladder for ``backend`` (one rung when unknown)."""
    return DEFAULT_LADDERS.get(backend, (LadderStep(backend),))


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded-retry + degradation policy for :class:`ResilientRunner`.

    Parameters
    ----------
    max_retries:
        Transient-error retries per ladder rung before stepping down.
    backoff_base:
        Base of the deterministic exponential backoff: attempt ``i``
        (1-based) waits ``backoff_base * 2**(i - 1)`` seconds.  The
        delay is always *recorded* on the retry event; it is only
        *slept* when positive, so tests run with ``0.0``.
    ladder:
        Explicit degradation ladder; the backend's default when
        omitted.  An empty tuple means "the starting configuration
        only" (no degradation).
    allow_degraded:
        When ``False``, capacity errors and exhausted retries raise
        instead of stepping down the ladder.
    max_reshards:
        Cap on within-rung fleet re-shards after device loss.  ``None``
        (the default) keeps the elastic behaviour — up to one re-shard
        per fleet member; ``0`` makes any device loss terminal for the
        rung (useful for postmortem drills and strict capacity tests).
    """

    max_retries: int = 3
    backoff_base: float = 0.0
    ladder: tuple[LadderStep, ...] | None = None
    allow_degraded: bool = True
    max_reshards: int | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ParameterError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if not self.backoff_base >= 0.0:
            raise ParameterError(
                f"backoff_base must be finite and >= 0, got {self.backoff_base}"
            )
        if self.max_reshards is not None and self.max_reshards < 0:
            raise ParameterError(
                f"max_reshards must be >= 0 or None, got {self.max_reshards}"
            )

    def ladder_for(self, backend: str) -> tuple[LadderStep, ...]:
        """Resolve the ladder for a starting backend."""
        if self.ladder is not None:
            return self.ladder if self.ladder else (LadderStep(backend),)
        if not self.allow_degraded:
            return (LadderStep(backend),)
        ladder = default_ladder(backend)
        if ladder[0].backend != backend:  # pragma: no cover - defensive
            ladder = (LadderStep(backend), *ladder)
        return ladder

    def backoff_seconds(self, attempt: int) -> float:
        """Deterministic backoff before retry ``attempt`` (1-based)."""
        return self.backoff_base * (2 ** max(0, attempt - 1))
